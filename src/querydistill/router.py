"""Persona-selection gate.

A linear softmax gate, the gating network of Shazeer et al. (ICLR 2017,
sparsely-gated mixture of experts), maps a query's feature row ``x`` to a
relevance distribution over personas, ``softmax(x @ W + b)``. It reads the
classifier's own hashed n-gram features, so a run holds one feature matrix.

The pipeline ranks personas by relevance (``select_top_k``), so the gate
trains for a ranking, with the listwise loss of ListNet (Cao et al., ICML
2007): the cross-entropy of the relevance against ``listwise_target``, a
softmax over personas of how well each persona's row of the query's
Persona x Entity confidence matrix matches the gold labels.

All numerics are float64 numpy; training is single-threaded and bit-
deterministic for a fixed seed.
"""

from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import EmptyDatasetError, ModelError
from .features import row_blocks
from .optim import (TrainConfig, check_weights, fan_in_uniform, load_weights,
                    minibatch_epochs, save_weights)

BCE_EPS = 1e-7
CONFIDENCE_SCALE = 3.0  # matrix values {0..3} -> [0, 1]
# How sharply the listwise target prefers the personas of lower cost.
TEMPERATURE = 5.0

# The gate trains with the shared batching and AdamW settings alone.
RouterTrainConfig = TrainConfig


@dataclass
class RouterModel:
    """The gate's W (d, P) and b (P,). ``persona_ids`` pins the row order
    of every confidence matrix it may be applied to, and ``registry_hash``
    the entity columns seen in training."""

    W: np.ndarray
    b: np.ndarray
    persona_ids: tuple
    registry_hash: str
    embedding_provider: str = ""
    train_config: dict = field(default_factory=dict)

    def __post_init__(self):
        check_weights(self)
        self.persona_ids = tuple(self.persona_ids)
        P = len(self.persona_ids)
        if self.W.ndim != 2 or self.W.shape[1] != P or self.b.shape != (P,):
            raise ModelError(f"W of shape {self.W.shape} and b of shape "
                             f"{self.b.shape} do not match {P} personas")

    @property
    def input_dim(self):
        return self.W.shape[0]

    @property
    def persona_count(self):
        return len(self.persona_ids)

    def params(self):
        return {"W": self.W, "b": self.b}


def _log_softmax(Z):
    Z = Z - Z.max(axis=1, keepdims=True)
    return Z - np.log(np.exp(Z).sum(axis=1, keepdims=True))


def router_forward(model, X):
    """(n, P) relevance distributions over personas of the feature rows X
    (n, d), computed in float64. Each row's logits are its own matrix-vector
    product, as ``classifier.heads_forward``'s are, so its bits are the same
    in any batch."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ModelError(f"features of shape {X.shape} do not match model "
                         f"input {model.input_dim}")
    return np.exp(_log_softmax(np.matmul(X[:, None, :], model.W)[:, 0]
                               + model.b))


def listwise_target(matrices, targets):
    """(B, P) target distributions of (B, P, E) confidence matrices with
    values in {0..3} and (B, E) gold indicators: per query, the softmax over
    personas of ``-TEMPERATURE`` times each persona's mean binary
    cross-entropy against the gold."""
    S = np.clip(np.asarray(matrices, dtype=float) / CONFIDENCE_SCALE,
                BCE_EPS, 1.0 - BCE_EPS)
    Y = np.asarray(targets, dtype=float)[:, None, :]
    cost = -(Y * np.log(S) + (1.0 - Y) * np.log1p(-S)).mean(axis=2)
    return np.exp(_log_softmax(-TEMPERATURE * cost))


def router_loss_and_grads(model, X, matrices, targets):
    """Loss and parameter gradients of a batch: X (B, d) features, (B, P, E)
    matrices of values in {0..3} and (B, E) gold indicators. The loss is the
    batch mean of the cross-entropy of the relevance R against the
    ``listwise_target`` T; its gradient in the logits is ``(R - T) / B``."""
    log_relevance = _log_softmax(X @ model.W + model.b)
    T = listwise_target(matrices, targets)
    loss = float(-(T * log_relevance).sum(axis=1).mean())
    dZ = (np.exp(log_relevance) - T) / len(X)
    return loss, {"W": X.T @ dZ, "b": dZ.sum(axis=0)}


def train_router(X, M, Y, persona_ids, config, registry, rows=None):
    """(RouterModel, [(epoch, batch, loss)]) of minibatch AdamW on X (n, d)
    features, M (n, P, E) confidence matrices (rows in ``persona_ids``
    order) and Y (n, E) gold indicators. The train set is ``rows`` of them
    (every row when None); each minibatch gathers its rows and casts them
    to float64, so no copy of it is made. The caller records the encoder's
    ``tag`` in the model's ``embedding_provider``."""
    rows = np.arange(len(X)) if rows is None else np.asarray(rows, np.intp)
    if not len(rows):
        raise EmptyDatasetError("train_router got no examples")
    d, P = np.shape(X)[1], len(persona_ids)
    W, b = fan_in_uniform(config.seed, (d, (d, P)), (d, P))
    model = RouterModel(W=W, b=b, persona_ids=persona_ids,
                        registry_hash=registry.hash,
                        train_config=asdict(config))

    def batch_loss(batch):
        picked = rows[batch]
        return router_loss_and_grads(
            model, *(np.asarray(a[picked], dtype=float) for a in (X, M, Y)))

    history = []
    for epoch, losses in minibatch_epochs(model.params(), len(rows),
                                          batch_loss, config, ("W",), "router"):
        history += [(epoch, batch, loss) for batch, loss in enumerate(losses)]
    return model, history


def select_top_k(model, X, k):
    """(n, k) persona row indices of each feature row in X (n, d): its k
    most relevant personas by ``router_forward``, by descending relevance;
    exact ties go to the lexicographically smaller persona id. The
    relevance is computed ``features.row_blocks`` at a time, each block
    cast to float64, bit for bit as one forward over every row."""
    if not 1 <= k <= model.persona_count:
        raise ModelError(
            f"k must be in [1, {model.persona_count}], got {k}")
    relevance = np.empty((len(X), model.persona_count))
    for block in row_blocks(len(X)):
        relevance[block] = router_forward(model, X[block])
    id_rank = np.argsort(np.argsort(model.persona_ids))
    ranked = np.lexsort((np.broadcast_to(id_rank, relevance.shape),
                         -relevance), axis=-1)
    return ranked[:, :k]


def save_router(path, model, loss_history=None):
    """Self-describing JSON file; weights in ``optim.encode_array`` form."""
    save_weights(path, "router", model, d=model.input_dim,
                 P=model.persona_count, persona_ids=model.persona_ids,
                 registry_hash=model.registry_hash,
                 embedding_provider=model.embedding_provider,
                 train_config=model.train_config, loss_history=loss_history)


def load_router(path):
    """The model saved at ``path``; ModelError for a file that is not a
    complete, well-formed gate, such as an earlier two-layer router's."""
    def build(payload):
        if "W1" in payload["weights"]:
            raise ModelError("it holds the two-layer router (W1, b1, W2, b2) "
                             "of an earlier version; train a new model")
        return RouterModel(
            **payload["weights"],
            persona_ids=payload["persona_ids"],
            registry_hash=payload["registry_hash"],
            embedding_provider=payload.get("embedding_provider", ""),
            train_config=payload.get("train_config", {}))

    return load_weights(path, "router", build)
