"""Persona-selection router.

A two-layer feed-forward network (linear, ReLU, dropout, linear) maps a
query embedding to a softmax relevance distribution over personas. There is
no direct supervision for "which persona is relevant", so the router trains
through an auxiliary task: the relevance vector is multiplied into the
query's Persona x Entity confidence matrix (values scaled to [0, 1]) to
produce per-entity scores, and a mean per-entity binary cross-entropy
against gold entity labels backpropagates into the router. Softmax keeps
the entity scores a convex combination of matrix rows, hence valid
Bernoulli parameters for that loss.

All numerics are float64 numpy; training is single-threaded and bit-
deterministic for a fixed seed.
"""

from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import EmptyDatasetError, ModelError
from .features import row_blocks
from .optim import (COUNT, FRACTION, TrainConfig, check_weights,
                    fan_in_uniform, load_weights, minibatch_epochs,
                    save_weights)

BCE_EPS = 1e-7
CONFIDENCE_SCALE = 3.0  # matrix values {0..3} -> [0, 1]


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass
class RouterModel:
    """Parameters of the persona-selection network.

    W1: (d, h), b1: (h,), W2: (h, P), b2: (P,). ``persona_ids`` pins the
    row order of every confidence matrix this model may be applied to, and
    ``registry_hash`` pins the entity columns seen in training.
    """

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    dropout_rate: float
    persona_ids: tuple
    registry_hash: str
    embedding_provider: str = ""
    train_config: dict = field(default_factory=dict)

    def __post_init__(self):
        check_weights(self)
        self.persona_ids = tuple(self.persona_ids)
        d, h = self.W1.shape
        if self.b1.shape != (h,) or self.W2.shape[0] != h:
            raise ModelError("hidden layer shapes are inconsistent")
        if self.W2.shape[1] != len(self.persona_ids) or self.b2.shape != (len(self.persona_ids),):
            raise ModelError("output layer does not match persona count")
        if not 0 <= self.dropout_rate < 1:
            raise ModelError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def input_dim(self):
        return self.W1.shape[0]

    @property
    def hidden_dim(self):
        return self.W1.shape[1]

    @property
    def persona_count(self):
        return len(self.persona_ids)

    def params(self):
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}


@dataclass(frozen=True)
class RouterTrainConfig(TrainConfig):
    hidden_dim: int = 64
    dropout_rate: float = 0.1

    def rules(self):
        return {**super().rules(), "hidden_dim": COUNT,
                "dropout_rate": FRACTION}


def _dropout_mask(rng, shape, rate):
    return (rng.random(shape) >= rate).astype(float) / (1.0 - rate)


def router_forward(model, X, train_mode=False, seed=0):
    """(n, P) relevance distributions over personas of the embeddings X
    (n, d). Inference (train_mode=False) is deterministic and ignores seed.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ModelError(f"embeddings of shape {X.shape} do not match model "
                         f"input {model.input_dim}")
    return _forward_batch(model, X, train_mode=train_mode, seed=seed)[0]


def _forward_batch(model, X, train_mode, seed):
    """Forward pass: ReLU hidden layer, inverted-scaling dropout in train
    mode only, softmax output. Returns (relevance B x P, cache for
    backward)."""
    A1 = X @ model.W1 + model.b1
    H = np.maximum(A1, 0.0)
    if train_mode and model.dropout_rate > 0:
        rng = np.random.default_rng(seed)
        mask = _dropout_mask(rng, H.shape, model.dropout_rate)
    else:
        mask = None
    Hd = H * mask if mask is not None else H
    Z = Hd @ model.W2 + model.b2
    Z = Z - Z.max(axis=1, keepdims=True)
    expZ = np.exp(Z)
    R = expZ / expZ.sum(axis=1, keepdims=True)
    cache = {"X": X, "A1": A1, "Hd": Hd, "mask": mask, "R": R}
    return R, cache


def predict_entities(relevance, values):
    """(n, E) entity scores: per query, the relevance-weighted mean of its
    (P, E) matrix rows in ``values`` (n, P, E), scaled by 1/3 so scores land
    in [0, 1]; with softmax relevance each is a convex combination of rows.
    """
    relevance = np.asarray(relevance, dtype=float)
    if relevance.shape != np.shape(values)[:2]:
        raise ModelError(f"relevance of shape {relevance.shape} does not "
                         f"match matrices of shape {np.shape(values)}")
    return np.einsum("bp,bpe->be", relevance,
                     np.asarray(values, dtype=float) / CONFIDENCE_SCALE)


def router_loss_and_grads(model, X, matrices, targets, train_mode=False, seed=0):
    """Loss and analytic parameter gradients for a batch.

    X: (B, d) embeddings; matrices: (B, P, E) scaled-to-{0..3} integer
    values; targets: (B, E) gold indicators. Loss is the mean over batch
    and entities of binary cross-entropy between the routed entity scores
    (clamped away from {0, 1}) and the gold indicators.
    """
    B, E = targets.shape
    R, cache = _forward_batch(model, X, train_mode=train_mode, seed=seed)
    S = predict_entities(R, matrices)

    clipped = np.clip(S, BCE_EPS, 1.0 - BCE_EPS)
    w = np.full(E, 1.0 / E)
    losses = -(targets * np.log(clipped) + (1.0 - targets) * np.log1p(-clipped))
    loss = float((losses * w).sum(axis=1).mean())

    # dL/dS, respecting the clip (zero gradient where the clamp is active)
    dS = (-(targets / clipped) + (1.0 - targets) / (1.0 - clipped)) * w / B
    dS[(S < BCE_EPS) | (S > 1.0 - BCE_EPS)] = 0.0

    Mt = np.asarray(matrices, dtype=float) / CONFIDENCE_SCALE
    dR = np.einsum("be,bpe->bp", dS, Mt)
    # softmax backward: dZ = R * (dR - <dR, R>)
    dZ = cache["R"] * (dR - (dR * cache["R"]).sum(axis=1, keepdims=True))
    grads = {
        "b2": dZ.sum(axis=0),
        "W2": cache["Hd"].T @ dZ,
    }
    dHd = dZ @ model.W2.T
    dH = dHd * cache["mask"] if cache["mask"] is not None else dHd
    dA1 = dH * (cache["A1"] > 0)
    grads["b1"] = dA1.sum(axis=0)
    grads["W1"] = cache["X"].T @ dA1
    return loss, grads


def _init_model(d, P, config, persona_ids, registry_hash):
    h = config.hidden_dim
    W1, b1, W2, b2 = fan_in_uniform(config.seed, (d, (d, h)), (d, h),
                                    (h, (h, P)), (h, P))
    return RouterModel(
        W1=W1, b1=b1, W2=W2, b2=b2,
        dropout_rate=config.dropout_rate,
        persona_ids=persona_ids,
        registry_hash=registry_hash,
        train_config=asdict(config),
    )


def train_router(X, M, Y, persona_ids, config, registry, rows=None):
    """Train the router on X (n, d) embeddings, M (n, P, E) confidence
    matrices (rows in ``persona_ids`` order) and Y (n, E) gold indicators.
    The train set is ``rows`` of X, M and Y (every row when None); each
    minibatch gathers its rows and casts them to float64, so no copy of the
    train set is made.

    Returns (RouterModel, loss_history) where loss_history is a list of
    (epoch, batch, loss) rows. Mini-batch AdamW; deterministic given
    config.seed. The model's ``embedding_provider`` is metadata: the caller
    records the encoder's ``tag`` there.
    """
    rows = np.arange(len(X)) if rows is None else np.asarray(rows, np.intp)
    if not len(rows):
        raise EmptyDatasetError("train_router got no examples")
    X, M, Y = (np.asarray(a) for a in (X, M, Y))
    model = _init_model(X.shape[1], len(persona_ids), config, persona_ids,
                        registry.hash)
    dropout_seed = np.random.SeedSequence(config.seed + 2)

    def batch_loss(batch):
        picked = rows[batch]
        return router_loss_and_grads(
            model, *(np.asarray(a[picked], dtype=float) for a in (X, M, Y)),
            train_mode=True, seed=dropout_seed.spawn(1)[0])

    history = []
    for epoch, losses in minibatch_epochs(
            model.params(), len(rows), batch_loss, config, ("W1", "W2"),
            "router"):
        history += [(epoch, batch, loss) for batch, loss in enumerate(losses)]
    return model, history


def select_top_k(model, X, k):
    """(n, k) persona row indices of each embedding in X (n, d): its k most
    relevant personas by ``router_forward``, by descending relevance; exact
    ties go to the lexicographically smaller persona id. The relevance is
    computed ``features.row_blocks`` at a time, bit for bit as one forward
    over every row."""
    if not 1 <= k <= model.persona_count:
        raise ModelError(
            f"k must be in [1, {model.persona_count}], got {k}")
    X = np.asarray(X, dtype=float)
    relevance = np.empty((len(X), model.persona_count))
    for block in row_blocks(len(X)):
        relevance[block] = router_forward(model, X[block])
    id_rank = np.argsort(np.argsort(model.persona_ids))
    ranked = np.lexsort((np.broadcast_to(id_rank, relevance.shape),
                         -relevance), axis=-1)
    return ranked[:, :k]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_router(path, model, loss_history=None):
    """Self-describing JSON container; weights in ``optim.encode_array``
    form."""
    save_weights(path, "router", model, d=model.input_dim, h=model.hidden_dim,
                 P=model.persona_count, persona_ids=model.persona_ids,
                 registry_hash=model.registry_hash,
                 dropout_rate=model.dropout_rate,
                 embedding_provider=model.embedding_provider,
                 train_config=model.train_config, loss_history=loss_history)


def load_router(path):
    """The model saved at ``path``; raises ModelError for a file that is not
    a complete, well-formed router model."""
    return load_weights(path, "router", lambda payload: RouterModel(
        **payload["weights"],
        dropout_rate=payload["dropout_rate"],
        persona_ids=payload["persona_ids"],
        registry_hash=payload["registry_hash"],
        embedding_provider=payload.get("embedding_provider", ""),
        train_config=payload.get("train_config", {})))
