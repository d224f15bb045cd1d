"""Distilled low-latency multi-label entity classifier.

A pluggable text encoder feeds one logistic head per entity, the fastText
design (Joulin et al., "Bag of Tricks for Efficient Text Classification",
EACL 2017): the width is in the hashed n-gram features, not in a hidden
layer. The heads are one weight matrix ``W`` (D, E) and one bias ``b``
(E,), so a query's logits are ``x @ W + b`` and each entity's sigmoid is
scored independently. Training uses the numerically stable logistic BCE
(log-sum-exp form, never sigmoid-then-log) on weak indicator labels, AdamW
(decaying ``W`` only), per-epoch dev micro-F1 checkpointing with early
stopping, and is bit-deterministic for a fixed seed. Decision thresholds
are tuned per entity after training: maximize F1, or match a reference
recall/precision.

The encoder is ``features.HashedNgramEmbedder``: it embeds any query,
seen in training or not, so the same model scores queries in real time.
Training, threshold tuning and batch prediction take its ``(n, dim)``
feature rows and a row index into them, so a pipeline run encodes each
query once and copies no split; batch prediction (which the dev
checkpoint and threshold tuning call) scores ``features.row_blocks`` at a
time. ``predict_probs`` embeds one query with the model's encoder, or the
long-lived one a server passes. A model file naming another encoder kind,
or holding the two-layer heads of earlier versions, is refused at load.

Labels are ``(n, E)`` arrays in the same row order as the features. A
pipeline run indexes its own teacher-derived label array by row;
``weak_labels_from_annotations`` and ``labeled_queries`` build such rows
from a {query_id: Annotation} store, for callers that hold one.

The heads train, are stored and serve in float32. A model built from
float64 arrays stays float64 throughout (``heads_forward`` computes in the
weights' dtype).
"""

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import EmptyDatasetError, ModelError
from .features import encoder_from_descriptor, row_blocks
from .optim import (COUNT, TrainConfig, check_weights, fan_in_uniform,
                    load_weights, minibatch_epochs, save_weights)
from .personas import annotation_levels


# ---------------------------------------------------------------------------
# Weak labels
# ---------------------------------------------------------------------------

def weak_labels_from_annotations(registry, annotations, min_confidence):
    """(n, E) bool weak labels of a {query_id: Annotation} store, in store
    order: an entity is set iff its confidence >= ``min_confidence``. The
    empty annotation ("None") yields an all-False row."""
    return annotation_levels(list(annotations.values()), registry) >= min_confidence


def labeled_queries(records, annotations, registry, min_confidence):
    """The (n, E) float32 weak-label rows of ``records``, in their order,
    from a {query_id: Annotation} store. A record without an annotation is
    a ModelError: label row i must stay record i's."""
    missing = sum(record.id not in annotations for record in records)
    if missing:
        raise ModelError(f"{missing} records have no weak label")
    levels = annotation_levels([annotations[r.id] for r in records], registry)
    return (levels >= min_confidence).astype(np.float32)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass
class ClassifierModel:
    """Per-entity logistic heads over a shared encoder.

    The heads are one weight matrix W (D, E) and one bias b (E,), float32
    or float64 (``check_weights``). ``thresholds`` holds the per-entity
    decision cut; an entity is predicted iff its probability >= threshold.
    """

    backend_descriptor: dict
    entity_ids: tuple
    W: np.ndarray
    b: np.ndarray
    thresholds: np.ndarray
    registry_hash: str
    train_config: dict = field(default_factory=dict)

    def __post_init__(self):
        check_weights(self)
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        self.entity_ids = tuple(self.entity_ids)
        E = len(self.entity_ids)
        dim = encoder_from_descriptor(self.backend_descriptor).dim
        for name, shape in (("W", (dim, E)), ("b", (E,))):
            actual = getattr(self, name).shape
            if actual != shape:
                raise ModelError(f"{name} has shape {actual}, expected {shape} "
                                 f"for {dim}-dim features and {E} entities")
        if self.thresholds.shape != (E,):
            raise ModelError("need exactly one threshold per entity")
        if ((self.thresholds <= 0) | (self.thresholds >= 1)).any():
            raise ModelError("thresholds must lie in (0, 1)")

    def params(self):
        return {"W": self.W, "b": self.b}

    def backend(self):
        return encoder_from_descriptor(self.backend_descriptor)


@dataclass(frozen=True)
class ClassifierTrainConfig(TrainConfig):
    learning_rate: float = 0.1
    patience: int = 5

    def rules(self):
        return {**super().rules(), "patience": COUNT}


def stable_bce(logits, targets):
    """Logistic BCE in the overflow-safe log-sum-exp form, elementwise."""
    z = np.asarray(logits, dtype=float)
    y = np.asarray(targets, dtype=float)
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def _sigmoid(z):
    """Elementwise logistic in the dtype of ``z``, overflow-free: with
    ``e = exp(-|z|)``, ``1 / (1 + e)`` where ``z >= 0``, else ``e / (1 + e)``."""
    # min(z, -z) is -|z|, but keeps the sign bit of a NaN, as exp(z) does.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def heads_forward(model, X):
    """Logits (B, E) of a feature batch (B, D), in the weights' dtype (the
    features are cast to it). Each row ``x`` is its own matrix-vector
    product ``x @ W + b``, so its bits are the same in any batch: a served
    query, a row block or a whole array. A matrix product over the batch
    sums a row's terms in an order that BLAS picks by the row count.
    """
    X = np.asarray(X, dtype=model.W.dtype)
    return np.matmul(X[:, None, :], model.W)[:, 0] + model.b


def classifier_loss_and_grads(model, X, Y):
    """Mean logistic BCE over (query, entity) cells, with analytic grads in
    the dtype of the weights. The logits feed only the gradients, so they
    take one matrix product, 4x faster at B = 32 than ``heads_forward``."""
    B, E = Y.shape
    X = np.asarray(X, dtype=model.W.dtype)
    Z = X @ model.W + model.b
    Y = np.asarray(Y, dtype=Z.dtype)
    loss = float(stable_bce(Z, Y).mean())
    dZ = (_sigmoid(Z) - Y) / (B * E)
    return loss, {"W": X.T @ dZ, "b": dZ.sum(axis=0)}


def _init_classifier(encoder, entity_ids, registry_hash, config):
    """Float32 heads from the float64 fan-in draws of ``config.seed``."""
    D, E = encoder.dim, len(entity_ids)
    W, b = (draw.astype(np.float32) for draw in fan_in_uniform(
        config.seed, (D, (D, E)), (D, E)))
    return ClassifierModel(
        backend_descriptor=encoder.descriptor(),
        entity_ids=tuple(entity_ids),
        W=W, b=b,
        thresholds=np.full(E, 0.5),
        registry_hash=registry_hash,
        train_config=asdict(config),
    )


def _pick(array, rows):
    """``rows`` of ``array`` (all of it when None)."""
    return np.asarray(array)[slice(None) if rows is None else rows]


def _micro_f1_at_half(probs, labels):
    pred = probs >= 0.5
    gold = labels > 0.5
    tp = float((pred & gold).sum())
    fp = float((pred & ~gold).sum())
    fn = float((~pred & gold).sum())
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def train_classifier(X, Y, X_dev, Y_dev, config, registry, encoder,
                     rows=None, dev_rows=None):
    """Train per-entity heads on weak labels: features ``X`` (n, D) from
    ``encoder``, which only supplies ``dim`` and ``descriptor()``, and
    labels ``Y`` (n, E) over the registry's entities. The train set is
    ``rows`` of X and Y, and the dev set ``dev_rows`` of X_dev and Y_dev
    (every row when None); each minibatch gathers its rows and casts them
    to the heads' float32, so neither set is copied.

    Checkpoints on dev micro-F1 (decisions at probability 0.5) each epoch
    and early-stops after ``config.patience`` epochs without improvement;
    with no dev rows it trains every epoch. The returned model is the best
    checkpoint. Also returns a history of (epoch, train_loss, dev_micro_f1)
    rows. Deterministic given config.seed.
    """
    rows = np.arange(len(X)) if rows is None else np.asarray(rows, np.intp)
    if len(rows) == 0:
        raise EmptyDatasetError("train_classifier got an empty train set")
    if len(Y) != len(X) or len(Y_dev) != len(X_dev):
        raise ModelError("features and labels differ in row count")
    X, Y, X_dev = np.asarray(X), np.asarray(Y), np.asarray(X_dev)
    Y_dev = _pick(Y_dev, dev_rows)
    if Y.shape[1] != len(registry):
        raise ModelError("train labels do not cover the registry")

    def batch_loss(batch):
        picked = rows[batch]
        return classifier_loss_and_grads(
            model, np.asarray(X[picked], dtype=np.float32),
            np.asarray(Y[picked], dtype=np.float32))

    model = _init_classifier(encoder, registry.ids, registry.hash, config)
    best = None
    best_f1 = -1.0
    stale = 0
    history = []
    for epoch, epoch_losses in minibatch_epochs(
            model.params(), len(rows), batch_loss, config, ("W",),
            "classifier"):
        if not len(Y_dev):
            history.append((epoch, float(np.mean(epoch_losses)), float("nan")))
            continue
        dev_f1 = _micro_f1_at_half(
            predict_probs_batch(model, X_dev, dev_rows), Y_dev)
        history.append((epoch, float(np.mean(epoch_losses)), dev_f1))
        if dev_f1 > best_f1:
            best_f1 = dev_f1
            best = {k: v.copy() for k, v in model.params().items()}
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    if best is not None:
        for key, value in best.items():
            getattr(model, key)[...] = value
    return model, history


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict_probs(model, text, backend=None):
    """Per-entity probabilities for one query (sigmoid of each head)."""
    if backend is None:
        backend = model.backend()
    x = backend.embed(text)
    return _sigmoid(heads_forward(model, x[None, :])[0])


def predict_probs_batch(model, X, rows=None):
    """Per-entity probabilities of ``rows`` of the features ``X`` (n, D)
    (every row when None): an (n, E) array in the weights' dtype.

    The rows are scored ``features.row_blocks`` at a time, each block
    gathered and cast to the weights' dtype, so beyond the output only one
    block's features are held; every row's probabilities are the bits
    one ``heads_forward`` over all the rows gives.
    """
    if rows is not None:
        rows = np.asarray(rows, np.intp)
    n = len(X) if rows is None else len(rows)
    probs = np.empty((n, len(model.entity_ids)),
                     np.result_type(*model.params().values()))
    for block in row_blocks(n):
        picked = X[block] if rows is None else X[rows[block]]
        probs[block] = _sigmoid(heads_forward(model, picked))
    return probs


def apply_thresholds(model, probs):
    """Entity ids whose probability clears the per-entity threshold (>=)."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != model.thresholds.shape:
        raise ModelError("probability vector does not match entity count")
    return {
        entity for entity, p, t in
        zip(model.entity_ids, probs, model.thresholds) if p >= t
    }


# ---------------------------------------------------------------------------
# Threshold tuning
# ---------------------------------------------------------------------------

MAX_F1 = "max_f1"
MATCH_RECALL = "match_recall"
MATCH_PRECISION = "match_precision"


@dataclass(frozen=True)
class ThresholdChoice:
    """Outcome of tuning one entity's threshold.

    ``attained`` is False when the requested target was unreachable; the
    threshold then sits at the closest achievable operating point and
    ``achieved`` reports the metric value actually reached there.
    """

    threshold: float
    achieved: float
    attained: bool = True


def _prf(tp, fp, fn):
    """Precision, recall and F1 from confusion counts, scalar or elementwise
    over arrays; a ratio with a zero denominator is 0."""
    tp, fp, fn = (np.asarray(count, dtype=float) for count in (tp, fp, fn))
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.nan_to_num(tp / (tp + fp))
        recall = np.nan_to_num(tp / (tp + fn))
        f1 = np.nan_to_num(2 * precision * recall / (precision + recall))
    return precision, recall, f1


def _sweep(probs, labels):
    """Every candidate threshold, ascending, with the precision, recall and
    F1 of ``prob >= threshold`` at each; one sort per class, O(n log n)."""
    # np.union1d(probs, (0, 1)) for NaN-free probabilities, by its own sort
    # and adjacent-duplicate mask, without the numpy.ma import it costs.
    candidates = np.concatenate((probs, (0.0, 1.0)))
    candidates.sort()
    candidates = candidates[np.concatenate(
        ([True], candidates[1:] != candidates[:-1]))]
    positives, negatives = np.sort(probs[labels]), np.sort(probs[~labels])
    tp = positives.size - np.searchsorted(positives, candidates)
    fp = negatives.size - np.searchsorted(negatives, candidates)
    return (candidates, *_prf(tp, fp, positives.size - tp))


def tune_threshold_for_entity(probs, labels, mode, target=None):
    """Pick one entity's threshold from the candidate sweep.

    Candidates are the entity's unique dev probabilities plus {0, 1}; the
    decision rule is ``prob >= threshold`` everywhere. MAX_F1 maximizes F1
    (ties to the larger threshold). MATCH_RECALL takes the largest threshold
    whose recall >= target; MATCH_PRECISION the smallest threshold whose
    precision >= target. Unreachable targets yield attained=False with the
    closest achievable value: the largest threshold of best recall, or the
    smallest of best precision.
    """
    candidates, precision, recall, f1 = _sweep(
        np.asarray(probs, dtype=float), np.asarray(labels) > 0.5)
    if mode == MAX_F1:
        values, feasible, largest = f1, f1 == f1.max(), True
    elif mode == MATCH_RECALL:
        if target is None:
            raise ModelError("MATCH_RECALL needs a target recall")
        values, feasible, largest = recall, recall >= target, True
    elif mode == MATCH_PRECISION:
        if target is None:
            raise ModelError("MATCH_PRECISION needs a target precision")
        values, feasible, largest = precision, precision >= target, False
    else:
        raise ModelError(f"unknown threshold mode: {mode!r}")
    attained = bool(feasible.any())
    picks = np.flatnonzero(feasible if attained else values == values.max())
    pick = picks[-1] if largest else picks[0]
    return ThresholdChoice(threshold=float(candidates[pick]),
                           achieved=float(values[pick]), attained=attained)


def tune_thresholds(model, X_dev, Y_dev, mode, targets=None, rows=None):
    """Tune every entity's threshold on ``rows`` of the dev features and
    their labels (every row when None), scored by ``predict_probs_batch``.

    ``targets`` maps entity id -> target value for the matching modes.
    Returns {entity: ThresholdChoice}; apply the result to the model with
    ``set_thresholds``.
    """
    Y_dev = _pick(Y_dev, rows)
    if len(Y_dev) == 0:
        raise EmptyDatasetError("tune_thresholds got an empty dev set")
    probs = predict_probs_batch(model, X_dev, rows)
    choices = {}
    for col, entity in enumerate(model.entity_ids):
        target = targets.get(entity) if targets else None
        choices[entity] = tune_threshold_for_entity(
            probs[:, col], Y_dev[:, col], mode, target=target)
    return choices


def set_thresholds(model, choices):
    """Write tuned thresholds into the model (clamped inside (0, 1)).

    Raises ModelError for an entity the model does not have or a threshold
    that is not finite; the model is left unchanged then.
    """
    thresholds = model.thresholds.copy()
    for entity, choice in choices.items():
        if entity not in model.entity_ids:
            raise ModelError(f"threshold for unknown entity {entity!r}")
        t = choice.threshold
        if not np.isfinite(t):
            raise ModelError(f"threshold for {entity!r} is not finite: {t!r}")
        thresholds[model.entity_ids.index(entity)] = min(max(t, 1e-9), 1.0 - 1e-9)
    model.thresholds = thresholds
    return model


def write_predictions_jsonl(path, model, records):
    """Batch prediction output: one JSON line per query with every entity's
    probability, sorted descending. Thresholded labels are the caller's
    business (``apply_thresholds``); this file keeps the full distribution."""
    probs = predict_probs_batch(model, model.backend().encode_batch(
        [r.text for r in records]))
    with open(path, "w", encoding="utf-8") as fh:
        for row, record in enumerate(records):
            labels = sorted(
                ({"entity": e, "prob": float(p)}
                 for e, p in zip(model.entity_ids, probs[row])),
                key=lambda item: -item["prob"])
            fh.write(json.dumps({"id": record.id, "text": record.text,
                                 "labels": labels}) + "\n")


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_classifier(path, model, history=None):
    save_weights(path, "classifier", model, backend=model.backend_descriptor,
                 entity_ids=model.entity_ids,
                 registry_hash=model.registry_hash,
                 train_config=model.train_config,
                 thresholds=model.thresholds.tolist(), history=history)


def load_classifier(path):
    """The model saved at ``path``; raises ModelError for a file that is not
    a complete, well-formed classifier model."""
    def build(payload):
        if "U1" in payload["weights"]:
            raise ModelError("it holds the two-layer heads (U1, c1, U2, c2) "
                             "of an earlier version; train a new model")
        return ClassifierModel(
            **payload["weights"],
            backend_descriptor=payload["backend"],
            entity_ids=payload["entity_ids"],
            thresholds=payload["thresholds"],
            registry_hash=payload["registry_hash"],
            train_config=payload.get("train_config", {}))

    return load_weights(path, "classifier", build)
