"""The training recipe the router and the classifier share: AdamW on numpy
arrays, the train-config base, the minibatch epoch loop, the fan-in
initializer, the finite-weights check and the JSON weight file."""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NanLossError


class AdamW:
    """Decoupled-weight-decay Adam over a dict of named parameter arrays.

    Decay applies only to parameters named in ``decay_params`` (weight
    matrices; biases are conventionally exempt). Updates are in-place and
    deterministic.
    """

    def __init__(self, params, learning_rate, weight_decay=0.0,
                 beta1=0.9, beta2=0.999, eps=1e-8, decay_params=()):
        self.params = params
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.decay_params = frozenset(decay_params)
        self.step_count = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}
        # Two scratch arrays per parameter, so a step allocates nothing.
        self._scratch = {k: (np.empty_like(v), np.empty_like(v))
                         for k, v in params.items()}

    def step(self, grads):
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for name, param in self.params.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            a, b = self._scratch[name]
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=a)
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=a)
            v += np.multiply(a, g, out=a)
            # update = (m / bias1) / (sqrt(v / bias2) + eps), in a
            np.divide(m, bias1, out=a)
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            if name in self.decay_params and self.weight_decay:
                a += np.multiply(self.weight_decay, param, out=b)
            a *= self.learning_rate
            param -= a


@dataclass(frozen=True)
class TrainConfig:
    """Batching and AdamW settings of both networks. Each subclass adds its
    own fields; ``learning_rate`` None lets the network resolve it."""

    learning_rate: float = None
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate is not None and self.learning_rate < 0:
            raise ModelError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ModelError(f"epochs must be >= 1, got {self.epochs}")


def minibatch_epochs(params, n, loss_and_grads, config, learning_rate,
                     decay_params, name):
    """Train ``params`` in place with minibatch AdamW, yielding (epoch,
    batch losses) after each epoch; the caller may stop early by breaking.

    ``loss_and_grads(rows)`` returns one batch's loss and gradients. Each
    epoch visits the n rows in a permutation drawn from
    ``default_rng(config.seed + 1)``. A non-finite loss raises NanLossError
    naming the network ``name``.
    """
    optimizer = AdamW(params, learning_rate, weight_decay=config.weight_decay,
                      beta1=config.beta1, beta2=config.beta2, eps=config.eps,
                      decay_params=decay_params)
    order_rng = np.random.default_rng(config.seed + 1)
    for epoch in range(config.epochs):
        order = order_rng.permutation(n)
        losses = []
        for batch, start in enumerate(range(0, n, config.batch_size)):
            loss, grads = loss_and_grads(order[start:start + config.batch_size])
            if not np.isfinite(loss):
                raise NanLossError(
                    f"{name} loss is not finite at epoch {epoch} batch {batch}",
                    epoch=epoch, batch=batch)
            optimizer.step(grads)
            losses.append(loss)
        yield epoch, losses


def fan_in_uniform(seed, *layers):
    """Seeded uniform fan-in initialization: one array per (fan_in, shape)
    in ``layers``, drawn in order from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=shape)
            for fan_in, shape in layers]


def check_weights(model):
    """Store each of ``model.params()`` back on the model as a float64
    array; ModelError names one holding a NaN or infinite value."""
    for name, value in model.params().items():
        value = np.asarray(value, dtype=float)
        if not np.isfinite(value).all():
            raise ModelError(f"{name} holds a NaN or infinite weight")
        setattr(model, name, value)


def save_weights(path, kind, model, **fields):
    """Write a self-describing JSON model file: ``kind``, the ``fields`` that
    are not None, and ``model.params()`` under "weights" as row-major
    float64 lists."""
    payload = {name: value for name, value in fields.items() if value is not None}
    payload.update(kind=kind, weights={name: value.tolist() for name, value
                                       in model.params().items()})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_weights(path, kind, build):
    """``build(payload)`` of the JSON model file of ``kind`` at ``path``;
    raises ModelError for a file that is not a complete, well-formed model
    of that kind."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("kind") != kind:
            raise ModelError(f"{path} is not a {kind} model file")
        return build(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path} is not a valid {kind} model file: "
                         f"{exc!r}") from exc
