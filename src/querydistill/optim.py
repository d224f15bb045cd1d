"""The training recipe the router and the classifier share: AdamW on numpy
arrays, the train-config base, the minibatch epoch loop, the fan-in
initializer, the finite-weights check and the JSON weight file."""

import base64
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NanLossError


class AdamW:
    """Decoupled-weight-decay Adam over a dict of named parameter arrays.

    Decay applies only to parameters named in ``decay_params`` (weight
    matrices; biases are conventionally exempt). Updates are in-place and
    deterministic; the moments and every step's arithmetic keep each
    parameter's dtype.
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


def is_integer(value):
    """True for an integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value):
    """True for a finite real number that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def check_fields(config, rules, error=ModelError):
    """``error`` for the first field of ``config`` that breaks its rule.

    ``rules`` maps a field name to (kind, test, what): ``kind`` is "integer"
    or "number" (finite, never a bool), ``test(value)`` is the range check
    and ``what`` describes the range in the message.
    """
    for name, (kind, test, what) in rules.items():
        value = getattr(config, name)
        if not (is_integer if kind == "integer" else is_number)(value):
            article = "an" if kind == "integer" else "a finite"
            raise error(f"{name} must be {article} {kind}, got {value!r}")
        if not test(value):
            raise error(f"{name} must be {what}, got {value!r}")


# Rules that several train-config fields share.
COUNT = ("integer", lambda v: v >= 1, ">= 1")
NON_NEGATIVE = ("number", lambda v: v >= 0, ">= 0")
FRACTION = ("number", lambda v: 0 <= v < 1, "in [0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    """Batching and AdamW settings of both networks. Each subclass adds its
    own fields and their rules."""

    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def rules(self):
        """{field: (kind, test, what)} for ``check_fields``."""
        return {"epochs": COUNT, "batch_size": COUNT,
                "seed": ("integer", lambda v: v >= 0, ">= 0"),
                "weight_decay": NON_NEGATIVE, "beta1": FRACTION,
                "beta2": FRACTION, "eps": ("number", lambda v: v > 0, "> 0"),
                "learning_rate": NON_NEGATIVE}

    def __post_init__(self):
        check_fields(self, self.rules())


def minibatch_epochs(params, n, loss_and_grads, config, decay_params, name):
    """Train ``params`` in place with minibatch AdamW, yielding (epoch,
    batch losses) after each epoch; the caller may stop early by breaking.

    ``loss_and_grads(rows)`` returns one batch's loss and gradients. Each
    epoch visits the n rows in a permutation drawn from
    ``default_rng(config.seed + 1)``. A non-finite loss raises NanLossError
    naming the network ``name``.
    """
    optimizer = AdamW(params, config.learning_rate,
                      weight_decay=config.weight_decay,
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


# The dtypes a weight file may hold, little-endian: the classifier trains
# in float32 and the router in float64.
WEIGHT_DTYPES = ("<f4", "<f8")


def check_weights(model):
    """Store each of ``model.params()`` back on the model as an array,
    float32 if it is float32 and float64 otherwise; ModelError names one
    holding a NaN or infinite value."""
    for name, value in model.params().items():
        value = np.asarray(value)
        if value.dtype != np.float32:
            value = np.asarray(value, dtype=np.float64)
        if not np.isfinite(value).all():
            raise ModelError(f"{name} holds a NaN or infinite weight")
        setattr(model, name, value)


def encode_array(value):
    """JSON form of a float32 or float64 array: its dtype, shape and
    little-endian row-major bytes in base64."""
    dtype = "<f4" if value.dtype == np.float32 else "<f8"
    data = np.ascontiguousarray(value, dtype=dtype).tobytes()
    return {"dtype": dtype, "shape": list(value.shape),
            "data": base64.b64encode(data).decode("ascii")}


def decode_array(name, entry):
    """The array ``encode_array`` gave ``entry``, in native byte order;
    ModelError names ``name`` for another dtype, a bad shape or base64
    string, or a byte count that does not match the shape."""
    dtype = entry["dtype"]
    if dtype not in WEIGHT_DTYPES:
        raise ModelError(
            f"{name} has dtype {dtype!r}, not one of {WEIGHT_DTYPES}")
    shape = entry["shape"]
    if not (isinstance(shape, list)
            and all(is_integer(n) and n >= 0 for n in shape)):
        raise ModelError(f"{name} has shape {shape!r}, not a list of sizes")
    try:
        data = base64.b64decode(entry["data"], validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ModelError(f"{name} data is not a base64 string: {exc}") from None
    dtype = np.dtype(dtype)
    expected = math.prod(shape) * dtype.itemsize
    if len(data) != expected:
        raise ModelError(f"{name} holds {len(data)} bytes, its shape {shape} "
                         f"needs {expected}")
    return np.frombuffer(data, dtype=dtype).reshape(shape).astype(
        dtype.newbyteorder("="))


def save_weights(path, kind, model, **fields):
    """Write a self-describing JSON model file: ``kind``, the ``fields`` that
    are not None, and ``model.params()`` under "weights" in the form of
    ``encode_array``."""
    payload = {name: value for name, value in fields.items() if value is not None}
    payload.update(kind=kind, weights={name: encode_array(value) for name, value
                                       in model.params().items()})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_weights(path, kind, build):
    """``build(payload)`` of the JSON model file of ``kind`` at ``path``, with
    "weights" decoded to arrays; raises ModelError, naming ``path``, for a
    file that cannot be read or is not a complete, well-formed model of
    that kind."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("kind") == kind:
            payload["weights"] = {name: decode_array(name, entry) for name, entry
                                  in payload["weights"].items()}
            return build(payload)
    except OSError as exc:
        raise ModelError(f"{path}: cannot read {kind} model file: "
                         f"{exc.strerror}") from None
    except ModelError as exc:
        raise ModelError(f"{path} is not a valid {kind} model file: "
                         f"{exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path} is not a valid {kind} model file: "
                         f"{exc!r}") from exc
    raise ModelError(f"{path} is not a {kind} model file")
