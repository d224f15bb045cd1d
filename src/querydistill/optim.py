"""Adam with decoupled weight decay, on plain numpy arrays."""

import numpy as np


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
