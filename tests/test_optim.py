import types

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from querydistill.optim import AdamW, check_weights


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 30),
       weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
       learning_rate=st.sampled_from([1e-5, 1e-3, 0.5]))
def test_step_matches_allocating_oracle_bit_for_bit(seed, steps, weight_decay,
                                                    learning_rate):
    rng = np.random.default_rng(seed)
    shapes = {"W": (3, 5, 4), "b": (4,)}
    ours = {k: rng.normal(size=s) for k, s in shapes.items()}
    reference = {k: v.copy() for k, v in ours.items()}
    optimizer = AdamW(ours, learning_rate, weight_decay=weight_decay,
                      decay_params=("W",))
    state = {"t": 0, "m": {k: np.zeros(s) for k, s in shapes.items()},
             "v": {k: np.zeros(s) for k, s in shapes.items()}}
    for _ in range(steps):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-9, 4)
                 for k, s in shapes.items()}
        optimizer.step(grads)
        oracles.allocating_adamw_step(
            state, reference, grads, learning_rate, weight_decay,
            0.9, 0.999, 1e-8, ("W",))
    for name in shapes:
        assert ours[name].tobytes() == reference[name].tobytes()


def test_check_weights_keeps_float32_and_makes_the_rest_float64():
    model = types.SimpleNamespace(
        a=np.ones(2, dtype=np.float32), b=np.ones(2, dtype=np.float16),
        c=[[1, 2]], d=np.ones(2, dtype=np.int64))
    model.params = lambda: {k: getattr(model, k) for k in "abcd"}
    check_weights(model)
    assert [model.params()[k].dtype for k in "abcd"] == [
        np.float32, np.float64, np.float64, np.float64]

