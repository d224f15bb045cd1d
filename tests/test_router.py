import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import synthetic_helpers as synth
from querydistill import router as router_mod
from querydistill.errors import EmptyDatasetError, ModelError, NanLossError
from querydistill.features import HashedNgramEmbedder
from querydistill.optim import encode_array
from querydistill.personas import aggregate_ensemble, sample_personas
from querydistill.router import (BCE_EPS, TEMPERATURE, RouterModel,
                                 RouterTrainConfig, listwise_target,
                                 load_router, router_forward,
                                 router_loss_and_grads, save_router,
                                 select_top_k, train_router)


def zero_model(d=4, personas=("a", "b"), registry_hash="rh"):
    P = len(personas)
    return RouterModel(W=np.zeros((d, P)), b=np.zeros(P),
                       persona_ids=personas, registry_hash=registry_hash)


class TestRouterForward:
    def test_zero_weights_give_uniform(self):
        model = zero_model(personas=("a", "b", "c", "d"))
        relevance = router_forward(model, np.ones((2, 4)))
        assert np.allclose(relevance, 0.25)

    def test_softmax_simplex(self):
        rng = np.random.default_rng(0)
        model = RouterModel(W=rng.normal(size=(6, 3)), b=rng.normal(size=3),
                            persona_ids=("a", "b", "c"), registry_hash="rh")
        relevance = router_forward(model, rng.normal(size=(5, 6)))
        assert np.allclose(relevance.sum(axis=1), 1.0, atol=1e-12)
        assert ((relevance > 0) & (relevance < 1)).all()

    def test_hand_evaluated_softmax(self):
        # logits forced to (ln 3, 0) via b; e^ln3/(e^ln3+1) = 3/4
        model = zero_model(personas=("a", "b"))
        model.b = np.array([math.log(3.0), 0.0])
        relevance = router_forward(model, np.zeros((1, 4)))
        assert np.allclose(relevance, [[0.75, 0.25]], atol=1e-12)

    def test_shape_mismatch(self):
        model = zero_model(d=4)
        for X in (np.ones((2, 5)), np.ones(4)):
            with pytest.raises(ModelError):
                router_forward(model, X)

    def test_rows_score_alike_in_any_batch(self):
        # Each row is its own matrix-vector product, so a row's relevance
        # has the same bits alone, in a block or in the whole matrix.
        rng = np.random.default_rng(3)
        model = RouterModel(W=rng.normal(size=(512, 3)), b=rng.normal(size=3),
                            persona_ids=("a", "b", "c"), registry_hash="rh")
        X = rng.normal(size=(300, 512)).astype(np.float32)
        whole = router_forward(model, X)
        for rows in (slice(0, 1), slice(7, 8), slice(0, 257), slice(44, 300)):
            assert router_forward(model, X[rows]).tobytes() \
                == whole[rows].tobytes()

    def test_weight_shapes_checked(self):
        for W, b in ((np.zeros((4, 3)), np.zeros(2)),
                     (np.zeros((4, 2)), np.zeros(3)),
                     (np.zeros(4), np.zeros(2))):
            with pytest.raises(ModelError, match="do not match 2 personas"):
                RouterModel(W=W, b=b, persona_ids=("a", "b"),
                            registry_hash="rh")


class TestListwiseTarget:
    def test_hand_evaluated_target(self):
        # Persona a copies the gold at High, b inverts it: a's cost is
        # -log(1 - eps), b's is -log(eps), each the mean of two equal BCEs.
        target = listwise_target([[[3, 0], [0, 3]]], [[1.0, 0.0]])
        costs = np.array([-math.log1p(-BCE_EPS), -math.log(BCE_EPS)])
        weights = np.exp(-TEMPERATURE * (costs - costs.min()))
        assert np.allclose(target, [weights / weights.sum()], atol=1e-15)

    def test_equal_rows_give_uniform(self):
        target = listwise_target(np.full((2, 4, 3), 2), np.ones((2, 3)))
        assert np.allclose(target, 0.25, atol=1e-15)


class TestGradients:
    def fixed_instance(self):
        # the standing gradient-check instance: d=8, P=3, E=5, 6 rows
        rng = np.random.default_rng(42)
        model = RouterModel(
            W=rng.normal(scale=0.5, size=(8, 3)),
            b=rng.normal(scale=0.5, size=3),
            persona_ids=("a", "b", "c"), registry_hash="rh")
        X = rng.normal(size=(6, 8))
        M = rng.integers(0, 4, size=(6, 3, 5)).astype(float)
        Y = (rng.random(size=(6, 5)) < 0.4).astype(float)
        return model, X, M, Y

    def test_no_gradient_when_relevance_is_the_target(self):
        # With zero features the relevance is softmax(b); setting b to the
        # log of the target makes R = T, so dZ = (R - T) / B vanishes.
        M = np.array([[[3, 0, 2], [0, 3, 1], [1, 1, 1]]])
        Y = np.array([[1.0, 0.0, 1.0]])
        target = listwise_target(M, Y)
        model = zero_model(d=4, personas=("a", "b", "c"))
        model.b = np.log(target[0])
        loss, grads = router_loss_and_grads(model, np.zeros((1, 4)), target)
        assert np.allclose(grads["b"], 0.0, atol=1e-12)
        assert np.array_equal(grads["W"], np.zeros((4, 3)))
        assert np.isclose(loss, -(target * np.log(target)).sum())

    def test_analytic_matches_finite_differences(self):
        model, X, M, Y = self.fixed_instance()
        T = listwise_target(M, Y)
        _, analytic = router_loss_and_grads(model, X, T)
        numeric = oracles.finite_difference_grads(
            model.params(),
            lambda: router_loss_and_grads(model, X, T)[0],
            step=1e-4)
        assert oracles.max_relative_error(analytic, numeric) <= 1e-3


class TestTrainRouter:
    def test_oracle_persona_wins_relevance(self):
        registry = synth.entity_registry(4)
        (X, M, Y), persona_ids = synth.router_dataset(
            240, registry, ("oracle", "random"), seed=13)
        config = RouterTrainConfig(epochs=12, seed=7)
        model, history = train_router(X[:200], M[:200], Y[:200], persona_ids,
                                      config, registry)
        mean = router_forward(model, X[200:]).mean(axis=0)
        assert mean[0] > mean[1]

    def test_loss_decreases_on_repeated_example(self):
        registry = synth.entity_registry(3)
        (X, M, Y), persona_ids = synth.router_dataset(
            1, registry, ("oracle", "random"), seed=3)
        repeated = [np.repeat(a, 8, axis=0) for a in (X, M, Y)]
        config = RouterTrainConfig(epochs=10, seed=0, learning_rate=1e-3)
        _, history = train_router(*repeated, persona_ids, config, registry)
        assert history[-1][2] < history[0][2]

    def test_persona_wrong_for_one_entity_ranks_last(self):
        # Entity e is gold iff the query holds its cue word. "exact" copies
        # the gold at High, "medium" at Medium, and "blind" at High but
        # never marks entity 0. On the held-out queries that carry entity
        # 0, "blind" is the worst persona, and the gate ranks it last.
        registry = synth.entity_registry(3)
        rng = np.random.default_rng(5)
        cues = ["christmas", "comedy", "football"]
        filler = ["movies", "show", "tonight", "best", "new", "watch",
                  "series", "free"]
        texts, Y = [], []
        for _ in range(300):
            gold = rng.random(3) < 0.4
            words = ([cue for cue, g in zip(cues, gold) if g]
                     + rng.choice(filler, 2).tolist())
            rng.shuffle(words)
            texts.append(" ".join(words))
            Y.append(gold)
        Y = np.array(Y)
        X = HashedNgramEmbedder(dim=128, seed=0).encode_batch(texts)
        blind = 3 * Y
        blind[:, 0] = 0
        M = np.stack([3 * Y, 2 * Y, blind], axis=1)
        config = RouterTrainConfig(epochs=20, learning_rate=0.01, seed=3)
        model, _ = train_router(X[:200], M[:200], Y[:200],
                                ("exact", "medium", "blind"), config, registry)
        carry = Y[200:, 0]
        assert carry.sum() >= 20
        last = select_top_k(model, X[200:], 3)[:, -1]
        assert (last[carry] == 2).all()

    def test_empty_dataset_rejected(self):
        registry = synth.entity_registry(3)
        with pytest.raises(EmptyDatasetError):
            train_router(np.zeros((0, 4)), np.zeros((0, 2, 3)),
                         np.zeros((0, 3)), ("a", "b"), RouterTrainConfig(),
                         registry)

    def test_nan_target_raises_at_first_batch(self):
        registry = synth.entity_registry(3)
        (X, M, Y), persona_ids = synth.router_dataset(
            20, registry, ("oracle", "random"), seed=4)
        Y = Y.astype(float)
        Y[0, 0] = np.nan
        config = RouterTrainConfig(epochs=2, batch_size=20)
        with pytest.raises(NanLossError, match="router") as info:
            train_router(X, M, Y, persona_ids, config, registry)
        assert (info.value.epoch, info.value.batch) == (0, 0)

    def test_train_rows_equal_training_on_the_copied_split(self):
        # A pipeline run passes its whole features, int8 levels and
        # boolean gold with the split's train rows; each minibatch gathers
        # its rows, and the model and history are those of training on
        # float64 copies.
        registry = synth.entity_registry(4)
        (X, M, Y), persona_ids = synth.router_dataset(
            60, registry, ("oracle", "random"), seed=8)
        rows = np.random.default_rng(1).permutation(len(X))[:45]
        config = RouterTrainConfig(epochs=3, batch_size=8, seed=5)
        model_a, hist_a = train_router(X, M.astype(np.int8), Y, persona_ids,
                                       config, registry, rows=rows.tolist())
        model_b, hist_b = train_router(
            *(np.asarray(a[rows], dtype=float) for a in (X, M, Y)),
            persona_ids, config, registry)
        assert hist_a == hist_b
        for name, value in model_b.params().items():
            assert model_a.params()[name].tobytes() == value.tobytes()

    def test_training_is_deterministic_and_files_identical(self, tmp_path):
        registry = synth.entity_registry(3)
        data, persona_ids = synth.router_dataset(
            40, registry, ("oracle", "random"), seed=2)
        config = RouterTrainConfig(epochs=3, seed=11)
        model_a, hist_a = train_router(*data, persona_ids, config, registry)
        model_b, hist_b = train_router(*data, persona_ids, config, registry)
        assert hist_a == hist_b
        save_router(tmp_path / "a.json", model_a, loss_history=hist_a)
        save_router(tmp_path / "b.json", model_b, loss_history=hist_b)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_save_load_round_trip(self, tmp_path):
        registry = synth.entity_registry(3)
        data, persona_ids = synth.router_dataset(
            20, registry, ("oracle", "random"), seed=5)
        config = RouterTrainConfig(epochs=2, seed=1)
        model, _ = train_router(*data, persona_ids, config, registry)
        save_router(tmp_path / "router.json", model)
        loaded = load_router(tmp_path / "router.json")
        assert np.array_equal(loaded.W, model.W)
        assert loaded.persona_ids == model.persona_ids
        X = data[0]
        assert np.array_equal(router_forward(loaded, X),
                              router_forward(model, X))

    def test_malformed_file_raises_model_error(self, tmp_path):
        path = tmp_path / "router.json"
        save_router(path, zero_model())
        text = path.read_text()
        payload = json.loads(text)
        W = payload["weights"]["W"]

        def with_W(value):
            return json.dumps(dict(payload, weights=dict(payload["weights"],
                                                         W=value)))

        for content in (text[:len(text) // 2], "", "[1, 2]",
                        json.dumps({"kind": "router"}),
                        json.dumps(dict(payload, weights=[])),
                        with_W([[0.0], []]),  # the list form is not read
                        with_W(dict(W, data="not base64!")),
                        with_W(dict(W, data=W["data"][:-8])),
                        with_W(dict(W, dtype="|O")),
                        with_W(dict(W, dtype=">f8")),
                        with_W(dict(W, shape=[4, -3])),
                        with_W(dict(W, data=None))):
            path.write_text(content)
            with pytest.raises(ModelError):
                load_router(path)


class TestLoadTimeChecks:
    @pytest.mark.parametrize("name", ["W", "b"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_weight_rejected(self, tmp_path, name, value):
        model = zero_model()
        bad = getattr(model, name).copy()
        bad.flat[-1] = value
        with pytest.raises(ModelError, match=name):
            dataclasses.replace(model, **{name: bad})
        path = tmp_path / "router.json"
        save_router(path, model)
        payload = json.loads(path.read_text())
        payload["weights"][name] = encode_array(bad)
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError, match=name):
            load_router(path)

    def test_refusal_names_the_file(self, tmp_path):
        path = tmp_path / "router.json"
        save_router(path, zero_model())
        payload = json.loads(path.read_text())
        payload["weights"]["W"]["dtype"] = ">f8"
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError) as refused:
            load_router(path)
        assert str(refused.value).startswith(
            f"{path} is not a valid router model file: W has dtype '>f8'")

    def test_two_layer_router_file_refused_naming_the_file(self, tmp_path):
        # A router.json of the two-layer network that the gate replaced.
        path = tmp_path / "router.json"
        save_router(path, zero_model())
        payload = json.loads(path.read_text())
        payload["weights"] = {
            "W1": encode_array(np.zeros((4, 3))), "b1": encode_array(np.zeros(3)),
            "W2": encode_array(np.zeros((3, 2))), "b2": encode_array(np.zeros(2))}
        payload.update(h=3, dropout_rate=0.1)
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError) as refused:
            load_router(path)
        assert str(refused.value).startswith(
            f"{path} is not a valid router model file: it holds the two-layer "
            f"router")


class TestSelectTopK:
    def model_with_relevance(self, logits, personas):
        model = zero_model(personas=personas)
        model.b = np.array(logits, dtype=float)
        return model

    def top_ids(self, model, k):
        """Persona ids that select_top_k picks for one zero embedding."""
        rows = select_top_k(model, np.zeros((1, 4)), k)
        assert rows.shape == (1, k)
        return [model.persona_ids[row] for row in rows[0]]

    def test_argmax_ordering(self):
        model = self.model_with_relevance([0.2, 0.5, 0.3], ("p0", "p1", "p2"))
        assert self.top_ids(model, 2) == ["p1", "p2"]

    def test_full_selection_sorted(self):
        model = self.model_with_relevance([0.1, 0.9, 0.5], ("p0", "p1", "p2"))
        assert self.top_ids(model, 3) == ["p1", "p2", "p0"]

    def test_tie_breaks_lexicographically(self):
        model = self.model_with_relevance([1.0, 1.0], ("zeta", "alpha"))
        assert self.top_ids(model, 1) == ["alpha"]

    def test_k_out_of_range(self):
        model = self.model_with_relevance([0.0, 0.0], ("a", "b"))
        with pytest.raises(ModelError):
            select_top_k(model, np.zeros((1, 4)), 0)
        with pytest.raises(ModelError):
            select_top_k(model, np.zeros((1, 4)), 3)

    def test_invariant_under_increasing_logit_transform(self):
        rng = np.random.default_rng(9)
        personas = ("a", "b", "c", "d")
        for transform in (lambda z: 2.0 * z + 1.0,
                          lambda z: z ** 3,
                          lambda z: np.exp(z)):
            logits = rng.normal(size=4)
            base = self.model_with_relevance(logits, personas)
            transformed = self.model_with_relevance(transform(logits), personas)
            for k in (1, 2, 4):
                assert self.top_ids(base, k) == self.top_ids(transformed, k)


class TestBlockedSelection:
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 259, 513, 2049])
    def test_blocks_equal_one_forward_bit_for_bit(self, n, monkeypatch):
        # The gate of the ``synth`` config over its float32 features: 512
        # columns, 3 personas.
        rng = np.random.default_rng(n)
        model = RouterModel(
            W=rng.normal(size=(512, 3)), b=rng.normal(size=3),
            persona_ids=("skeptic", "generalist", "enthusiast"),
            registry_hash="rh")
        X = rng.normal(size=(n + 40, 512)).astype(np.float32)
        rows = rng.permutation(len(X))[:n]
        id_rank = np.argsort(np.argsort(model.persona_ids))
        blocks = []

        def recording(model, X):
            blocks.append(router_forward(model, X))
            return blocks[-1]

        monkeypatch.setattr(router_mod, "router_forward", recording)
        for embeddings in (X[:n], X[rows]):
            blocks.clear()
            chosen = select_top_k(model, embeddings, 2)
            relevance = router_forward(model, embeddings)
            assert np.concatenate(blocks).tobytes() == relevance.tobytes()
            expected = np.lexsort((np.broadcast_to(id_rank, relevance.shape),
                                   -relevance), axis=-1)[:, :2]
            assert chosen.tobytes() == expected.tobytes()


# Persona ids whose sorted order differs from their column order.
_PERSONA_IDS = ("zeta", "alpha", "mu", "beta", "omega")


@st.composite
def _routed_batches(draw):
    """A gate, features and (N, P, E) matrices. Weights are quarters and
    features small integers, so every relevance logit is exact and exact
    ties survive both the batched and the per-row forward pass. ``ties``
    zeroes the weights (every persona ties) or copies one persona's
    column onto another."""
    P = draw(st.integers(1, len(_PERSONA_IDS)))
    N, E = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))

    def quarters(*shape):
        return rng.integers(-4, 5, size=shape) / 4.0

    W, b = quarters(d, P), quarters(P)
    ties = draw(st.sampled_from(["none", "all", "copy"]))
    if ties == "all":
        W[:], b[:] = 0.0, 0.0
    elif ties == "copy" and P > 1:
        src, dst = draw(st.lists(st.integers(0, P - 1), min_size=2,
                                 max_size=2, unique=True))
        W[:, dst], b[dst] = W[:, src], b[src]
    registry = synth.entity_registry(E)
    model = RouterModel(W=W, b=b, persona_ids=_PERSONA_IDS[:P],
                        registry_hash=registry.hash)
    values = rng.integers(0, 4, size=(N, P, E))
    if draw(st.booleans()):
        values[:] = 0
    k = draw(st.sampled_from(sorted({1, P, draw(st.integers(1, P))})))
    threshold = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]))
    return (model, rng.integers(-3, 4, size=(N, d)).astype(float), values, k,
            registry, threshold)


class TestBatchedSelection:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(batch=_routed_batches())
    def test_router_selection_and_aggregation_match_per_query(self, batch):
        model, X, values, k, registry, threshold = batch
        chosen = select_top_k(model, X, k)
        levels = aggregate_ensemble(values, chosen, threshold)
        ids, expected = oracles.per_query_router_ensemble(
            model, X, values, k, threshold)
        assert [[model.persona_ids[j] for j in row]
                for row in chosen.tolist()] == ids
        assert levels.tolist() == expected.tolist()
        # The tie rule: descending relevance, then ascending persona id.
        for relevance, row in zip(router_forward(model, X), ids):
            ranked = sorted(zip(model.persona_ids, relevance),
                            key=lambda item: (-item[1], item[0]))
            assert row == [pid for pid, _ in ranked[:k]]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(batch=_routed_batches(), extra=st.integers(0, 1),
           seed=st.integers(0, 99))
    def test_random_selection_and_aggregation_match_per_query(
            self, batch, extra, seed):
        model, _, values, k, registry, threshold = batch
        query_ids = [f"q{i}" for i in range(len(values))]
        chosen = sample_personas(query_ids, model.persona_count, k + extra,
                                 seed)
        levels = aggregate_ensemble(values, chosen, threshold)
        ids, expected = oracles.per_query_random_ensemble(
            query_ids, model.persona_ids, values, k + extra, seed, threshold)
        assert [sorted(model.persona_ids[j] for j in row)
                for row in chosen.tolist()] == ids
        assert levels.tolist() == expected.tolist()

    def test_embedding_width_checked(self):
        with pytest.raises(ModelError):
            select_top_k(zero_model(d=4), np.zeros((2, 5)), 1)
