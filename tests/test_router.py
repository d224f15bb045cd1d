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
from querydistill.router import (RouterModel, RouterTrainConfig, load_router,
                                 predict_entities, router_forward,
                                 router_loss_and_grads, save_router,
                                 select_top_k, train_router)


def zero_model(d=4, h=3, personas=("a", "b"), dropout=0.0, registry_hash="rh"):
    P = len(personas)
    return RouterModel(
        W1=np.zeros((d, h)), b1=np.zeros(h),
        W2=np.zeros((h, P)), b2=np.zeros(P),
        dropout_rate=dropout, persona_ids=personas, registry_hash=registry_hash)


class TestEmbedQuery:
    def test_builtin_deterministic(self):
        encoder = HashedNgramEmbedder(dim=64, seed=3)
        a = encoder.embed("french comedy movies")
        b = encoder.embed("french comedy movies")
        assert np.array_equal(a, b)

    def test_builtin_unit_norm(self):
        encoder = HashedNgramEmbedder(dim=64, seed=0)
        for text in ("a", "tom hanks", "a very long query about movies"):
            vec = encoder.embed(text)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-6


class TestRouterForward:
    def test_zero_weights_give_uniform(self):
        model = zero_model(personas=("a", "b", "c", "d"))
        relevance = router_forward(model, np.ones((2, 4)))
        assert np.allclose(relevance, 0.25)

    def test_softmax_simplex(self):
        rng = np.random.default_rng(0)
        model = RouterModel(
            W1=rng.normal(size=(6, 5)), b1=rng.normal(size=5),
            W2=rng.normal(size=(5, 3)), b2=rng.normal(size=3),
            dropout_rate=0.0, persona_ids=("a", "b", "c"), registry_hash="rh")
        relevance = router_forward(model, rng.normal(size=(5, 6)))
        assert np.allclose(relevance.sum(axis=1), 1.0, atol=1e-12)
        assert ((relevance > 0) & (relevance < 1)).all()

    def test_hand_evaluated_softmax(self):
        # logits forced to (ln 3, 0) via b2; e^ln3/(e^ln3+1) = 3/4
        model = zero_model(personas=("a", "b"))
        model.b2 = np.array([math.log(3.0), 0.0])
        relevance = router_forward(model, np.zeros((1, 4)))
        assert np.allclose(relevance, [[0.75, 0.25]], atol=1e-12)

    def test_inference_ignores_seed_and_dropout(self):
        rng = np.random.default_rng(1)
        model = RouterModel(
            W1=rng.normal(size=(6, 5)), b1=rng.normal(size=5),
            W2=rng.normal(size=(5, 3)), b2=rng.normal(size=3),
            dropout_rate=0.5, persona_ids=("a", "b", "c"), registry_hash="rh")
        emb = rng.normal(size=(3, 6))
        a = router_forward(model, emb, train_mode=False, seed=1)
        b = router_forward(model, emb, train_mode=False, seed=99)
        assert np.array_equal(a, b)
        trained = router_forward(model, emb, train_mode=True, seed=1)
        assert not np.array_equal(a, trained)

    def test_shape_mismatch(self):
        model = zero_model(d=4)
        for X in (np.ones((2, 5)), np.ones(4)):
            with pytest.raises(ModelError):
                router_forward(model, X)


class TestPredictEntities:
    def test_hand_arithmetic(self):
        scores = predict_entities([[0.5, 0.5]], [[[3, 0], [1, 2]]])
        assert np.allclose(scores, [[2 / 3, 1 / 3]])

    def test_one_hot_selects_row(self):
        values = np.array([[[3, 0], [1, 2]], [[3, 0], [1, 2]]])
        scores = predict_entities([[0.0, 1.0], [1.0, 0.0]], values)
        assert np.allclose(scores, np.array([[1, 2], [3, 0]]) / 3.0)

    def test_zero_matrix_zero_scores(self):
        scores = predict_entities([[0.3, 0.7]], np.zeros((1, 2, 2)))
        assert np.array_equal(scores, [[0.0, 0.0]])

    def test_linearity(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 4, size=(25, 2, 3))
        r1 = rng.dirichlet(np.ones(2), size=25)
        r2 = rng.dirichlet(np.ones(2), size=25)
        alpha = rng.random((25, 1))
        mixed = predict_entities(alpha * r1 + (1 - alpha) * r2, values)
        parts = (alpha * predict_entities(r1, values)
                 + (1 - alpha) * predict_entities(r2, values))
        assert np.allclose(mixed, parts, atol=1e-12)

    def test_shape_and_hash_guards(self):
        values = np.array([[[3, 0], [1, 2]]])
        for relevance in ([[1.0]], [0.5, 0.5], [[0.5, 0.5]] * 2):
            with pytest.raises(ModelError):
                predict_entities(relevance, values)

    def test_scores_stay_in_unit_interval(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 4, size=(25, 2, 4))
        scores = predict_entities(rng.dirichlet(np.ones(2), size=25), values)
        assert (scores >= -1e-12).all() and (scores <= 1 + 1e-12).all()

    def test_loss_scores_go_through_predict_entities(self, monkeypatch):
        # router_loss_and_grads routes its entity scores through this
        # function, so the checks above cover the scores training uses.
        model = zero_model(d=4, personas=("a", "b"))
        values = np.arange(12).reshape(2, 2, 3) % 4
        calls = []
        real = router_mod.predict_entities
        monkeypatch.setattr(router_mod, "predict_entities",
                            lambda *args: calls.append(args) or real(*args))
        router_loss_and_grads(model, np.ones((2, 4)), values,
                              np.zeros((2, 3)))
        assert len(calls) == 1 and calls[0][1] is values


class TestGradients:
    def fixed_instance(self, train_mode=False):
        # the standing gradient-check instance: d=8, h=4, P=3, E=5
        rng = np.random.default_rng(42)
        model = RouterModel(
            W1=rng.normal(scale=0.5, size=(8, 4)),
            b1=rng.normal(scale=0.5, size=4),
            W2=rng.normal(scale=0.5, size=(4, 3)),
            b2=rng.normal(scale=0.5, size=3),
            dropout_rate=0.25 if train_mode else 0.0,
            persona_ids=("a", "b", "c"), registry_hash="rh")
        X = rng.normal(size=(6, 8))
        M = rng.integers(0, 4, size=(6, 3, 5)).astype(float)
        Y = (rng.random(size=(6, 5)) < 0.4).astype(float)
        return model, X, M, Y

    def test_analytic_matches_finite_differences(self):
        model, X, M, Y = self.fixed_instance()
        _, analytic = router_loss_and_grads(model, X, M, Y)
        numeric = oracles.finite_difference_grads(
            model.params(),
            lambda: router_loss_and_grads(model, X, M, Y)[0],
            step=1e-4)
        assert oracles.max_relative_error(analytic, numeric) <= 1e-3

    def test_gradients_through_fixed_dropout_mask(self):
        model, X, M, Y = self.fixed_instance(train_mode=True)
        _, analytic = router_loss_and_grads(model, X, M, Y,
                                            train_mode=True, seed=5)
        numeric = oracles.finite_difference_grads(
            model.params(),
            lambda: router_loss_and_grads(model, X, M, Y,
                                          train_mode=True, seed=5)[0],
            step=1e-4)
        assert oracles.max_relative_error(analytic, numeric) <= 1e-3


class TestTrainRouter:
    def test_oracle_persona_wins_relevance(self):
        registry = synth.entity_registry(4)
        (X, M, Y), persona_ids = synth.router_dataset(
            240, registry, ("oracle", "random"), seed=13)
        config = RouterTrainConfig(hidden_dim=16, epochs=12, seed=7,
                                   dropout_rate=0.1)
        model, history = train_router(X[:200], M[:200], Y[:200], persona_ids,
                                      config, registry)
        mean = router_forward(model, X[200:]).mean(axis=0)
        assert mean[0] > mean[1]

    def test_loss_decreases_on_repeated_example(self):
        registry = synth.entity_registry(3)
        (X, M, Y), persona_ids = synth.router_dataset(
            1, registry, ("oracle", "random"), seed=3)
        repeated = [np.repeat(a, 8, axis=0) for a in (X, M, Y)]
        config = RouterTrainConfig(hidden_dim=8, epochs=10, seed=0,
                                   learning_rate=1e-3, dropout_rate=0.0)
        _, history = train_router(*repeated, persona_ids, config, registry)
        assert history[-1][2] < history[0][2]

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
        config = RouterTrainConfig(hidden_dim=8, epochs=2, batch_size=20)
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
        config = RouterTrainConfig(hidden_dim=8, epochs=3, batch_size=8,
                                   seed=5)
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
        config = RouterTrainConfig(hidden_dim=8, epochs=3, seed=11)
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
        config = RouterTrainConfig(hidden_dim=8, epochs=2, seed=1)
        model, _ = train_router(*data, persona_ids, config, registry)
        save_router(tmp_path / "router.json", model)
        loaded = load_router(tmp_path / "router.json")
        assert np.array_equal(loaded.W1, model.W1)
        assert loaded.persona_ids == model.persona_ids
        X = data[0]
        assert np.array_equal(router_forward(loaded, X),
                              router_forward(model, X))

    def test_malformed_file_raises_model_error(self, tmp_path):
        path = tmp_path / "router.json"
        save_router(path, zero_model())
        text = path.read_text()
        payload = json.loads(text)
        W1 = payload["weights"]["W1"]

        def with_W1(value):
            return json.dumps(dict(payload, weights=dict(payload["weights"],
                                                         W1=value)))

        for content in (text[:len(text) // 2], "", "[1, 2]",
                        json.dumps({"kind": "router"}),
                        json.dumps(dict(payload, weights=[])),
                        with_W1([[0.0], []]),  # the list form is not read
                        with_W1(dict(W1, data="not base64!")),
                        with_W1(dict(W1, data=W1["data"][:-8])),
                        with_W1(dict(W1, dtype="|O")),
                        with_W1(dict(W1, dtype=">f8")),
                        with_W1(dict(W1, shape=[4, -3])),
                        with_W1(dict(W1, data=None))):
            path.write_text(content)
            with pytest.raises(ModelError):
                load_router(path)


class TestLoadTimeChecks:
    @pytest.mark.parametrize("name", ["W1", "b1", "W2", "b2"])
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
        payload["weights"]["W1"]["dtype"] = ">f8"
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError) as refused:
            load_router(path)
        assert str(refused.value).startswith(
            f"{path} is not a valid router model file: W1 has dtype '>f8'")


class TestSelectTopK:
    def model_with_relevance(self, logits, personas):
        model = zero_model(personas=personas)
        model.b2 = np.array(logits, dtype=float)
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
        # The router of the ``synth`` config: 64 features, 32 hidden units.
        rng = np.random.default_rng(n)
        model = RouterModel(
            W1=rng.normal(size=(64, 32)), b1=rng.normal(size=32),
            W2=rng.normal(size=(32, 3)), b2=rng.normal(size=3),
            dropout_rate=0.1, persona_ids=("skeptic", "generalist", "enthusiast"),
            registry_hash="rh")
        X = rng.normal(size=(n + 40, 64))
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
    """A router, embeddings and (N, P, E) matrices. Weights are quarters and
    embeddings small integers, so every relevance logit is exact and exact
    ties survive both the batched and the per-row forward pass. ``ties``
    zeroes the output layer (every persona ties) or copies one persona's
    output column onto another."""
    P = draw(st.integers(1, len(_PERSONA_IDS)))
    N, E = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    d, h = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))

    def quarters(*shape):
        return rng.integers(-4, 5, size=shape) / 4.0

    W2, b2 = quarters(h, P), quarters(P)
    ties = draw(st.sampled_from(["none", "all", "copy"]))
    if ties == "all":
        W2[:], b2[:] = 0.0, 0.0
    elif ties == "copy" and P > 1:
        src, dst = draw(st.lists(st.integers(0, P - 1), min_size=2,
                                 max_size=2, unique=True))
        W2[:, dst], b2[dst] = W2[:, src], b2[src]
    registry = synth.entity_registry(E)
    model = RouterModel(W1=quarters(d, h), b1=quarters(h), W2=W2, b2=b2,
                        dropout_rate=0.0, persona_ids=_PERSONA_IDS[:P],
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
