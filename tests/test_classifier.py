import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import ann
from querydistill.annotations import Annotation, Confidence
import querydistill
from querydistill.classifier import (ClassifierModel, ClassifierTrainConfig,
                                     MATCH_PRECISION,
                                     MATCH_RECALL, MAX_F1, ThresholdChoice,
                                     apply_thresholds,
                                     classifier_loss_and_grads, heads_forward,
                                     labeled_queries, load_classifier,
                                     predict_probs,
                                     predict_probs_batch, save_classifier,
                                     set_thresholds, stable_bce, _sigmoid,
                                     _sweep,
                                     train_classifier, tune_threshold_for_entity,
                                     tune_thresholds, weak_labels_from_annotations)
from querydistill.errors import EmptyDatasetError, ModelError, NanLossError
from querydistill.features import BLOCK_ROWS, HashedNgramEmbedder
from querydistill.optim import AdamW, encode_array
from querydistill.router import RouterTrainConfig
from querydistill.data import QueryRecord, query_id
from querydistill.synth import synth_gazetteer, synth_queries, synth_registry


def random_model(D=16, E=3, seed=0, backend_seed=0):
    rng = np.random.default_rng(seed)
    return ClassifierModel(
        backend_descriptor={"kind": "hashed_ngram", "dim": D, "seed": backend_seed},
        entity_ids=tuple(f"E{i}" for i in range(E)),
        W=rng.normal(scale=0.4, size=(D, E)),
        b=rng.normal(scale=0.4, size=E),
        thresholds=np.full(E, 0.5),
        registry_hash="rh")


class TestWeakLabels:
    def test_high_filter(self, tiny_registry):
        labels = weak_labels_from_annotations(
            tiny_registry, {"q1": ann(Genre="High", Sport="Low")},
            Confidence.HIGH)
        assert labels.dtype == bool
        assert labels.tolist() == [[True, False, False]]

    def test_low_filter_includes_all(self, tiny_registry):
        labels = weak_labels_from_annotations(
            tiny_registry, {"q1": ann(Genre="High", Sport="Low")},
            Confidence.LOW)
        assert labels.tolist() == [[True, True, False]]

    def test_empty_annotation_is_zero_row(self, tiny_registry):
        labels = weak_labels_from_annotations(
            tiny_registry, {"q1": Annotation()}, Confidence.LOW)
        assert labels.tolist() == [[False, False, False]]

    def test_rows_follow_store_order(self, tiny_registry):
        labels = weak_labels_from_annotations(
            tiny_registry, {"zz": ann(Sport="High"), "aa": ann(Genre="High")},
            Confidence.HIGH)
        assert labels.tolist() == [[False, True, False], [True, False, False]]


def records_of(*query_ids):
    return [QueryRecord(id=qid, text=qid, frequency=1) for qid in query_ids]


class TestLabeledQueries:
    def test_rows_follow_records(self, tiny_registry):
        store = {"zz": ann(Sport="High"), "aa": ann(Genre="High", Sport="Low")}
        rows = labeled_queries(records_of("zz", "aa", "zz"), store,
                               tiny_registry, Confidence.HIGH)
        assert rows.dtype == np.float32
        assert rows.tolist() == [[0, 1, 0], [1, 0, 0], [0, 1, 0]]
        rows = labeled_queries(records_of("aa"), store, tiny_registry,
                               Confidence.LOW)
        assert rows.tolist() == [[1, 1, 0]]

    def test_missing_label_rejected_with_count(self, tiny_registry):
        with pytest.raises(ModelError, match="^2 records have no weak label$"):
            labeled_queries(records_of("aa", "bb", "cc"),
                            {"aa": ann(Genre="High")}, tiny_registry,
                            Confidence.HIGH)


class TestStableBce:
    def test_matches_naive_form_where_it_is_accurate(self):
        # beyond |z| ~ 16 the naive form is finite but already carries more
        # than 1e-9 of its own rounding error (1 - sigmoid cancels), so the
        # comparison oracle is only valid on the well-conditioned range
        rng = np.random.default_rng(4)
        z = rng.uniform(-15, 15, size=500)
        y = (rng.random(500) < 0.5).astype(float)
        sigma = 1.0 / (1.0 + np.exp(-z))
        naive = -(y * np.log(sigma) + (1 - y) * np.log(1 - sigma))
        assert np.isfinite(naive).all()
        assert np.max(np.abs(stable_bce(z, y) - naive)) < 1e-9

    def test_no_overflow_for_extreme_logits(self):
        extreme = stable_bce(np.array([1e4, -1e4]), np.array([0.0, 1.0]))
        assert np.isfinite(extreme).all()
        assert np.allclose(extreme, [1e4, 1e4])


_EDGE_LOGITS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45,
                88.7, -88.7, 3e38, -3e38]


class TestSigmoid:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(z=st.sampled_from([np.float32, np.float64]).flatmap(
        lambda dtype: hnp.arrays(dtype, hnp.array_shapes(max_dims=2,
                                                         max_side=12))))
    @example(z=np.array(_EDGE_LOGITS, dtype=np.float32))
    @example(z=np.array(_EDGE_LOGITS, dtype=np.float64))
    @example(z=np.linspace(-120, 120, 100001, dtype=np.float32))
    def test_equals_masked_form_bit_for_bit(self, z):
        out = _sigmoid(z)
        assert out.dtype == z.dtype and out.shape == z.shape
        assert out.tobytes() == oracles.masked_sigmoid(z).tobytes()


class TestGradients:
    @pytest.mark.parametrize("fractional", [False, True],
                             ids=["indicator", "fractional"])
    def test_heads_match_finite_differences(self, fractional):
        # the standing instance: D=16, E=3, on 0/1 targets or on
        # probabilistic targets strictly inside (0, 1)
        model = random_model(D=16, E=3, seed=21)
        rng = np.random.default_rng(22)
        X = rng.normal(size=(5, 16))
        Y = (rng.uniform(0.05, 0.95, size=(5, 3)) if fractional
             else (rng.random((5, 3)) < 0.5).astype(float))
        _, analytic = classifier_loss_and_grads(model, X, Y)
        numeric = oracles.finite_difference_grads(
            model.params(),
            lambda: classifier_loss_and_grads(model, X, Y)[0],
            step=1e-4)
        assert oracles.max_relative_error(analytic, numeric) <= 1e-3

    @settings(derandomize=True, deadline=None)
    @given(B=st.integers(1, 40), E=st.integers(1, 12), D=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_heads_match_einsum_oracle(self, B, E, D, seed):
        model = random_model(D=D, E=E, seed=seed)
        rng = np.random.default_rng(seed + 1)
        X = rng.normal(size=(B, D))
        Y = (rng.random((B, E)) < 0.5).astype(float)
        logits = heads_forward(model, X)
        np.testing.assert_allclose(
            logits, oracles.einsum_heads_forward(model.params(), X),
            rtol=1e-12, atol=1e-15)
        _, grads = classifier_loss_and_grads(model, X, Y)
        expected = oracles.einsum_heads_grads(model.params(), X, Y)
        assert grads.keys() == expected.keys()
        for name in expected:
            assert grads[name].shape == expected[name].shape
            np.testing.assert_allclose(grads[name], expected[name],
                                       rtol=1e-12, atol=1e-15, err_msg=name)


def make_corpus(n, seed, entities=None):
    """Separable synthetic corpus with its gold {query_id: Annotation}."""
    gazetteer = synth_gazetteer(entities=entities)
    registry = synth_registry(entities=entities)
    records, gold = synth_queries(gazetteer, n, seed=seed)
    return registry, records, gold


def arrays(encoder, records, gold, registry):
    """The (features, label rows) of ``records``: the array API's inputs."""
    return (encoder.encode_batch([r.text for r in records]),
            labeled_queries(records, gold, registry, Confidence.HIGH))


def no_rows(D, E):
    """Empty (features, labels): no dev set."""
    return np.zeros((0, D)), np.zeros((0, E))


class TestTrainClassifier:
    def test_separable_data_reaches_dev_f1(self):
        registry, records, gold = make_corpus(
            800, seed=10, entities=["Genre", "Sport", "Holiday", "AudioLanguage"])
        split = int(len(records) * 0.8)
        encoder = HashedNgramEmbedder(dim=512, seed=0)
        config = ClassifierTrainConfig(epochs=30, seed=0, patience=30)
        model, history = train_classifier(
            *arrays(encoder, records[:split], gold, registry),
            *arrays(encoder, records[split:], gold, registry),
            config, registry, encoder)
        best_dev_f1 = max(h[2] for h in history)
        assert best_dev_f1 >= 0.95
        assert len(history) <= 30

    def test_zero_learning_rate_leaves_parameters_bitwise(self):
        registry, records, gold = make_corpus(40, seed=3)
        encoder = HashedNgramEmbedder(dim=64, seed=0)
        config = ClassifierTrainConfig(epochs=1, learning_rate=0.0, seed=5)
        model, _ = train_classifier(
            *arrays(encoder, records[:30], gold, registry),
            *arrays(encoder, records[30:], gold, registry),
            config, registry, encoder)
        from querydistill.classifier import _init_classifier
        fresh = _init_classifier(encoder, registry.ids, registry.hash, config)
        for key, value in model.params().items():
            assert value.tobytes() == fresh.params()[key].tobytes()

    def test_all_zero_entity_never_predicted(self):
        registry, records, gold = make_corpus(200, seed=6)
        encoder = HashedNgramEmbedder(dim=128, seed=0)
        X, Y = arrays(encoder, records, gold, registry)
        Y[:, 0] = 0.0
        config = ClassifierTrainConfig(epochs=8, seed=1)
        model, _ = train_classifier(X, Y, *no_rows(128, len(registry)),
                                    config, registry, encoder)
        probs = predict_probs_batch(model, X)
        assert (probs[:, 0] < 0.5).all()

    def test_empty_train_rejected(self, tiny_registry):
        with pytest.raises(EmptyDatasetError):
            train_classifier(*no_rows(8, 3), *no_rows(8, 3),
                             ClassifierTrainConfig(), tiny_registry,
                             HashedNgramEmbedder(dim=8))

    def test_feature_and_label_rows_must_pair(self):
        registry, records, gold = make_corpus(40, seed=3)
        encoder = HashedNgramEmbedder(dim=64, seed=0)
        X, Y = arrays(encoder, records, gold, registry)
        config = ClassifierTrainConfig(epochs=1, seed=1)
        for args in ((X, Y[1:], X, Y), (X, Y, X[1:], Y)):
            with pytest.raises(ModelError, match="row count"):
                train_classifier(*args, config, registry, encoder)

    def test_train_rows_equal_training_on_the_copied_split(self):
        # A pipeline run passes its whole float32 features and boolean
        # labels with the split's train rows; each minibatch gathers its
        # rows, and the model and history are those of training on copies.
        registry, records, gold = make_corpus(120, seed=4)
        encoder = HashedNgramEmbedder(dim=64, seed=0)
        X, Y = arrays(encoder, records, gold, registry)
        X, Y = X.astype(np.float32), Y > 0.5
        order = np.random.default_rng(0).permutation(len(X))
        train, dev = order[:90], order[90:]
        config = ClassifierTrainConfig(epochs=4, batch_size=16, seed=3)
        by_rows = train_classifier(X, Y, X[dev], Y[dev], config, registry,
                                   encoder, rows=train.tolist())
        copied = train_classifier(X[train], Y[train].astype(np.float32),
                                  X[dev], Y[dev], config, registry, encoder)
        assert by_rows[1] == copied[1]
        for name, value in copied[0].params().items():
            assert by_rows[0].params()[name].tobytes() == value.tobytes()

    def test_reproducible_model_files(self, tmp_path):
        registry, records, gold = make_corpus(80, seed=9)
        encoder = HashedNgramEmbedder(dim=64, seed=0)
        train = arrays(encoder, records[:60], gold, registry)
        dev = arrays(encoder, records[60:], gold, registry)
        config = ClassifierTrainConfig(epochs=3, seed=2)
        for name in ("a", "b"):
            model, history = train_classifier(*train, *dev, config, registry,
                                              encoder)
            save_classifier(tmp_path / f"{name}.json", model, history=history)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_nan_target_raises_at_first_batch(self):
        registry, records, gold = make_corpus(40, seed=3)
        encoder = HashedNgramEmbedder(dim=64, seed=0)
        X_train, nan_labels = arrays(encoder, records[:30], gold, registry)
        nan_labels[0, 0] = np.nan
        config = ClassifierTrainConfig(epochs=2, batch_size=len(X_train), seed=1)
        with pytest.raises(NanLossError, match="classifier") as info:
            train_classifier(X_train, nan_labels,
                             *arrays(encoder, records[30:], gold, registry),
                             config, registry, encoder)
        assert (info.value.epoch, info.value.batch) == (0, 0)

    def test_early_stop_returns_best_dev_epoch(self):
        registry, records, gold = make_corpus(
            200, seed=10, entities=["Genre", "Sport", "Holiday", "AudioLanguage"])
        encoder = HashedNgramEmbedder(dim=128, seed=0)
        X_dev, Y_dev = arrays(encoder, records[160:], gold, registry)
        config = ClassifierTrainConfig(epochs=40, patience=2, seed=0)
        model, history = train_classifier(
            *arrays(encoder, records[:160], gold, registry), X_dev, Y_dev,
            config, registry, encoder)
        dev_f1 = [row[2] for row in history]
        best_epoch = dev_f1.index(max(dev_f1))
        assert 0 < best_epoch and len(history) < config.epochs
        assert len(history) == best_epoch + 1 + config.patience
        pred = predict_probs_batch(model, X_dev) >= 0.5
        gold = Y_dev > 0.5
        tp, fp, fn = ((pred & gold).sum(), (pred & ~gold).sum(),
                      (~pred & gold).sum())
        assert 2 * tp / (2 * tp + fp + fn) == max(dev_f1)

    def test_learning_rate_resolution(self):
        # The linear student defaults to 0.1 and the router to 1e-3; an
        # explicit rate is kept as given.
        assert ClassifierTrainConfig().learning_rate == 0.1
        assert RouterTrainConfig().learning_rate == 1e-3
        assert ClassifierTrainConfig(learning_rate=1e-5).learning_rate == 1e-5


class TestPredict:
    def test_zero_weights_give_half(self):
        model = random_model(D=8, E=3, seed=0)
        for key, value in model.params().items():
            value[...] = 0.0
        backend = HashedNgramEmbedder(dim=8, seed=0)
        probs = predict_probs(model, "anything", backend=backend)
        assert np.allclose(probs, 0.5)

    def test_probabilities_in_unit_interval(self):
        model = random_model(D=16, E=4, seed=3)
        backend = HashedNgramEmbedder(dim=16, seed=0)
        for text in ("comedy", "french movies", "a"):
            probs = predict_probs(model, text, backend=backend)
            assert ((probs > 0) & (probs < 1)).all()

    def test_overfit_single_batch_ranks_gold_first(self):
        registry, records, gold = make_corpus(8, seed=12)
        encoder = HashedNgramEmbedder(dim=128, seed=0)
        X, Y = arrays(encoder, records, gold, registry)
        config = ClassifierTrainConfig(epochs=120, seed=0, batch_size=8,
                                       weight_decay=0.0)
        model, _ = train_classifier(X, Y, *no_rows(128, len(registry)),
                                    config, registry, encoder)
        row = 0
        probs = predict_probs(model, records[row].text, backend=encoder)
        gold_mask = Y[row] > 0.5
        assert gold_mask.any() and (~gold_mask).any()
        assert probs[gold_mask].min() > probs[~gold_mask].max()

    def test_monotone_in_output_bias(self):
        rng = np.random.default_rng(14)
        model = random_model(D=16, E=3, seed=7)
        X = HashedNgramEmbedder(dim=16, seed=0).encode_batch(
            ["comedy movies", "football games", "french films"])
        base = predict_probs_batch(model, X)
        model.b = model.b + np.array([0.5, 1.0, 2.0])
        bumped = predict_probs_batch(model, X)
        assert (bumped >= base).all()


def production_model(dtype=np.float32, E=22, D=512, seed=0):
    """``random_model`` with 22 entities and 512 features, in ``dtype``."""
    model = random_model(D=D, E=E, seed=seed)
    return dataclasses.replace(model, **{
        name: value.astype(dtype) for name, value in model.params().items()})


class TestBlockedScoring:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 259, 513, 2049])
    def test_blocks_equal_one_forward_bit_for_bit(self, n, dtype):
        model = production_model(dtype)
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n + 40, 512)).astype(np.float32)
        rows = rng.permutation(len(X))[:n]
        for probs, oracle in ((predict_probs_batch(model, X[:n]), X[:n]),
                              (predict_probs_batch(model, X, rows), X[rows]),
                              (predict_probs_batch(model, X, list(rows)),
                               X[rows])):
            expected = _sigmoid(heads_forward(model, oracle))
            assert probs.dtype == expected.dtype == dtype
            assert probs.tobytes() == expected.tobytes()

    def test_no_rows_give_an_empty_array(self):
        model = production_model()
        X = np.ones((3, 512), np.float32)
        assert predict_probs_batch(model, X, []).shape == (0, 22)
        assert predict_probs_batch(model, X[:0]).shape == (0, 22)

    def test_peak_memory_is_output_and_one_block(self):
        # One block's gathered (rows, D) features are held at a time; one
        # forward over all 2,049 shuffled rows would gather 4.2 MB of them.
        model = production_model()
        X = np.random.default_rng(0).normal(size=(2049, 512)).astype(np.float32)
        block = BLOCK_ROWS * X.shape[1] * 4
        for rows in (None, np.arange(len(X))[::-1]):
            tracemalloc.start()
            try:
                probs = predict_probs_batch(model, X, rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < probs.nbytes + 3 * block


class TestApplyThresholds:
    def test_selection(self):
        model = random_model(E=2)
        model.thresholds = np.array([0.5, 0.5])
        assert apply_thresholds(model, [0.7, 0.2]) == {"E0"}

    def test_near_one_thresholds_select_nothing(self):
        model = random_model(E=2)
        model.thresholds = np.array([1.0 - 1e-9, 1.0 - 1e-9])
        assert apply_thresholds(model, [0.9, 0.99]) == set()

    def test_boundary_is_inclusive(self):
        model = random_model(E=2)
        model.thresholds = np.array([0.4, 0.6])
        assert apply_thresholds(model, [0.4, 0.599999]) == {"E0"}


class TestTuneThresholds:
    def test_separable_probs_reach_perfect_f1(self):
        probs = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        labels = np.array([1, 1, 1, 0, 0])
        choice = tune_threshold_for_entity(probs, labels, MAX_F1)
        assert choice.achieved == 1.0
        assert 0.2 < choice.threshold <= 0.7

    def test_match_recall_full_recall_bounds_threshold(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            probs = rng.random(30)
            labels = rng.random(30) < 0.4
            if not labels.any():
                continue
            choice = tune_threshold_for_entity(probs, labels, MATCH_RECALL,
                                               target=1.0)
            assert choice.attained
            assert choice.threshold <= probs[labels].min()

    def test_brute_force_oracle_equivalence(self):
        rng = np.random.default_rng(19)
        for trial in range(60):
            n = 20
            probs = np.round(rng.random(n), 3)
            labels = rng.random(n) < rng.uniform(0.2, 0.6)
            best_f1, best_cells = oracles.sweep_max_f1(probs, labels)
            choice = tune_threshold_for_entity(probs, labels, MAX_F1)
            assert choice.achieved == pytest.approx(best_f1, abs=1e-12)
            got = oracles.confusion_at(probs, labels, choice.threshold)
            assert oracles.prf(*got)[2] == pytest.approx(best_f1, abs=1e-12)

            target = rng.random()
            feasible = oracles.sweep_match_recall(probs, labels, target)
            choice = tune_threshold_for_entity(probs, labels, MATCH_RECALL,
                                               target=target)
            if feasible is None:
                assert not choice.attained
            else:
                assert choice.attained
                assert oracles.confusion_at(probs, labels, choice.threshold) == \
                    feasible[1]

            feasible = oracles.sweep_match_precision(probs, labels, target)
            choice = tune_threshold_for_entity(probs, labels, MATCH_PRECISION,
                                               target=target)
            if feasible is None:
                assert not choice.attained
            else:
                assert choice.attained
                assert oracles.confusion_at(probs, labels, choice.threshold) == \
                    feasible[1]

    @settings(derandomize=True, deadline=None)
    @given(cells=st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5,
                                                     0.75, 0.9, 1.0]),
                                    st.booleans()),
                          min_size=1, max_size=60),
           target=st.floats(0.0, 1.0))
    def test_sweep_agrees_with_oracle(self, cells, target):
        probs = np.array([p for p, _ in cells])
        labels = np.array([y for _, y in cells])
        candidates = sorted(set(probs.tolist()) | {0.0, 1.0})

        def metric_at(t, index):
            return oracles.prf(*oracles.confusion_at(probs, labels, t))[index]

        best_f1, _ = oracles.sweep_max_f1(probs, labels)
        choice = tune_threshold_for_entity(probs, labels, MAX_F1)
        assert choice.threshold in candidates
        assert choice.achieved == pytest.approx(best_f1, abs=1e-12)
        assert metric_at(choice.threshold, 2) == pytest.approx(best_f1,
                                                                abs=1e-12)
        assert all(metric_at(t, 2) != metric_at(choice.threshold, 2)
                   for t in candidates if t > choice.threshold)

        for mode, index, sweep, beyond in (
                (MATCH_RECALL, 1, oracles.sweep_match_recall,
                 lambda t, chosen: t > chosen),
                (MATCH_PRECISION, 0, oracles.sweep_match_precision,
                 lambda t, chosen: t < chosen)):
            expected = sweep(probs, labels, target)
            choice = tune_threshold_for_entity(probs, labels, mode,
                                               target=target)
            assert choice.threshold in candidates
            assert not any(metric_at(t, index) >= target for t in candidates
                           if beyond(t, choice.threshold))
            if expected is None:
                assert not choice.attained
                assert choice.achieved == max(metric_at(t, index)
                                              for t in candidates)
            else:
                assert choice.attained
                assert oracles.confusion_at(probs, labels, choice.threshold) \
                    == expected[1]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(cells=st.lists(st.tuples(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
        st.booleans()), max_size=40))
    @example(cells=[(-0.0, True), (0.0, False), (1.0, True), (0.5, False),
                    (0.5, True), (-0.0, False)])
    def test_sweep_candidates_equal_union1d(self, cells):
        probs = np.array([p for p, _ in cells], dtype=float)
        labels = np.array([y for _, y in cells], dtype=bool)
        assert (_sweep(probs, labels)[0].tobytes()
                == np.union1d(probs, (0.0, 1.0)).tobytes())

    def test_unattainable_reports_closest(self):
        probs = np.array([0.6, 0.4])
        labels = np.array([0, 1])  # the positive is ranked below the negative
        choice = tune_threshold_for_entity(probs, labels, MATCH_PRECISION,
                                           target=1.0)
        assert not choice.attained
        assert choice.achieved == 0.5

    def test_tune_thresholds_over_model(self, tmp_path):
        registry, records, gold = make_corpus(120, seed=15)
        encoder = HashedNgramEmbedder(dim=128, seed=0)
        dev = arrays(encoder, records[90:], gold, registry)
        config = ClassifierTrainConfig(epochs=10, seed=4)
        model, _ = train_classifier(
            *arrays(encoder, records[:90], gold, registry), *dev,
            config, registry, encoder)
        choices = tune_thresholds(model, *dev, MAX_F1)
        assert set(choices) == set(registry.ids)
        set_thresholds(model, choices)
        assert ((model.thresholds > 0) & (model.thresholds < 1)).all()

    def test_empty_dev_rejected(self):
        model = random_model()
        with pytest.raises(EmptyDatasetError):
            tune_thresholds(model, *no_rows(16, 3), MAX_F1)


def test_tune_thresholds_leaves_numpy_ma_unimported():
    """In a fresh interpreter: numpy.ma costs its import on first use of
    np.union1d, and the threshold sweep does not use it."""
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "from querydistill.classifier import (ClassifierModel, MAX_F1,",
        "    tune_thresholds)",
        "from querydistill.features import HashedNgramEmbedder",
        "eager = 'numpy.ma' in sys.modules",
        "rng = np.random.default_rng(0)",
        "model = ClassifierModel(",
        "    backend_descriptor={'kind': 'hashed_ngram', 'dim': 16, 'seed': 0},",
        "    entity_ids=('A', 'B'),",
        "    W=rng.normal(size=(16, 2)).astype(np.float32),",
        "    b=np.zeros(2, np.float32), thresholds=np.full(2, 0.5),",
        "    registry_hash='rh')",
        "X = HashedNgramEmbedder(16, 0).encode_batch(",
        "    ['comedy movies', 'football', 'horror', 'tennis'])",
        "Y = np.array([[1, 0], [0, 1], [1, 0], [0, 1]])",
        "assert len(tune_thresholds(model, X, Y, MAX_F1)) == 2",
        "print(eager, 'numpy.ma' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(querydistill.__file__))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    eager, after = proc.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after == "False"


def test_classifier_file_round_trip(tmp_path):
    model = random_model(D=8, E=2, seed=30)
    save_classifier(tmp_path / "clf.json", model)
    loaded = load_classifier(tmp_path / "clf.json")
    assert np.array_equal(loaded.W, model.W)
    assert loaded.entity_ids == model.entity_ids
    backend = HashedNgramEmbedder(dim=8, seed=0)
    assert np.array_equal(predict_probs(loaded, "q", backend=backend),
                          predict_probs(model, "q", backend=backend))


class TestFloat32Heads:
    def trained(self):
        registry, records, gold = make_corpus(60, seed=4)
        encoder = HashedNgramEmbedder(dim=32, seed=0)
        X_train, Y_train = arrays(encoder, records[:45], gold, registry)
        model, _ = train_classifier(
            X_train, Y_train, *arrays(encoder, records[45:], gold, registry),
            ClassifierTrainConfig(epochs=2, seed=3), registry, encoder)
        return model, X_train, Y_train, records[0].text, encoder

    def test_training_keeps_parameters_grads_and_moments_float32(self):
        model, X_train, Y_train, text, encoder = self.trained()
        assert {v.dtype for v in model.params().values()} == {np.dtype(np.float32)}
        X = X_train[:8]
        assert X.dtype == np.float64  # heads_forward casts it, not the weights
        _, grads = classifier_loss_and_grads(
            model, X, Y_train[:8].astype(np.float32))
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        optimizer = AdamW(model.params(), 1e-3, weight_decay=0.01,
                          decay_params=("W",))
        optimizer.step(grads)
        for name, param in model.params().items():
            assert param.dtype == np.float32
            assert optimizer._m[name].dtype == np.float32
            assert optimizer._v[name].dtype == np.float32
        assert predict_probs(model, text, backend=encoder).dtype == np.float32

    def test_float64_model_stays_float64(self):
        model = random_model(D=8, E=2)
        X = np.random.default_rng(0).normal(size=(3, 8)).astype(np.float32)
        logits = heads_forward(model, X)
        assert logits.dtype == np.float64
        assert model.W.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_file_round_trip_is_bit_identical(self, tmp_path, dtype):
        model = random_model(D=8, E=2, seed=31)
        model = dataclasses.replace(model, **{
            name: value.astype(dtype) for name, value in model.params().items()})
        save_classifier(tmp_path / "clf.json", model)
        loaded = load_classifier(tmp_path / "clf.json")
        for name, value in model.params().items():
            assert getattr(loaded, name).dtype == dtype
            assert getattr(loaded, name).tobytes() == value.tobytes()
        assert loaded.thresholds.tobytes() == model.thresholds.tobytes()


class TestLoadTimeChecks:
    def test_head_shapes_must_match_exactly(self):
        model = random_model(D=8, E=2)
        for name, bad in (("W", model.W[:, :1]), ("W", model.W.T),
                          ("W", model.W[None]), ("b", model.b[:1]),
                          ("b", model.b[:, None])):
            with pytest.raises(ModelError, match=name):
                dataclasses.replace(model, **{name: bad})

    def test_feature_dim_must_match_encoder(self, tmp_path):
        path = tmp_path / "clf.json"
        save_classifier(path, random_model(D=8, E=2))
        payload = json.loads(path.read_text())
        payload["backend"]["dim"] = 9
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError, match="9"):
            load_classifier(path)

    @pytest.mark.parametrize("name", ["W", "b"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_weight_rejected(self, tmp_path, name, value):
        model = random_model(D=8, E=2)
        bad = getattr(model, name).copy()
        bad.flat[-1] = value
        with pytest.raises(ModelError, match=name):
            dataclasses.replace(model, **{name: bad})
        path = tmp_path / "clf.json"
        save_classifier(path, model)
        payload = json.loads(path.read_text())
        payload["weights"][name] = encode_array(bad)
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError, match=name):
            load_classifier(path)

    def test_malformed_file_raises_model_error(self, tmp_path):
        path = tmp_path / "clf.json"
        save_classifier(path, random_model(D=8, E=2))
        text = path.read_text()
        payload = json.loads(text)
        b = payload["weights"]["b"]

        def with_b(**entry):
            return json.dumps(dict(payload, weights=dict(
                payload["weights"], b=dict(b, **entry))))

        for content in (text[:len(text) // 2], "", "[1, 2]",
                        json.dumps({"kind": "classifier"}),
                        json.dumps(dict(payload, weights=[])),
                        json.dumps(dict(payload, backend=[])),
                        json.dumps(dict(payload, thresholds="high")),
                        with_b(data="not base64!"),
                        with_b(data=b["data"][:-4]),
                        with_b(dtype="|O")):
            path.write_text(content)
            with pytest.raises(ModelError):
                load_classifier(path)

    def test_non_finite_threshold_rejected(self):
        model = random_model(E=2)
        with pytest.raises(ModelError, match="E1"):
            set_thresholds(model, {"E0": ThresholdChoice(0.3, 1.0),
                                   "E1": ThresholdChoice(float("nan"), 1.0)})
        assert model.thresholds.tolist() == [0.5, 0.5]

    def test_unknown_entity_threshold_rejected(self):
        model = random_model(E=2)
        with pytest.raises(ModelError, match="Nope"):
            set_thresholds(model, {"Nope": ThresholdChoice(0.2, 1.0)})
        assert model.thresholds.tolist() == [0.5, 0.5]


def test_tune_thresholds_matching_modes_with_targets():
    registry, records, gold = make_corpus(
        200, seed=20, entities=["Genre", "Sport"])
    split = int(len(records) * 0.8)
    encoder = HashedNgramEmbedder(dim=128, seed=0)
    X_dev, Y_dev = arrays(encoder, records[split:], gold, registry)
    model, _ = train_classifier(
        *arrays(encoder, records[:split], gold, registry), X_dev, Y_dev,
        ClassifierTrainConfig(epochs=8, seed=0), registry, encoder)
    targets = {e: 0.8 for e in registry.ids}
    for mode, name in ((MATCH_RECALL, "recall"), (MATCH_PRECISION, "precision")):
        choices = tune_thresholds(model, X_dev, Y_dev, mode, targets=targets)
        probs = predict_probs_batch(model, X_dev)
        for col, entity in enumerate(model.entity_ids):
            choice = choices[entity]
            pred = probs[:, col] >= choice.threshold
            gold = Y_dev[:, col] > 0.5
            tp = (pred & gold).sum()
            value = (tp / pred.sum() if name == "precision" and pred.sum()
                     else tp / gold.sum() if name == "recall" and gold.sum()
                     else 0.0)
            if choice.attained:
                assert value >= 0.8


def test_write_predictions_jsonl(tmp_path):
    import json
    from querydistill.classifier import write_predictions_jsonl
    model = random_model(D=16, E=3, seed=2)
    records = [QueryRecord(id=query_id(t), text=t, frequency=1)
               for t in ("comedy movies", "football match")]
    path = tmp_path / "predictions.jsonl"
    write_predictions_jsonl(path, model, records)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["text"] for r in rows] == ["comedy movies", "football match"]
    for row in rows:
        assert len(row["labels"]) == 3
        probs = [l["prob"] for l in row["labels"]]
        assert probs == sorted(probs, reverse=True)
        assert all(0.0 <= p <= 1.0 for p in probs)
