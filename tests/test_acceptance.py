"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance and time budget is asserted here, not just eyeballed.
"""

import random
import time

import numpy as np
import pytest

import oracles
import synthetic_helpers as synth_h
from test_pipeline_cli import build_workspace

from querydistill.annotations import Confidence
from querydistill.baseline import lexical_match
from querydistill.classifier import (ClassifierModel, ClassifierTrainConfig,
                                     MATCH_PRECISION, MATCH_RECALL, MAX_F1,
                                     classifier_loss_and_grads, labeled_queries,
                                     predict_probs_batch, train_classifier,
                                     tune_threshold_for_entity)
from querydistill.data import split_dataset
from querydistill.evaluation import (compute_metrics, matched_operating_point,
                                     score)
from querydistill.features import HashedNgramEmbedder
from querydistill.llm_client import annotate_batch, mock_annotate, mock_handle
from querydistill.personas import (aggregate_ensemble, annotation_levels,
                                   level_annotations)
from querydistill.pipeline import load_run_config, run_pipeline
from querydistill.prompting import (PromptConfig, PromptFrame, PromptVariant,
                                    parse_response)
from querydistill.router import (RouterModel, RouterTrainConfig,
                                 listwise_target, router_forward,
                                 router_loss_and_grads, select_top_k,
                                 train_router)
from querydistill.synth import (ambiguity_table, impoverished_gazetteer,
                                synth_gazetteer, synth_queries, synth_registry)


def passed(number, message):
    print(f"\nACCEPTANCE {number} PASS: {message}")


def test_criterion_1_metrics_oracle():
    """compute_metrics matches brute-force recomputation on 200 instances."""
    started = time.perf_counter()
    rng = random.Random(1001)
    for trial in range(200):
        entities = [f"E{i}" for i in range(rng.randint(1, 4))]
        n = rng.randint(1, 6)
        gold, pred, freqs = {}, {}, {}
        for i in range(n):
            qid = f"q{i}"
            gold[qid] = set(rng.sample(entities, rng.randint(0, len(entities))))
            pred[qid] = set(rng.sample(entities, rng.randint(0, len(entities))))
            freqs[qid] = rng.randint(1, 5)
        for weighted in (False, True):
            report = compute_metrics(gold, pred, frequencies=freqs,
                                     weighted=weighted)
            cells, micro = oracles.brute_force_counts(
                gold, pred, freqs, weighted,
                sorted({e for s in (gold, pred) for v in s.values() for e in v}))
            for entity, (tp, fp, fn) in cells.items():
                cell = report.per_entity[entity]
                assert (cell.tp, cell.fp, cell.fn) == (tp, fp, fn)
                ep, er, ef = oracles.prf(tp, fp, fn)
                assert abs(cell.precision - ep) <= 1e-12
                assert abs(cell.recall - er) <= 1e-12
                assert abs(cell.f1 - ef) <= 1e-12
            assert (report.micro.tp, report.micro.fp, report.micro.fn) == micro
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    passed(1, f"metrics match brute force on 200 instances ({elapsed:.2f}s)")


def test_criterion_2_threshold_oracle():
    """Threshold tuning matches the exhaustive sweep on 100 dev sets."""
    started = time.perf_counter()
    rng = np.random.default_rng(2002)
    for trial in range(100):
        n = int(rng.integers(2, 51))
        probs = np.round(rng.random(n), 3)
        labels = rng.random(n) < rng.uniform(0.1, 0.7)

        best_f1, _ = oracles.sweep_max_f1(probs, labels)
        choice = tune_threshold_for_entity(probs, labels, MAX_F1)
        achieved = oracles.prf(
            *oracles.confusion_at(probs, labels, choice.threshold))[2]
        assert achieved == pytest.approx(best_f1, abs=1e-12)
        assert choice.achieved == pytest.approx(best_f1, abs=1e-12)

        target = float(rng.random())
        expected = oracles.sweep_match_recall(probs, labels, target)
        choice = tune_threshold_for_entity(probs, labels, MATCH_RECALL,
                                           target=target)
        if expected is None:
            assert not choice.attained
        else:
            assert choice.attained
            assert oracles.confusion_at(probs, labels, choice.threshold) == \
                expected[1]

        expected = oracles.sweep_match_precision(probs, labels, target)
        choice = tune_threshold_for_entity(probs, labels, MATCH_PRECISION,
                                           target=target)
        if expected is None:
            assert not choice.attained
        else:
            assert choice.attained
            assert oracles.confusion_at(probs, labels, choice.threshold) == \
                expected[1]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    passed(2, f"threshold tuning matches exhaustive sweep ({elapsed:.2f}s)")


def test_criterion_3_gradient_checks():
    """Analytic gradients match central finite differences (rel err 1e-3)."""
    # router instance: d=8, P=3, E=5
    rng = np.random.default_rng(42)
    router = RouterModel(
        W=rng.normal(scale=0.5, size=(8, 3)),
        b=rng.normal(scale=0.5, size=3),
        persona_ids=("a", "b", "c"), registry_hash="rh")
    X = rng.normal(size=(6, 8))
    M = rng.integers(0, 4, size=(6, 3, 5)).astype(float)
    Y = (rng.random(size=(6, 5)) < 0.4).astype(float)
    _, analytic = router_loss_and_grads(router, X, M, Y)
    numeric = oracles.finite_difference_grads(
        router.params(), lambda: router_loss_and_grads(router, X, M, Y)[0],
        step=1e-4)
    router_err = oracles.max_relative_error(analytic, numeric)
    assert router_err <= 1e-3

    # classifier heads instance: D=16, E=3
    rng = np.random.default_rng(21)
    heads = ClassifierModel(
        backend_descriptor={"kind": "hashed_ngram", "dim": 16, "seed": 0},
        entity_ids=("E0", "E1", "E2"),
        W=rng.normal(scale=0.4, size=(16, 3)),
        b=rng.normal(scale=0.4, size=3),
        thresholds=np.full(3, 0.5), registry_hash="rh")
    X = rng.normal(size=(5, 16))
    Y = (rng.random((5, 3)) < 0.5).astype(float)
    _, analytic = classifier_loss_and_grads(heads, X, Y)
    numeric = oracles.finite_difference_grads(
        heads.params(), lambda: classifier_loss_and_grads(heads, X, Y)[0],
        step=1e-4)
    heads_err = oracles.max_relative_error(analytic, numeric)
    assert heads_err <= 1e-3
    passed(3, f"gradient checks pass (router {router_err:.2e}, "
              f"heads {heads_err:.2e})")


def test_criterion_4_router_learning():
    """Router learns to prefer the oracle persona and beats random selection."""
    started = time.perf_counter()
    registry = synth_h.entity_registry(6)
    (X, M, Y), persona_ids = synth_h.router_dataset(
        750, registry, ("oracle", "adversarial", "random"),
        seed=101, embed_dim=64)
    train, held_out = slice(None, 600), slice(600, None)
    model, _ = train_router(X[train], M[train], Y[train], persona_ids,
                            RouterTrainConfig(seed=7), registry)

    mean = router_forward(model, X[held_out]).mean(axis=0)
    oracle_mean, others_best = mean[0], max(mean[1], mean[2])
    assert oracle_mean >= others_best + 0.2

    def f1(chosen):
        levels = aggregate_ensemble(M[held_out], chosen)
        return score(Y[held_out], levels > 0, registry.ids).micro.f1

    router_f1 = f1(select_top_k(model, X[held_out], 1))
    random_f1s = []
    for seed in range(5):
        rng = random.Random(seed)
        random_f1s.append(f1(np.array(
            [[rng.choice(range(len(persona_ids)))] for _ in Y[held_out]])))
    random_mean = float(np.mean(random_f1s))
    assert router_f1 > random_mean

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    passed(4, f"oracle persona relevance {oracle_mean:.3f} vs {others_best:.3f}; "
              f"router-1 F1 {router_f1:.3f} > random-1 mean {random_mean:.3f} "
              f"({elapsed:.1f}s)")


def test_criterion_5_distillation_beats_weak_baseline():
    """Distilled classifier beats the impoverished lexical baseline by >= 25%
    relative recall at matched precision, averaged over 3 seeds."""
    started = time.perf_counter()
    gazetteer = synth_gazetteer()            # the 100-phrase universe
    registry = synth_registry()
    records, gold = synth_queries(gazetteer, 5000, seed=99)
    baseline_gaz = impoverished_gazetteer(gazetteer, 0.4, seed=0)
    handle = mock_handle(gazetteer, seed=0, noise_rate=0.1)

    weak_store = {}
    for record in records:
        response = mock_annotate(handle, record.text, sections=("icl",))
        weak_store[record.id] = parse_response(registry, response)

    gains = []
    for seed in range(3):
        split = split_dataset(records, (0.7, 0.1, 0.2), seed=seed)
        encoder = HashedNgramEmbedder(dim=256, seed=0)
        config = ClassifierTrainConfig(epochs=10, seed=seed, batch_size=64,
                                       patience=10)
        model, _ = train_classifier(
            encoder.encode_batch([r.text for r in split.train]),
            labeled_queries(split.train, weak_store, registry, Confidence.HIGH),
            encoder.encode_batch([r.text for r in split.dev]),
            labeled_queries(split.dev, weak_store, registry, Confidence.HIGH),
            config, registry, encoder)

        test_records = list(split.test)
        gold_test = {r.id: gold[r.id] for r in test_records}
        probs = predict_probs_batch(
            model, encoder.encode_batch([r.text for r in test_records]))
        baseline_store = {r.id: lexical_match(baseline_gaz, r.text)
                          for r in test_records}
        base_report = compute_metrics(gold_test, baseline_store,
                                      registry=registry)
        order = sorted(range(len(test_records)),
                       key=lambda i: test_records[i].id)
        gold_labels = annotation_levels(
            [gold_test[test_records[i].id] for i in order], registry) > 0
        matched = matched_operating_point(probs[order], gold_labels,
                                          base_report, MATCH_PRECISION,
                                          registry.ids)
        assert base_report.micro.recall > 0
        gains.append((matched.micro.recall - base_report.micro.recall)
                     / base_report.micro.recall)

    mean_gain = float(np.mean(gains))
    elapsed = time.perf_counter() - started
    assert mean_gain >= 0.25
    assert elapsed < 300.0
    passed(5, f"recall at matched precision +{mean_gain * 100:.0f}% relative "
              f"over 3 seeds ({elapsed:.0f}s)")


def test_criterion_6_icl_variant_not_worse_than_baseline_prompt():
    """With ambiguity the ICL prompt resolves, the full variant's micro-F1 is
    at least the bare prompt's on the same 500 queries."""
    gazetteer = synth_gazetteer()
    registry = synth_registry()
    records, gold = synth_queries(gazetteer, 500, seed=55)
    ambiguous = ambiguity_table(gazetteer, 0.3, seed=1)
    handle = mock_handle(gazetteer, seed=0, noise_rate=0.0, ambiguous=ambiguous)
    gold_store = {r.id: gold[r.id] for r in records}

    scores = {}
    for variant in (PromptVariant.BASELINE, PromptVariant.CONFIDENCE_COT_ICL):
        config = PromptConfig(variant=variant, registry_hash=registry.hash)
        frame = PromptFrame(config, registry)
        responses = annotate_batch(handle, [(frame, r.text) for r in records])
        store = {r.id: parse_response(registry, response)
                 for r, response in zip(records, responses)}
        scores[variant] = compute_metrics(gold_store, store,
                                          registry=registry).micro.f1
    assert scores[PromptVariant.CONFIDENCE_COT_ICL] >= \
        scores[PromptVariant.BASELINE]
    passed(6, f"ICL variant micro-F1 {scores[PromptVariant.CONFIDENCE_COT_ICL]:.3f} "
              f">= bare prompt {scores[PromptVariant.BASELINE]:.3f}")


def test_criterion_7_pipeline_determinism(tmp_path):
    """Identical config and seed give byte-identical manifests; the rerun
    answers every annotation from cache."""
    config_path = build_workspace(tmp_path, count=150)
    first = run_pipeline(load_run_config(
        config_path, {"output_dir": str(tmp_path / "run_a")}))
    second = run_pipeline(load_run_config(
        config_path, {"output_dir": str(tmp_path / "run_b")}))
    with open(first.manifest_path, "rb") as fh:
        bytes_a = fh.read()
    with open(second.manifest_path, "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b
    assert second.stats["annotator_calls"] == 0
    assert second.stats["cache_hits"] > 0
    passed(7, f"byte-identical manifests; rerun used "
              f"{second.stats['cache_hits']} cached responses, 0 calls")


def test_criterion_8_matrix_algebra_properties():
    """listwise_target, which router training fits, is a distribution over
    personas that gives a persona whose row is 3 x gold the largest weight
    and follows a permutation of the personas, and the confidence mapping
    is the {absent, Low, Medium, High} -> {0, 1, 2, 3} bijection, over
    1,000 random matrices."""
    rng = np.random.default_rng(8008)
    # The target checks draw from their own generator, and ``rng`` still
    # makes the draws of the linearity check they replaced, so the 1,000
    # matrices are the ones this criterion always used.
    target_rng = np.random.default_rng(8009)
    for trial in range(1000):
        P = int(rng.integers(1, 6))
        E = int(rng.integers(1, 8))
        values = rng.integers(0, 4, size=(1, P, E))
        rng.dirichlet(np.ones(P), size=2)
        rng.random()

        gold = target_rng.random((1, E)) < 0.5
        oracle = int(target_rng.integers(P))
        matrices = values.copy()
        matrices[0, oracle] = 3 * gold[0]
        target = listwise_target(matrices, gold)
        assert target.shape == (1, P)
        assert (target >= 0).all() and abs(target.sum() - 1.0) <= 1e-12
        assert target[0, oracle] == target.max()
        perm = target_rng.permutation(P)
        assert np.allclose(listwise_target(matrices[:, perm], gold),
                           target[:, perm], rtol=0, atol=1e-12)

        # levels -> annotations -> levels round-trips, and each selected
        # entity carries the Confidence of its level
        registry = synth_h.entity_registry(E)
        annotations = level_annotations(values[0], registry)
        assert np.array_equal(annotation_levels(annotations, registry),
                              values[0])
        for row, annotation in zip(values[0], annotations):
            assert {registry.column(e): int(c)
                    for e, c in annotation.entities.items()} == {
                e: int(v) for e, v in enumerate(row) if v}
    passed(8, "listwise target properties and confidence-mapping bijection "
              "on 1,000 matrices")
