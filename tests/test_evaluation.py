import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import ann
from querydistill.classifier import MATCH_PRECISION, MATCH_RECALL
from querydistill.errors import EvaluationError
from querydistill.evaluation import (MICRO, MetricCell, compute_metrics,
                                     matched_operating_point, relative_gain,
                                     render_table, report_records, score)
from querydistill.taxonomy import EntityDef, EntityRegistry


class TestComputeMetrics:
    def test_hand_counts(self):
        report = compute_metrics({"q": {"Genre"}}, {"q": {"Genre", "Sport"}})
        assert report.micro.precision == 0.5
        assert report.micro.recall == 1.0
        assert report.micro.f1 == pytest.approx(2 / 3)

    def test_single_query_frequency_scales_counts_not_ratios(self):
        unweighted = compute_metrics({"q": {"Genre"}}, {"q": {"Genre", "Sport"}})
        weighted = compute_metrics({"q": {"Genre"}}, {"q": {"Genre", "Sport"}},
                                   frequencies={"q": 3}, weighted=True)
        assert weighted.micro.tp == 3 * unweighted.micro.tp
        assert weighted.micro.precision == unweighted.micro.precision
        assert weighted.micro.recall == unweighted.micro.recall

    def test_weighted_vs_unweighted_recall(self):
        # frozen from the brute-force count: q1 (freq 3) fully recalled,
        # q2 (freq 1) missed -> weighted R 3/4, unweighted R 1/2
        gold = {"q1": {"Genre"}, "q2": {"Sport"}}
        pred = {"q1": {"Genre"}, "q2": set()}
        freqs = {"q1": 3, "q2": 1}
        weighted = compute_metrics(gold, pred, frequencies=freqs, weighted=True)
        unweighted = compute_metrics(gold, pred, frequencies=freqs, weighted=False)
        assert weighted.micro.recall == 0.75
        assert unweighted.micro.recall == 0.5

    def test_confidence_levels_ignored(self):
        gold = {"q": ann(Genre="High")}
        pred = {"q": ann(Genre="Low")}
        report = compute_metrics(gold, pred)
        assert report.micro.f1 == 1.0

    def test_id_mismatch_lists_difference(self):
        with pytest.raises(EvaluationError) as err:
            compute_metrics({"a": set(), "b": set()}, {"a": set(), "c": set()})
        assert err.value.missing_in_pred == ["b"]
        assert err.value.missing_in_gold == ["c"]

    def test_gold_vs_gold_is_perfect(self):
        rng = random.Random(2)
        entities = ["A", "B", "C"]
        gold = {
            f"q{i}": set(rng.sample(entities, rng.randint(0, 3)))
            for i in range(30)
        }
        report = compute_metrics(gold, gold)
        for entity, cell in report.per_entity.items():
            if cell.tp:
                assert cell.precision == cell.recall == cell.f1 == 1.0
        assert report.micro.f1 == 1.0

    def test_constant_frequency_equals_unweighted_ratios(self):
        rng = random.Random(6)
        entities = ["A", "B"]
        gold, pred = {}, {}
        for i in range(20):
            gold[f"q{i}"] = set(rng.sample(entities, rng.randint(0, 2)))
            pred[f"q{i}"] = set(rng.sample(entities, rng.randint(0, 2)))
        freqs = {q: 4 for q in gold}
        weighted = compute_metrics(gold, pred, frequencies=freqs, weighted=True)
        unweighted = compute_metrics(gold, pred, weighted=False)
        for entity in weighted.per_entity:
            for name in ("precision", "recall", "f1"):
                assert getattr(weighted.per_entity[entity], name) == \
                    getattr(unweighted.per_entity[entity], name)
        assert weighted.micro.tp == 4 * unweighted.micro.tp

    def test_micro_pools_per_entity_counts(self):
        rng = random.Random(9)
        entities = ["A", "B", "C", "D"]
        gold = {f"q{i}": set(rng.sample(entities, rng.randint(0, 3)))
                for i in range(25)}
        pred = {f"q{i}": set(rng.sample(entities, rng.randint(0, 3)))
                for i in range(25)}
        report = compute_metrics(gold, pred)
        for name in ("tp", "fp", "fn"):
            assert getattr(report.micro, name) == \
                sum(getattr(c, name) for c in report.per_entity.values())

    def test_brute_force_oracle_equivalence(self):
        rng = random.Random(13)
        for trial in range(100):
            entities = [f"E{i}" for i in range(rng.randint(1, 4))]
            n = rng.randint(1, 6)
            gold, pred, freqs = {}, {}, {}
            for i in range(n):
                qid = f"q{i}"
                gold[qid] = set(rng.sample(entities,
                                           rng.randint(0, len(entities))))
                pred[qid] = set(rng.sample(entities,
                                           rng.randint(0, len(entities))))
                freqs[qid] = rng.randint(1, 5)
            for weighted in (False, True):
                report = compute_metrics(gold, pred, frequencies=freqs,
                                         weighted=weighted)
                expected_cells, expected_micro = oracles.brute_force_counts(
                    gold, pred, freqs, weighted,
                    sorted({e for s in (gold, pred) for v in s.values()
                            for e in v}))
                for entity, (tp, fp, fn) in expected_cells.items():
                    cell = report.per_entity[entity]
                    assert (cell.tp, cell.fp, cell.fn) == (tp, fp, fn)
                    ep, er, ef = oracles.prf(tp, fp, fn)
                    assert abs(cell.precision - ep) < 1e-12
                    assert abs(cell.recall - er) < 1e-12
                    assert abs(cell.f1 - ef) < 1e-12
                assert (report.micro.tp, report.micro.fp, report.micro.fn) == \
                    expected_micro


@st.composite
def _label_arrays(draw):
    """Gold and predicted (n, E) boolean arrays, n in 0-8 and E in 1-4, and
    an integer search frequency per row."""
    n, width = draw(st.integers(0, 8)), draw(st.integers(1, 4))
    cells = st.lists(st.booleans(), min_size=n * width, max_size=n * width)
    gold, pred = (np.array(draw(cells), dtype=bool).reshape(n, width)
                  for _ in range(2))
    weights = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    return gold, pred, weights


class TestScore:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arrays=_label_arrays())
    def test_matches_brute_force_and_dict_stores(self, arrays):
        gold, pred, weights = arrays
        entities = [f"E{col}" for col in range(gold.shape[1])]
        registry = EntityRegistry(entities=tuple(
            EntityDef(id=e, definition=e) for e in entities))
        qids = [f"q{row}" for row in range(len(gold))]

        def store(labels):
            return {qid: {e for e, flag in zip(entities, row) if flag}
                    for qid, row in zip(qids, labels)}

        freqs = dict(zip(qids, weights))
        for weighted in (False, True):
            report = score(gold, pred, entities,
                           weights if weighted else None)
            expected_cells, expected_micro = oracles.brute_force_counts(
                store(gold), store(pred), freqs, weighted, entities)
            assert report.weighted == weighted
            assert list(report.per_entity) == entities
            for entity, cell in report.per_entity.items():
                assert (cell.tp, cell.fp, cell.fn) == expected_cells[entity]
            assert (report.micro.tp, report.micro.fp, report.micro.fn) == \
                expected_micro
            from_stores = compute_metrics(store(gold), store(pred),
                                          frequencies=freqs,
                                          weighted=weighted,
                                          registry=registry)
            assert from_stores == report

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            score(np.zeros((2, 3), bool), np.zeros((3, 3), bool), "ABC")
        with pytest.raises(EvaluationError):
            score(np.zeros((2, 3), bool), np.zeros((2, 3), bool), "AB")


class TestRelativeGain:
    def test_arithmetic(self):
        baseline = compute_metrics({"q": {"A", "B", "C", "D", "E"}},
                                   {"q": {"A", "B"}})
        assert baseline.micro.f1 == pytest.approx(2 * (2 / 7))
        candidate = compute_metrics({"q": {"A", "B", "C", "D", "E"}},
                                    {"q": {"A", "B", "C", "D"}})
        gains = relative_gain(candidate, baseline)
        base_f1, cand_f1 = baseline.micro.f1, candidate.micro.f1
        assert gains[MICRO]["f1"] == pytest.approx(
            (cand_f1 - base_f1) / base_f1 * 100.0)

    def test_frozen_example(self):
        # F1 0.40 -> 0.59 is a +47.5% relative gain
        baseline = MetricCell(tp=2, fp=3, fn=3)       # P=R=F1=0.4
        candidate = MetricCell(tp=59, fp=41, fn=41)   # F1=0.59
        assert baseline.f1 == pytest.approx(0.40)
        assert candidate.f1 == pytest.approx(0.59)
        from querydistill.evaluation import EvalReport
        base = EvalReport(per_entity={"A": baseline}, micro=baseline)
        cand = EvalReport(per_entity={"A": candidate}, micro=candidate)
        gains = relative_gain(cand, base)
        assert gains[MICRO]["f1"] == pytest.approx(47.5)

    def test_equal_reports_zero_gain(self):
        report = compute_metrics({"q": {"A"}}, {"q": {"A"}})
        gains = relative_gain(report, report)
        assert gains[MICRO] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_zero_baseline_is_undefined(self):
        baseline = compute_metrics({"q": {"A"}}, {"q": set()})
        candidate = compute_metrics({"q": {"A"}}, {"q": {"A"}})
        gains = relative_gain(candidate, baseline)
        assert gains[MICRO]["recall"] is None


@pytest.fixture
def four_registry():
    return EntityRegistry(entities=tuple(
        EntityDef(id=f"E{i}", definition="synthetic") for i in range(4)
    ))


class TestMatchedOperatingPoint:
    def perfect_probs(self, gold, registry, rng):
        probs = {}
        for qid, labels in gold.items():
            vec = np.zeros(len(registry))
            for col, entity in enumerate(registry.ids):
                vec[col] = rng.uniform(0.6, 1.0) if entity in labels \
                    else rng.uniform(0.0, 0.4)
            probs[qid] = vec
        return probs

    @staticmethod
    def arrays(probs, gold, registry):
        """The probability and gold stores as (n, E) arrays, rows in sorted
        query-id order."""
        qids = sorted(gold)
        return (np.array([probs[qid] for qid in qids]),
                np.array([[e in gold[qid] for e in registry.ids]
                          for qid in qids]))

    def test_perfect_ranker_full_precision_at_matched_recall(self, four_registry):
        rng = random.Random(3)
        gold = {f"q{i}": set(rng.sample(four_registry.ids, rng.randint(1, 2)))
                for i in range(40)}
        # a baseline that recalls half of each entity's positives, cleanly
        pred = {}
        seen = {e: 0 for e in four_registry.ids}
        for qid in sorted(gold):
            pred[qid] = set()
            for e in gold[qid]:
                seen[e] += 1
                if seen[e] % 2 == 0:
                    pred[qid].add(e)
        baseline = compute_metrics(gold, pred, registry=four_registry)
        probs = self.perfect_probs(gold, four_registry, random.Random(5))
        report = matched_operating_point(
            *self.arrays(probs, gold, four_registry), baseline, MATCH_RECALL,
            four_registry.ids)
        assert report.micro.precision == 1.0
        for entity, cell in report.per_entity.items():
            target = baseline.per_entity[entity].recall
            if cell.tp + cell.fn:
                assert cell.recall >= target

    def test_random_probs_match_sweep_oracle(self, four_registry):
        rng = random.Random(8)
        np_rng = np.random.default_rng(8)
        gold = {f"q{i}": set(rng.sample(four_registry.ids, rng.randint(0, 2)))
                for i in range(30)}
        probs = {qid: np_rng.random(4) for qid in gold}
        pred = {qid: set(rng.sample(four_registry.ids, rng.randint(0, 2)))
                for qid in gold}
        baseline = compute_metrics(gold, pred, registry=four_registry)
        for mode, sweep in ((MATCH_RECALL, oracles.sweep_match_recall),
                            (MATCH_PRECISION, oracles.sweep_match_precision)):
            report = matched_operating_point(
                *self.arrays(probs, gold, four_registry), baseline, mode,
                four_registry.ids)
            target_name = "recall" if mode == MATCH_RECALL else "precision"
            for col, entity in enumerate(four_registry.ids):
                target = getattr(baseline.per_entity[entity], target_name)
                column_probs = np.array([probs[q][col] for q in sorted(gold)])
                column_labels = np.array(
                    [entity in gold[q] for q in sorted(gold)])
                expected = sweep(column_probs, column_labels, target)
                cell = report.per_entity[entity]
                point = report.operating_points[entity]
                if expected is None:
                    assert not point.attained
                else:
                    assert point.attained
                    assert (cell.tp, cell.fp, cell.fn) == expected[1]

    def test_unattainable_target_marked_with_closest(self, four_registry):
        gold = {"q1": {"E0"}, "q2": set()}
        # candidate ranks the negative above the positive for E0
        probs = {"q1": np.array([0.2, 0.0, 0.0, 0.0]),
                 "q2": np.array([0.9, 0.0, 0.0, 0.0])}
        pred = {"q1": {"E0"}, "q2": set()}     # baseline precision 1.0 on E0
        baseline = compute_metrics(gold, pred, registry=four_registry)
        report = matched_operating_point(
            *self.arrays(probs, gold, four_registry), baseline,
            MATCH_PRECISION, four_registry.ids)
        point = report.operating_points["E0"]
        assert not point.attained
        assert point.achieved == 0.5

    def test_empty_gold_rejected(self, four_registry):
        with pytest.raises(EvaluationError):
            matched_operating_point({}, {}, None, MATCH_RECALL, four_registry)


def test_render_table_and_records():
    gold = {"q1": {"A", "B"}, "q2": {"A"}}
    pred = {"q1": {"A"}, "q2": {"A", "B"}}
    report = compute_metrics(gold, pred)
    gains = relative_gain(report, report)
    table = render_table(report, gains)
    assert "micro" in table
    assert "precision" in table.splitlines()[0]
    records = report_records(report, system="test")
    assert records[-1]["entity"] == MICRO
    assert all(r["system"] == "test" for r in records)
