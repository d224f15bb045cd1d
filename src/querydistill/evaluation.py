"""Precision/recall/F1 harness: unweighted and frequency-weighted.

Metrics compare label sets per query (confidence levels are ignored for set
membership), accumulate TP/FP/FN per entity, and pool the same cells for
the micro average. In weighted mode every count is multiplied by the
query's search frequency, so the numbers reflect what fraction of user
traffic is handled correctly rather than what fraction of distinct query
strings. Relative-gain and matched-operating-point reports express a
candidate against the lexical baseline.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .classifier import (MATCH_PRECISION, MATCH_RECALL, _prf,
                         tune_threshold_for_entity)
from .errors import EvaluationError

MICRO = "micro"


@dataclass(frozen=True)
class MetricCell:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self):
        return float(_prf(self.tp, self.fp, self.fn)[0])

    @property
    def recall(self):
        return float(_prf(self.tp, self.fp, self.fn)[1])

    @property
    def f1(self):
        return float(_prf(self.tp, self.fp, self.fn)[2])


@dataclass(frozen=True)
class EvalReport:
    per_entity: dict
    micro: MetricCell
    weighted: bool = False
    reference: str = "gold"
    candidate: str = "pred"
    operating_points: dict = field(default_factory=dict)

    def metric(self, entity, name):
        cell = self.micro if entity == MICRO else self.per_entity[entity]
        return getattr(cell, name)


def _label_set(annotation):
    if hasattr(annotation, "label_set"):
        return set(annotation.label_set())
    return set(annotation)


def compute_metrics(gold, pred, frequencies=None, weighted=False,
                    registry=None, reference="gold", candidate="pred"):
    """Score a prediction store against a gold store.

    Both stores map query_id -> Annotation (or a plain label set) and must
    cover identical query ids. ``frequencies`` maps query_id -> count and is
    only consulted in weighted mode (default weight 1). When a registry is
    given its entities define the report rows; otherwise rows are the sorted
    union of observed labels.
    """
    gold_ids, pred_ids = set(gold), set(pred)
    if gold_ids != pred_ids:
        raise EvaluationError(
            f"gold and prediction stores cover different queries "
            f"({len(gold_ids - pred_ids)} only in gold, "
            f"{len(pred_ids - gold_ids)} only in pred)",
            missing_in_pred=gold_ids - pred_ids,
            missing_in_gold=pred_ids - gold_ids)

    entities = (list(registry.ids) if registry is not None
                else sorted({e for store in (gold, pred)
                             for ann in store.values()
                             for e in _label_set(ann)}))
    tp = {e: 0 for e in entities}
    fp = {e: 0 for e in entities}
    fn = {e: 0 for e in entities}
    for qid in gold_ids:
        weight = int(frequencies.get(qid, 1)) if (weighted and frequencies) else 1
        gold_set = _label_set(gold[qid])
        pred_set = _label_set(pred[qid])
        for entity in gold_set & pred_set:
            tp[entity] += weight
        for entity in pred_set - gold_set:
            fp[entity] += weight
        for entity in gold_set - pred_set:
            fn[entity] += weight

    per_entity = {e: MetricCell(tp[e], fp[e], fn[e]) for e in entities}
    micro = MetricCell(sum(tp.values()), sum(fp.values()), sum(fn.values()))
    return EvalReport(per_entity=per_entity, micro=micro, weighted=weighted,
                      reference=reference, candidate=candidate)


def relative_gain(candidate, baseline):
    """Percentage change of every metric against a baseline report.

    gain = (candidate - baseline) / baseline * 100. Where the baseline
    metric is 0 the gain is None ("undefined"), never infinity.
    """
    def gains(cand_cell, base_cell):
        out = {}
        for name in ("precision", "recall", "f1"):
            base = getattr(base_cell, name)
            cand = getattr(cand_cell, name)
            out[name] = None if base == 0 else (cand - base) / base * 100.0
        return out

    per_entity = {}
    for entity in candidate.per_entity:
        if entity in baseline.per_entity:
            per_entity[entity] = gains(candidate.per_entity[entity],
                                       baseline.per_entity[entity])
    return {MICRO: gains(candidate.micro, baseline.micro), "per_entity": per_entity}


def matched_operating_point(pred_probs, gold, baseline_report, mode, registry,
                            frequencies=None, weighted=False,
                            candidate="classifier"):
    """Evaluate a probabilistic candidate at baseline-matched thresholds.

    ``pred_probs`` maps query_id -> probability vector in registry column
    order and must cover every gold query. Per entity, the threshold is
    chosen to match the baseline's recall (MATCH_RECALL mode) or precision
    (MATCH_PRECISION mode) for that entity; the report then carries the
    confusion cells at those thresholds, so the complementary metric is the
    one to read. Entities whose target is unattainable sit at their closest
    achievable operating point, flagged in ``operating_points``.
    """
    if not gold:
        raise EvaluationError("matched_operating_point got an empty gold store")
    missing = set(gold) - set(pred_probs)
    if missing:
        raise EvaluationError(
            f"probabilities missing for {len(missing)} gold queries",
            missing_in_pred=missing)
    if mode not in (MATCH_RECALL, MATCH_PRECISION):
        raise EvaluationError(f"mode must be match_recall or match_precision, got {mode!r}")

    qids = sorted(gold)
    probs = np.stack([np.asarray(pred_probs[qid], dtype=float) for qid in qids])
    if probs.shape[1] != len(registry):
        raise EvaluationError("probability vectors do not match the registry")
    labels = np.zeros_like(probs)
    for row, qid in enumerate(qids):
        for entity in _label_set(gold[qid]):
            labels[row, registry.column(entity)] = 1.0

    target_name = "recall" if mode == MATCH_RECALL else "precision"
    pred_store = {qid: set() for qid in qids}
    operating_points = {}
    for col, entity in enumerate(registry.ids):
        base_cell = baseline_report.per_entity.get(entity, MetricCell())
        target = getattr(base_cell, target_name)
        choice = tune_threshold_for_entity(
            probs[:, col], labels[:, col], mode, target=target)
        operating_points[entity] = choice
        selected = probs[:, col] >= choice.threshold
        for row, qid in enumerate(qids):
            if selected[row]:
                pred_store[qid].add(entity)

    report = compute_metrics(gold, pred_store, frequencies=frequencies,
                             weighted=weighted, registry=registry,
                             reference=baseline_report.reference,
                             candidate=candidate)
    return EvalReport(per_entity=report.per_entity, micro=report.micro,
                      weighted=weighted, reference=report.reference,
                      candidate=candidate, operating_points=operating_points)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_table(report, gains=None):
    """Aligned text table, one row per entity plus the pooled micro row."""
    header = ["entity", "tp", "fp", "fn", "precision", "recall", "f1"]
    if gains is not None:
        header += ["dP%", "dR%", "dF1%"]
    rows = [header]

    def fmt_gain(value):
        return "undefined" if value is None else f"{value:+.2f}"

    def row_for(name, cell, gain):
        row = [name, str(cell.tp), str(cell.fp), str(cell.fn),
               f"{cell.precision:.4f}", f"{cell.recall:.4f}", f"{cell.f1:.4f}"]
        if gains is not None:
            g = gain or {}
            row += [fmt_gain(g.get("precision")), fmt_gain(g.get("recall")),
                    fmt_gain(g.get("f1"))]
        return row

    for entity, cell in report.per_entity.items():
        entity_gain = (gains or {}).get("per_entity", {}).get(entity)
        rows.append(row_for(entity, cell, entity_gain))
    rows.append(row_for(MICRO, report.micro, (gains or {}).get(MICRO)))

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
             for row in rows]
    return "\n".join(lines)


def report_records(report, system=""):
    """One JSON-ready record per entity plus a micro record."""
    records = []
    names = list(report.per_entity) + [MICRO]
    for name in names:
        cell = report.micro if name == MICRO else report.per_entity[name]
        record = {
            "entity": name,
            "system": system or report.candidate,
            "reference": report.reference,
            "weighted": report.weighted,
            "tp": cell.tp, "fp": cell.fp, "fn": cell.fn,
            "precision": cell.precision,
            "recall": cell.recall,
            "f1": cell.f1,
        }
        if name in report.operating_points:
            point = report.operating_points[name]
            record["threshold"] = point.threshold
            record["target_attained"] = point.attained
            record["achieved"] = point.achieved
        records.append(record)
    return records


def write_report_jsonl(path, reports_with_tags, mode="w"):
    with open(path, mode, encoding="utf-8") as fh:
        for report, tag in reports_with_tags:
            for record in report_records(report, system=tag):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
