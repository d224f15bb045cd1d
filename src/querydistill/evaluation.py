"""Precision/recall/F1 harness: unweighted and frequency-weighted.

``score`` counts TP/FP/FN per entity on boolean (n, E) label arrays and
pools them for the micro average; ``compute_metrics`` scores stores of
per-query label sets (confidence levels ignored) through it. Weighted mode
multiplies every count by the query's search frequency, so the numbers
reflect the share of user traffic handled correctly, not of distinct query
strings. Relative-gain and matched-operating-point reports express a
candidate against the lexical baseline.
"""

import json
from dataclasses import dataclass, field, replace

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

    precision = property(lambda self: float(_prf(self.tp, self.fp, self.fn)[0]))
    recall = property(lambda self: float(_prf(self.tp, self.fp, self.fn)[1]))
    f1 = property(lambda self: float(_prf(self.tp, self.fp, self.fn)[2]))


@dataclass(frozen=True)
class EvalReport:
    per_entity: dict
    micro: MetricCell
    weighted: bool = False
    reference: str = "gold"
    candidate: str = "pred"
    operating_points: dict = field(default_factory=dict)


def _label_set(annotation):
    if hasattr(annotation, "label_set"):
        return set(annotation.label_set())
    return set(annotation)


def score(gold, pred, entity_ids, weights=None, reference="gold",
          candidate="pred"):
    """Score boolean (n, E) label arrays, rows the same queries and columns
    in ``entity_ids`` order. ``weights`` holds each row's integer search
    frequency; None counts every row once and reports unweighted."""
    gold, pred = np.asarray(gold, dtype=bool), np.asarray(pred, dtype=bool)
    if gold.shape != pred.shape or gold.shape[1:] != (len(entity_ids),):
        raise EvaluationError(f"label arrays {gold.shape} and {pred.shape} "
                              f"do not fit {len(entity_ids)} entities")
    w = np.ones(len(gold), dtype=np.int64) if weights is None \
        else np.asarray(weights, dtype=np.int64)
    tp, fp, fn = (w @ cells for cells in (gold & pred, ~gold & pred,
                                          gold & ~pred))
    per_entity = {e: MetricCell(*cell) for e, *cell in
                  zip(entity_ids, tp.tolist(), fp.tolist(), fn.tolist())}
    micro = MetricCell(*(int(counts.sum()) for counts in (tp, fp, fn)))
    return EvalReport(per_entity=per_entity, micro=micro,
                      weighted=weights is not None, reference=reference,
                      candidate=candidate)


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

    ids = sorted(gold_ids)
    gold_sets, pred_sets = ([_label_set(store[qid]) for qid in ids]
                            for store in (gold, pred))
    entities = (list(registry.ids) if registry is not None
                else sorted(set().union(*gold_sets, *pred_sets)))
    column = {e: col for col, e in enumerate(entities)}
    labels = np.zeros((2, len(ids), len(entities)), dtype=bool)
    for side, label_sets in enumerate((gold_sets, pred_sets)):
        for row, entity_set in enumerate(label_sets):
            labels[side, row, [column[e] for e in entity_set]] = True
    weights = ([int((frequencies or {}).get(qid, 1)) for qid in ids]
               if weighted else None)
    return score(*labels, entities, weights, reference, candidate)


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


def matched_operating_point(probs, gold, baseline_report, mode, entity_ids,
                            candidate="classifier"):
    """Evaluate a probabilistic candidate at baseline-matched thresholds.

    ``probs`` and boolean ``gold`` are (n, E) arrays over the same rows, in
    ``entity_ids`` column order. Per entity, the threshold is chosen to match
    the baseline's recall (MATCH_RECALL mode) or precision (MATCH_PRECISION
    mode) for that entity; the report then carries the unweighted confusion
    cells at those thresholds, so the complementary metric is the one to
    read. Entities whose target is unattainable sit at their closest
    achievable operating point, flagged in ``operating_points``.
    """
    if len(gold) == 0:
        raise EvaluationError("matched_operating_point got no gold rows")
    if mode not in (MATCH_RECALL, MATCH_PRECISION):
        raise EvaluationError(f"mode must be match_recall or match_precision, got {mode!r}")
    probs, gold = np.asarray(probs, dtype=float), np.asarray(gold, dtype=bool)
    if probs.shape != gold.shape or probs.shape[1] != len(entity_ids):
        raise EvaluationError("probabilities do not fit the gold labels")

    target_name = "recall" if mode == MATCH_RECALL else "precision"
    operating_points = {}
    for col, entity in enumerate(entity_ids):
        base_cell = baseline_report.per_entity.get(entity, MetricCell())
        operating_points[entity] = tune_threshold_for_entity(
            probs[:, col], gold[:, col], mode,
            target=getattr(base_cell, target_name))
    thresholds = np.array([p.threshold for p in operating_points.values()])
    report = score(gold, probs >= thresholds, entity_ids,
                   reference=baseline_report.reference, candidate=candidate)
    return replace(report, operating_points=operating_points)


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

    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(map(str.ljust, row, widths)) for row in rows)


def report_records(report, system=""):
    """One JSON-ready record per entity plus a micro record."""
    records = []
    for name, cell in [*report.per_entity.items(), (MICRO, report.micro)]:
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


def write_report_jsonl(path, reports):
    with open(path, "w", encoding="utf-8") as fh:
        for report in reports:
            for record in report_records(report):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
