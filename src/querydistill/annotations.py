"""Confidence levels and per-query entity annotations.

An annotation maps entity ids to a confidence level in {Low, Medium, High}.
Numerically the levels are 1-3, with 0 reserved for entities an annotator did
not select; those numbers are what persona confidence matrices are built from.
"""

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .data import read_jsonl

# ``json.dumps(record, sort_keys=True)`` without building an encoder per call.
_SORTED_JSON = json.JSONEncoder(sort_keys=True)


class Confidence(enum.IntEnum):
    """Annotator confidence level. Integer values feed confidence matrices."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3

    @property
    def label(self):
        return {1: "Low", 2: "Medium", 3: "High"}[int(self)]

    @classmethod
    def from_label(cls, token):
        """Parse a confidence token, case-insensitively. Raises ValueError."""
        key = token.strip().casefold()
        try:
            return {"low": cls.LOW, "medium": cls.MEDIUM, "high": cls.HIGH}[key]
        except KeyError:
            raise ValueError(f"not a confidence level: {token!r}") from None


@dataclass(frozen=True)
class Annotation:
    """Entity -> confidence mapping produced by one annotator for one query.

    An empty mapping is the "None" case: the annotator selected no entity.
    ``warnings`` records tolerated parse problems (unknown labels, malformed
    lines) without failing the annotation.
    """

    entities: dict = field(default_factory=dict)
    warnings: tuple = ()

    def label_set(self):
        return frozenset(self.entities)

    def __bool__(self):
        return bool(self.entities)


def render_annotation(annotation):
    """Render an annotation in the line format annotators are asked to emit.

    One "EntityId|Confidence" line per entity (sorted by entity id for
    determinism), or the single line "None" for an empty annotation.
    """
    if not annotation.entities:
        return "None"
    lines = [
        f"{entity}|{conf.label}"
        for entity, conf in sorted(annotation.entities.items())
    ]
    return "\n".join(lines)


def write_annotation_store(path, query_ids, persona_ids, index, table,
                           annotator=""):
    """Write the annotation of each (query, persona) cell as JSONL: cell
    ``(i, j)`` holds ``table[index[i, j]]``, for ``query_ids[i]`` and
    ``persona_ids[j]`` (``[None]`` for one annotation per query, where
    ``index`` may be flat).

    Each line is the ``json.dumps(..., sort_keys=True)`` of {"annotator",
    "entities" (entity id -> confidence label), "id", "persona"}, plus
    "warnings" when the annotation has any. It is assembled from parts in
    that key order, so each table row is encoded once. Lines are sorted by
    query id, then persona id (None as "").
    """
    encode = _SORTED_JSON.encode
    head = '{"annotator": ' + encode(annotator) + ', "entities": '
    bodies = [(head + encode({e: c.label for e, c in a.entities.items()})
               + ', "id": ',
               (', "warnings": ' + encode(a.warnings) if a.warnings else "")
               + "}\n") for a in table]
    columns = sorted(range(len(persona_ids)),
                     key=lambda j: persona_ids[j] or "")
    personas = [', "persona": ' + encode(persona_ids[j]) for j in columns]
    cells = np.reshape(index, (len(query_ids), len(persona_ids)))
    rows = cells[:, columns].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for i in sorted(range(len(query_ids)), key=query_ids.__getitem__):
            qid = encode(query_ids[i])
            for persona, row in zip(personas, rows[i]):
                start, end = bodies[row]
                fh.write(f"{start}{qid}{persona}{end}")


def read_annotations(path, registry=None):
    """{(query_id, persona_id): Annotation} of each line of the annotation
    JSONL file at ``path``, persona None for a line without one. A line
    that is not valid JSON, lacks an ``id``, holds an unknown confidence
    label or, given a ``registry``, an entity it does not know raises
    DataError naming the file and line."""
    keyed = {}

    def add(record):
        entities = {e: Confidence.from_label(c)
                    for e, c in record.get("entities", {}).items()}
        if registry is not None:
            for entity in entities:
                registry.column(entity)
        keyed[record["id"], record.get("persona")] = Annotation(
            entities=entities, warnings=tuple(record.get("warnings", ())))

    read_jsonl(path, add)
    return keyed


def read_annotation_store(path):
    """``read_annotations`` of ``path``, keyed by query id alone when no
    line carries a persona."""
    keyed = read_annotations(path)
    if any(pid is not None for _, pid in keyed):
        return keyed
    return {qid: ann for (qid, _), ann in keyed.items()}
