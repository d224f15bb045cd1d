"""Confidence levels and per-query entity annotations.

An annotation maps entity ids to a confidence level in {Low, Medium, High}.
Numerically the levels are 1-3, with 0 reserved for entities an annotator did
not select; those numbers are what persona confidence matrices are built from.
"""

import enum
import json
from dataclasses import dataclass, field

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


def annotation_to_json(annotation, query_id, annotator="", persona_id=None):
    record = {
        "id": query_id,
        "annotator": annotator,
        "persona": persona_id,
        "entities": {e: c.label for e, c in sorted(annotation.entities.items())},
    }
    if annotation.warnings:
        record["warnings"] = list(annotation.warnings)
    return record


def annotation_from_json(record):
    entities = {
        e: Confidence.from_label(c) for e, c in record.get("entities", {}).items()
    }
    return Annotation(entities=entities, warnings=tuple(record.get("warnings", ())))


def write_annotation_store(path, store, annotator=""):
    """Write {query_id: Annotation} (or {(query_id, persona_id): ...}) as JSONL.

    Each line is ``json.dumps(annotation_to_json(...), sort_keys=True)``,
    assembled from parts: the entities and warnings are encoded once per
    distinct annotation body, since many queries share one. The parts follow
    the sorted key order annotator, entities, id, persona, warnings.
    """
    encode = _SORTED_JSON.encode
    head = '{"annotator": ' + encode(annotator) + ', "entities": '
    bodies = {}
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(store, key=_store_key):
            qid, pid = key if isinstance(key, tuple) else (key, None)
            annotation = store[key]
            body_key = (tuple(annotation.entities.items()), annotation.warnings)
            body = bodies.get(body_key)
            if body is None:
                record = annotation_to_json(annotation, qid)
                body = bodies[body_key] = (
                    encode(record["entities"]),
                    ', "warnings": ' + encode(record["warnings"])
                    if "warnings" in record else "")
            entities, warnings = body
            fh.write(f'{head}{entities}, "id": {encode(qid)}, '
                     f'"persona": {encode(pid)}{warnings}}}\n')


def read_annotation_store(path):
    """Read an annotation JSONL file.

    Returns {query_id: Annotation} when no record carries a persona, else
    {(query_id, persona_id): Annotation}. A line that is not valid JSON,
    lacks an ``id`` or holds an unknown confidence label raises DataError
    naming the file and line.
    """
    keyed = {}

    def add(record):
        keyed[record["id"], record.get("persona")] = annotation_from_json(record)

    read_jsonl(path, add)
    if any(pid is not None for _, pid in keyed):
        return keyed
    return {qid: ann for (qid, _), ann in keyed.items()}


def _store_key(key):
    if isinstance(key, tuple):
        return (key[0], key[1] or "")
    return (key, "")
