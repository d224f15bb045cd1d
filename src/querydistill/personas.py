"""Persona repository, confidence matrices, and ensemble aggregation.

Each persona is a role description prepended to the annotation prompt so the
model answers from a distinct perspective. One query annotated by P personas
yields a P x E integer matrix: confidence levels map to 1-3 and unselected
entities to 0. The matrix is both the input to ensemble aggregation and the
training signal for the persona-selection router. The functions here work on
the matrices of N queries at once, as one (N, P, E) array:
``build_confidence_matrix`` gathers it from an (N, P) index into a table of
distinct annotations, and ``aggregate_ensemble`` aggregates the persona rows
chosen for each query.
"""

import random
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .annotations import Annotation, Confidence
from .data import read_jsonl
from .errors import ModelError, QueryDistillError

PERSONA_CATEGORIES = ("Expert", "NonDomainExpert", "NicheExpert")

# Aggregation defaults: select an entity when its mean score is at
# least "medium-ish"; map scores back to levels at scale midpoints.
DEFAULT_SELECT_THRESHOLD = 1.5
HIGH_CUTOFF = 2.5
MEDIUM_CUTOFF = 1.5


@dataclass(frozen=True)
class Persona:
    id: str
    name: str
    category: str
    description: str

    def __post_init__(self):
        if not self.id:
            raise QueryDistillError("persona id is empty")
        if self.category not in PERSONA_CATEGORIES:
            raise QueryDistillError(
                f"persona {self.id!r}: category must be one of "
                f"{PERSONA_CATEGORIES}, got {self.category!r}")
        if not self.description.strip():
            raise QueryDistillError(f"persona {self.id!r} has an empty description")


def load_personas(path):
    """Load an ordered, id-unique persona list from JSON Lines."""
    personas = read_jsonl(path, lambda record: Persona(
        id=str(record["id"]),
        name=str(record.get("name", record["id"])),
        category=str(record.get("category", "Expert")),
        description=str(record.get("description", ""))))
    seen = set()
    for persona in personas:
        if persona.id in seen:
            raise QueryDistillError(f"duplicate persona id: {persona.id!r}")
        seen.add(persona.id)
    if not personas:
        raise QueryDistillError(f"persona repository is empty: {path}")
    return personas


def default_personas():
    """The shipped persona repository."""
    ref = resources.files("querydistill.resources") / "personas_default.jsonl"
    with resources.as_file(ref) as path:
        return load_personas(path)


def annotation_levels(annotations, registry):
    """(n, E) int8 array of n annotations' confidence levels (1-3), in
    registry column order; 0 where an annotation did not select the entity.
    """
    width = len(registry)
    cells, values = [], []
    for row, annotation in enumerate(annotations):
        for entity, conf in annotation.entities.items():
            cells.append(row * width + registry.column(entity))
            values.append(int(conf))
    levels = np.zeros(len(annotations) * width, dtype=np.int8)
    levels[cells] = values
    return levels.reshape(len(annotations), width)


def build_confidence_matrix(index, table, registry):
    """(N, P, E) confidence levels of N queries by P personas: cell
    ``(i, j)`` holds the levels of ``table[index[i, j]]``, from an (N, P)
    integer ``index`` into a table of annotations (P = 1 for a run without
    personas)."""
    return annotation_levels(table, registry)[index]


def ensemble_levels(scores, threshold=DEFAULT_SELECT_THRESHOLD):
    """Level of each ensemble score: 0 (not selected) below ``threshold``,
    else 3 (High) from 2.5, 2 (Medium) from 1.5 and 1 (Low) below that."""
    levels = (1 + (scores >= MEDIUM_CUTOFF).astype(np.int64)
              + (scores >= HIGH_CUTOFF))
    return np.where(scores >= threshold, levels, 0)


def level_annotations(levels, registry):
    """One Annotation per row of an (n, E) array of levels 0-3."""
    confidences = (None, *Confidence)
    entities = [{} for _ in range(len(levels))]
    rows, columns = np.nonzero(levels)
    for row, column, level in zip(rows.tolist(), columns.tolist(),
                                  levels[rows, columns].tolist()):
        entities[row][registry.ids[column]] = confidences[level]
    return [Annotation(entities=chosen) for chosen in entities]


def sample_personas(query_ids, persona_count, k, seed):
    """(N, min(k, P)) persona rows drawn per query by its own seeded
    ``random.Random``: the rows of the ids that ``sample`` would draw from
    the persona ids, since it picks positions by length alone."""
    count = min(k, persona_count)
    return np.array([
        random.Random(f"{seed}:{query_id}").sample(range(persona_count), count)
        for query_id in query_ids], dtype=np.intp).reshape(len(query_ids), count)


def aggregate_ensemble(values, chosen, threshold=DEFAULT_SELECT_THRESHOLD):
    """(N, E) ensemble levels of N queries: per query, the uniform mean of
    the k persona rows that its row of ``chosen`` (N, k) picks from the
    (N, P, E) ``values``, leveled by ``ensemble_levels``. Each mean is a sum
    of small integers divided by k, so the result does not depend on the
    order of the chosen rows."""
    picked = np.take_along_axis(values, chosen[:, :, None], axis=1)
    return ensemble_levels(picked.sum(axis=1) / chosen.shape[1], threshold)


def write_matrices(path, query_ids, persona_ids, values, registry):
    """Matrix file of the (N, P, E) ``values`` of N queries: per query, a
    header row "query_id,registry_hash,entity ids...", then one CSV row per
    persona; blank line between matrices."""
    width = 2 * len(registry)
    if values.shape[1:] != (len(persona_ids), len(registry)) or (
            values.size and (values.min() < 0 or values.max() > 3)):
        raise ModelError("matrix values must be {0, 1, 2, 3}, one row per "
                         "persona and one column per registry entity")
    # ",v,v,...,v" of every persona row back to back, one ASCII digit a value.
    cells = np.full((len(values) * len(persona_ids), width), ord(","),
                    dtype=np.uint8)
    cells[:, 1::2] = values.reshape(len(cells), len(registry)) + ord("0")
    rows = cells.tobytes().decode("ascii")
    header = f",{registry.hash},{','.join(registry.ids)}"
    blocks, start = [], 0
    for query_id in query_ids:
        lines = [query_id + header]
        for pid in persona_ids:
            lines.append(pid + rows[start:start + width])
            start += width
        blocks.append("\n".join(lines))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(blocks) + "\n")
