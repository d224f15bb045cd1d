"""Persona repository, confidence matrices, and ensemble aggregation.

Each persona is a role description prepended to the annotation prompt so the
model answers from a distinct perspective. One query annotated by P personas
yields a P x E integer matrix: confidence levels map to 1-3 and unselected
entities to 0. The matrix is both the input to ensemble aggregation and the
training signal for the persona-selection router. A pipeline run holds the
matrices of its N queries as one (N, P, E) array, which ``annotation_levels``
fills and ``aggregate_chosen`` aggregates.
"""

import json
import random
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .annotations import Annotation, Confidence
from .errors import MissingPersonaError, ModelError, QueryDistillError

PERSONA_CATEGORIES = ("Expert", "NonDomainExpert", "NicheExpert")

# Aggregation defaults: select an entity when its weighted mean score is at
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
    personas = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise QueryDistillError(
                    f"personas line {number}: not valid JSON ({exc.msg})") from exc
            persona = Persona(
                id=str(record["id"]),
                name=str(record.get("name", record["id"])),
                category=str(record.get("category", "Expert")),
                description=str(record.get("description", "")),
            )
            if persona.id in seen:
                raise QueryDistillError(f"duplicate persona id: {persona.id!r}")
            seen.add(persona.id)
            personas.append(persona)
    if not personas:
        raise QueryDistillError(f"persona repository is empty: {path}")
    return personas


def default_personas():
    """The shipped persona repository."""
    ref = resources.files("querydistill.resources") / "personas_default.jsonl"
    with resources.as_file(ref) as path:
        return load_personas(path)


@dataclass(frozen=True)
class ConfidenceMatrix:
    """Persona x Entity integer matrix for one query.

    values[p][e] is 3/2/1 for High/Medium/Low and 0 when persona p did not
    select entity e. Rows follow ``persona_ids``; columns follow the
    registry order pinned by ``registry_hash``.
    """

    query_id: str
    persona_ids: tuple
    registry_hash: str
    values: np.ndarray = field(compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        if values.ndim != 2 or values.shape[0] != len(self.persona_ids):
            raise ModelError(
                f"matrix shape {values.shape} does not match "
                f"{len(self.persona_ids)} personas")
        if values.size and (values.min() < 0 or values.max() > 3):
            raise ModelError("matrix values must lie in {0, 1, 2, 3}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "persona_ids", tuple(self.persona_ids))

    @property
    def persona_count(self):
        return self.values.shape[0]

    def subset(self, persona_ids):
        """Rows restricted to the given personas, in the given order."""
        index = {pid: i for i, pid in enumerate(self.persona_ids)}
        missing = [pid for pid in persona_ids if pid not in index]
        if missing:
            raise MissingPersonaError(f"personas not in matrix: {missing}")
        rows = [index[pid] for pid in persona_ids]
        return ConfidenceMatrix(
            query_id=self.query_id,
            persona_ids=tuple(persona_ids),
            registry_hash=self.registry_hash,
            values=self.values[rows],
        )


def annotation_levels(annotations, registry):
    """(n, E) integer array of n annotations' confidence levels (1-3), in
    registry column order; 0 where an annotation did not select the entity.
    """
    width = len(registry)
    cells, values = [], []
    for row, annotation in enumerate(annotations):
        for entity, conf in annotation.entities.items():
            cells.append(row * width + registry.column(entity))
            values.append(int(conf))
    levels = np.zeros(len(annotations) * width, dtype=np.int64)
    levels[cells] = values
    return levels.reshape(len(annotations), width)


def build_confidence_matrix(query, annotations, personas, registry):
    """Assemble the Persona x Entity matrix for one query.

    ``annotations`` maps persona_id -> Annotation and must cover every
    persona in ``personas``.
    """
    missing = [p.id for p in personas if p.id not in annotations]
    if missing:
        raise MissingPersonaError(f"annotations missing for personas: {missing}")
    query_id = query if isinstance(query, str) else query.id
    return ConfidenceMatrix(
        query_id=query_id,
        persona_ids=tuple(p.id for p in personas),
        registry_hash=registry.hash,
        values=annotation_levels([annotations[p.id] for p in personas],
                                 registry),
    )


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


def aggregate_ensemble(matrix, registry, weights=None,
                       threshold=DEFAULT_SELECT_THRESHOLD):
    """Collapse a confidence matrix into one ensemble annotation.

    Per entity, score = weighted mean of the persona values (uniform weights
    when none given; any positive rescaling of the weights is equivalent).
    An entity is selected iff its score >= threshold; its level is given by
    ``ensemble_levels``.
    """
    if registry.hash != matrix.registry_hash:
        raise ModelError("registry does not match the matrix registry_hash")
    if weights is None:
        w = np.ones(matrix.persona_count)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (matrix.persona_count,):
            raise ModelError(
                f"weights length {w.shape} does not match "
                f"{matrix.persona_count} personas")
        if (w < 0).any() or w.sum() <= 0:
            raise ModelError("weights must be non-negative with positive sum")
    scores = w @ matrix.values / w.sum()
    return level_annotations(ensemble_levels(scores, threshold)[None],
                             registry)[0]


def sample_personas(query_ids, persona_count, k, seed):
    """(N, min(k, P)) persona rows drawn per query by its own seeded
    ``random.Random``: the rows of the ids that ``sample`` would draw from
    the persona ids, since it picks positions by length alone."""
    count = min(k, persona_count)
    return np.array([
        random.Random(f"{seed}:{query_id}").sample(range(persona_count), count)
        for query_id in query_ids], dtype=np.intp).reshape(len(query_ids), count)


def aggregate_chosen(values, chosen, threshold=DEFAULT_SELECT_THRESHOLD):
    """(N, E) levels of ``aggregate_ensemble`` over the rows that each row of
    ``chosen`` (N, k) picks from the (N, P, E) ``values``, to the same bits:
    each mean is a sum of small integers divided by k."""
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


def read_matrices(path, registry):
    matrices = []
    with open(path, encoding="utf-8") as fh:
        content = fh.read()
    for block in content.split("\n\n"):
        block = block.strip()
        if not block:
            continue
        lines = block.splitlines()
        header = lines[0].split(",")
        query_id, registry_hash = header[0], header[1]
        if tuple(header[2:]) != registry.ids:
            raise ModelError(
                f"matrix {query_id}: entity columns do not match the registry")
        persona_ids = []
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            persona_ids.append(cells[0])
            rows.append([int(v) for v in cells[1:]])
        values = np.array(rows, dtype=np.int64).reshape(len(persona_ids), len(registry))
        matrices.append(ConfidenceMatrix(
            query_id=query_id,
            persona_ids=tuple(persona_ids),
            registry_hash=registry_hash,
            values=values,
        ))
    return matrices
