import json
import random

import numpy as np
import pytest

from conftest import ann
from querydistill.annotations import Annotation, Confidence
from querydistill.errors import ModelError, QueryDistillError
from querydistill.personas import (Persona, aggregate_ensemble,
                                   build_confidence_matrix, default_personas,
                                   load_personas, write_matrices)
from querydistill.taxonomy import EntityDef, EntityRegistry


@pytest.fixture
def two_registry():
    return EntityRegistry(entities=(
        EntityDef(id="Genre", definition="a genre"),
        EntityDef(id="Sport", definition="sports"),
    ))


def persona(pid, category="Expert"):
    return Persona(id=pid, name=pid.title(), category=category,
                   description=f"You are {pid}.")


@pytest.fixture
def two_personas():
    return [persona("p1"), persona("p2")]


@pytest.fixture
def example_matrix(two_registry):
    """(1, 2, 2) levels of query q1 by personas p1 and p2."""
    table = [ann(Genre="High"), ann(Genre="Low", Sport="Medium")]
    return build_confidence_matrix(np.array([[0, 1]]), table, two_registry)


def read_matrix_file(path):
    """(query ids, header registry hashes, entity ids, persona ids, levels)
    of a matrix file, parsed by plain string splitting."""
    query_ids, hashes, entities, persona_ids, levels = [], [], [], [], []
    for block in path.read_text().strip().split("\n\n"):
        header, *rows = block.split("\n")
        query_id, registry_hash, *entities = header.split(",")
        query_ids.append(query_id)
        hashes.append(registry_hash)
        persona_ids = [row.split(",")[0] for row in rows]
        levels.append([[int(v) for v in row.split(",")[1:]] for row in rows])
    return query_ids, hashes, entities, persona_ids, levels


class TestLoadPersonas:
    def test_shipped_repository(self):
        personas = default_personas()
        names = {p.name for p in personas}
        assert {"Merchandiser", "Movie Critic", "Movie Buff",
                "Book Club Member", "Horror Aficionado"} <= names
        categories = {p.category for p in personas}
        assert categories == {"Expert", "NonDomainExpert", "NicheExpert"}

    def test_empty_repository_rejected(self, tmp_path):
        path = tmp_path / "personas.jsonl"
        path.write_text("")
        with pytest.raises(QueryDistillError, match="empty"):
            load_personas(path)

    def test_32_personas(self, tmp_path):
        path = tmp_path / "many.jsonl"
        with open(path, "w") as fh:
            for i in range(32):
                fh.write(json.dumps({
                    "id": f"persona_{i:02d}", "name": f"Persona {i}",
                    "category": "Expert", "description": f"You are persona {i}.",
                }) + "\n")
        assert len(load_personas(path)) == 32

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        record = {"id": "twin", "name": "Twin", "category": "Expert",
                  "description": "You are twin."}
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(QueryDistillError, match="duplicate"):
            load_personas(path)

    def test_bad_category_rejected(self):
        with pytest.raises(QueryDistillError, match="category"):
            persona("oops", category="Wizard")


class TestBuildConfidenceMatrix:
    def test_direct_mapping(self, example_matrix):
        assert example_matrix.tolist() == [[[3, 0], [1, 2]]]

    def test_all_empty_gives_zero_matrix(self, two_registry):
        values = build_confidence_matrix(np.zeros((2, 2), dtype=np.intp),
                                         [Annotation()], two_registry)
        assert values.tolist() == [[[0, 0], [0, 0]]] * 2

    def test_cells_share_table_rows(self, two_registry):
        # Cells that point at one row get its levels; an unused row is
        # ignored, and no query gives an (0, P, E) array.
        table = [ann(Sport="Low"), ann(Genre="High"), ann(Genre="Medium")]
        values = build_confidence_matrix(np.array([[1, 1], [0, 1]]), table,
                                         two_registry)
        assert values.tolist() == [[[3, 0], [3, 0]], [[0, 1], [3, 0]]]
        empty = build_confidence_matrix(np.zeros((0, 2), dtype=np.intp),
                                        table, two_registry)
        assert empty.shape == (0, 2, 2)

    def test_confidence_alphabet_bijection(self, two_registry):
        rng = random.Random(17)
        levels = [None, Confidence.LOW, Confidence.MEDIUM, Confidence.HIGH]
        query_ids, persona_ids = [f"q{i}" for i in range(50)], ["p1", "p2"]
        chosen = {
            (qid, pid): {
                e: lv for e, lv in
                ((e, rng.choice(levels)) for e in two_registry.ids)
                if lv is not None
            }
            for qid in query_ids for pid in persona_ids
        }
        # The table holds the cells in reverse, so the rows cannot follow
        # cell order.
        cells = list(reversed(list(chosen)))
        table = [Annotation(entities=dict(chosen[key])) for key in cells]
        index = np.array([[cells.index((qid, pid)) for pid in persona_ids]
                          for qid in query_ids])
        values = build_confidence_matrix(index, table, two_registry)
        for (qid, pid), selected in chosen.items():
            row = values[query_ids.index(qid), persona_ids.index(pid)]
            for col, entity in enumerate(two_registry.ids):
                assert row[col] == (int(selected[entity])
                                    if entity in selected else 0)

    def test_value_range_enforced(self, two_registry, tmp_path):
        # The matrix file accepts only the levels {0, 1, 2, 3}.
        with pytest.raises(ModelError):
            write_matrices(tmp_path / "m.csv", ["q"], ["p1"],
                           np.array([[[4, 0]]]), two_registry)


class TestAggregateEnsemble:
    def test_uniform_weights(self, example_matrix):
        levels = aggregate_ensemble(example_matrix, np.array([[0, 1]]),
                                    threshold=1.5)
        # scores: Genre (3+1)/2 = 2.0 -> Medium; Sport (0+2)/2 = 1.0 -> out
        assert levels.tolist() == [[int(Confidence.MEDIUM), 0]]

    def test_single_persona_identity(self, two_registry):
        for level in (Confidence.LOW, Confidence.MEDIUM, Confidence.HIGH):
            values = build_confidence_matrix(
                np.array([[0]]), [Annotation(entities={"Genre": level})],
                two_registry)
            levels = aggregate_ensemble(values, np.array([[0]]),
                                        threshold=0.5)
            assert levels.tolist() == [[int(level), 0]]

    def test_row_permutation_invariance(self, two_registry):
        rng = random.Random(31)
        # One table row per persona.
        table = [Annotation(entities={
            e: Confidence(rng.randint(1, 3))
            for e in two_registry.ids if rng.random() < 0.6
        }) for _ in range(4)]
        values = build_confidence_matrix(np.array([[0, 1, 2, 3]]), table,
                                         two_registry)
        base = aggregate_ensemble(values, np.array([[0, 1, 2]]))
        for _ in range(5):
            order = list(range(4))
            rng.shuffle(order)
            shuffled = build_confidence_matrix(np.array([order]), table,
                                               two_registry)
            # The same three personas, at their rows in the shuffled order.
            chosen = [order.index(i) for i in (2, 0, 1)]
            permuted = aggregate_ensemble(shuffled, np.array([chosen]))
            assert permuted.tolist() == base.tolist()


class TestMatrixFile:
    def test_round_trip(self, example_matrix, two_registry, two_personas, tmp_path):
        other = build_confidence_matrix(
            np.array([[0, 1]]), [ann(Sport="High"), Annotation()],
            two_registry)
        path = tmp_path / "matrices.csv"
        write_matrices(path, ["q1", "q2"], [p.id for p in two_personas],
                       np.concatenate([example_matrix, other]), two_registry)
        query_ids, hashes, entities, persona_ids, levels = \
            read_matrix_file(path)
        assert query_ids == ["q1", "q2"]
        assert hashes == [two_registry.hash] * 2
        assert entities == list(two_registry.ids)
        assert persona_ids == ["p1", "p2"]
        assert levels == example_matrix.tolist() + other.tolist()
