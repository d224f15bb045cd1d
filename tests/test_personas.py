import json
import random

import numpy as np
import pytest

from conftest import ann
from querydistill.annotations import Annotation, Confidence
from querydistill.data import QueryRecord
from querydistill.errors import MissingPersonaError, ModelError, QueryDistillError
from querydistill.personas import (ConfidenceMatrix, Persona,
                                   aggregate_ensemble, build_confidence_matrix,
                                   default_personas, load_personas,
                                   read_matrices, write_matrices)
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
def example_matrix(two_registry, two_personas):
    annotations = {
        "p1": ann(Genre="High"),
        "p2": ann(Genre="Low", Sport="Medium"),
    }
    record = QueryRecord(id="q1", text="some query", frequency=1)
    return build_confidence_matrix(record, annotations, two_personas, two_registry)


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
        assert example_matrix.values.tolist() == [[3, 0], [1, 2]]
        assert example_matrix.persona_ids == ("p1", "p2")

    def test_all_empty_gives_zero_matrix(self, two_registry, two_personas):
        annotations = {"p1": Annotation(), "p2": Annotation()}
        matrix = build_confidence_matrix("q", annotations, two_personas, two_registry)
        assert matrix.values.tolist() == [[0, 0], [0, 0]]

    def test_missing_persona_rejected(self, two_registry, two_personas):
        with pytest.raises(MissingPersonaError):
            build_confidence_matrix("q", {"p1": Annotation()}, two_personas,
                                    two_registry)

    def test_confidence_alphabet_bijection(self, two_registry, two_personas):
        rng = random.Random(17)
        levels = [None, Confidence.LOW, Confidence.MEDIUM, Confidence.HIGH]
        for _ in range(50):
            chosen = {
                pid: {
                    e: lv for e, lv in
                    ((e, rng.choice(levels)) for e in two_registry.ids)
                    if lv is not None
                }
                for pid in ("p1", "p2")
            }
            annotations = {pid: Annotation(entities=dict(v))
                           for pid, v in chosen.items()}
            matrix = build_confidence_matrix("q", annotations, two_personas,
                                             two_registry)
            for row, pid in enumerate(matrix.persona_ids):
                for col, entity in enumerate(two_registry.ids):
                    value = matrix.values[row, col]
                    if entity in chosen[pid]:
                        assert value == int(chosen[pid][entity])
                    else:
                        assert value == 0

    def test_value_range_enforced(self, two_registry):
        with pytest.raises(ModelError):
            ConfidenceMatrix(query_id="q", persona_ids=("p1",),
                             registry_hash=two_registry.hash,
                             values=np.array([[4, 0]]))


class TestAggregateEnsemble:
    def test_uniform_weights(self, example_matrix, two_registry):
        result = aggregate_ensemble(example_matrix, two_registry, threshold=1.5)
        # scores: Genre (3+1)/2 = 2.0 -> Medium; Sport (0+2)/2 = 1.0 -> out
        assert result.entities == {"Genre": Confidence.MEDIUM}

    def test_single_persona_identity(self, two_registry):
        p = [persona("solo")]
        for level in (Confidence.LOW, Confidence.MEDIUM, Confidence.HIGH):
            annotations = {"solo": Annotation(entities={"Genre": level})}
            matrix = build_confidence_matrix("q", annotations, p, two_registry)
            result = aggregate_ensemble(matrix, two_registry, threshold=0.5)
            assert result.entities == {"Genre": level}

    def test_degenerate_weights(self, example_matrix, two_registry):
        result = aggregate_ensemble(example_matrix, two_registry,
                                    weights=(1.0, 0.0), threshold=1.5)
        assert result.entities == {"Genre": Confidence.HIGH}

    def test_weight_length_mismatch(self, example_matrix, two_registry):
        with pytest.raises(ModelError):
            aggregate_ensemble(example_matrix, two_registry, weights=(1.0,))

    def test_rescaling_invariance(self, example_matrix, two_registry):
        rng = random.Random(23)
        for _ in range(20):
            w = [rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)]
            scale = rng.uniform(0.01, 100.0)
            a = aggregate_ensemble(example_matrix, two_registry, weights=w)
            b = aggregate_ensemble(example_matrix, two_registry,
                                   weights=[scale * x for x in w])
            assert a.entities == b.entities

    def test_row_permutation_invariance(self, two_registry):
        rng = random.Random(31)
        personas = [persona(f"p{i}") for i in range(4)]
        annotations = {
            p.id: Annotation(entities={
                e: Confidence(rng.randint(1, 3))
                for e in two_registry.ids if rng.random() < 0.6
            })
            for p in personas
        }
        matrix = build_confidence_matrix("q", annotations, personas, two_registry)
        weights = [rng.uniform(0.1, 2.0) for _ in personas]
        base = aggregate_ensemble(matrix, two_registry, weights=weights)
        for _ in range(5):
            order = list(range(4))
            rng.shuffle(order)
            shuffled = build_confidence_matrix(
                "q", annotations, [personas[i] for i in order], two_registry)
            permuted = aggregate_ensemble(
                shuffled, two_registry, weights=[weights[i] for i in order])
            assert permuted.entities == base.entities


class TestMatrixFile:
    def test_round_trip(self, example_matrix, two_registry, two_personas, tmp_path):
        other = build_confidence_matrix(
            "q2", {"p1": ann(Sport="High"), "p2": Annotation()},
            two_personas, two_registry)
        path = tmp_path / "matrices.csv"
        write_matrices(path, ["q1", "q2"], example_matrix.persona_ids,
                       np.stack([example_matrix.values, other.values]),
                       two_registry)
        loaded = read_matrices(path, two_registry)
        assert [m.query_id for m in loaded] == ["q1", "q2"]
        assert loaded[0].values.tolist() == example_matrix.values.tolist()
        assert loaded[1].values.tolist() == other.values.tolist()
        assert loaded[0].registry_hash == two_registry.hash

    def test_subset_rows(self, example_matrix):
        sub = example_matrix.subset(["p2"])
        assert sub.values.tolist() == [[1, 2]]
        with pytest.raises(MissingPersonaError):
            example_matrix.subset(["p3"])
