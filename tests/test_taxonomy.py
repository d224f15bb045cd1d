import json

import pytest

from querydistill.errors import RegistryError, UnknownLabelError
from querydistill.taxonomy import (EntityDef, EntityRegistry, NONE_LABEL,
                                   default_registry, load_registry,
                                   validate_label)


def write_registry(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


class TestLoadRegistry:
    def test_default_file_has_22_entities_in_order(self):
        registry = default_registry()
        assert len(registry) == 22
        for name in ("IntentMovie", "Genre", "CastAndCrew", "ReleaseYear",
                     "AudioLanguage", "StreamingService", "Holiday", "Sport"):
            assert name in registry
        # order is the file order and pins every downstream column
        assert registry.ids[0] == "IntentMovie"
        assert registry.column("Genre") == 3

    def test_single_entity_file(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_registry(path, [{"id": "Genre", "definition": "a genre"}])
        registry = load_registry(path)
        assert len(registry) == 1
        assert registry.ids == ("Genre",)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_registry(path, [
            {"id": "Genre", "definition": "a"},
            {"id": "Genre", "definition": "b"},
        ])
        with pytest.raises(RegistryError, match="duplicate"):
            load_registry(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(RegistryError, match="empty"):
            load_registry(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "Genre"\n')
        with pytest.raises(RegistryError, match="line 1"):
            load_registry(path)

    def test_reserved_none_id_rejected(self, tmp_path):
        path = tmp_path / "none.jsonl"
        write_registry(path, [{"id": "None", "definition": "x"}])
        with pytest.raises(RegistryError, match="reserved"):
            load_registry(path)


class TestEntityDef:
    def test_whitespace_id_rejected(self):
        with pytest.raises(RegistryError):
            EntityDef(id="Cast And Crew", definition="x")

    def test_empty_definition_rejected(self):
        with pytest.raises(RegistryError):
            EntityDef(id="Genre", definition="  ")

    @pytest.mark.parametrize("entity_id", ["Genre|Kind", "Genre,Kind", "|"])
    def test_separator_in_id_rejected(self, entity_id):
        # "|" ends the id in a response line; "," splits a matrix header.
        with pytest.raises(RegistryError, match="must not contain"):
            EntityDef(id=entity_id, definition="x")


class TestValidateLabel:
    def test_exact_match(self, registry):
        assert validate_label(registry, "CastAndCrew") == "CastAndCrew"

    def test_trims_surrounding_whitespace(self, registry):
        assert validate_label(registry, " Genre ") == "Genre"

    def test_unknown_label_raises_with_offender(self, registry):
        with pytest.raises(UnknownLabelError) as err:
            validate_label(registry, "Moovie")
        assert err.value.label == "Moovie"

    def test_none_sentinel_passes_through(self, registry):
        assert validate_label(registry, NONE_LABEL) == NONE_LABEL

    def test_case_sensitive(self, registry):
        with pytest.raises(UnknownLabelError):
            validate_label(registry, "genre")

    def test_round_trip_over_all_ids(self, registry):
        for entity in registry:
            assert validate_label(registry, entity.id) == entity.id


class TestRegistryHash:
    def test_stable_across_loads(self, tmp_path):
        records = [{"id": f"E{i}", "definition": "d"} for i in range(5)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_registry(a, records)
        write_registry(b, records)
        assert load_registry(a).hash == load_registry(b).hash

    def test_sensitive_to_order(self):
        fwd = EntityRegistry(entities=(
            EntityDef(id="A", definition="d"), EntityDef(id="B", definition="d")))
        rev = EntityRegistry(entities=(
            EntityDef(id="B", definition="d"), EntityDef(id="A", definition="d")))
        assert fwd.hash != rev.hash

    def test_digest_of_newline_joined_ids_computed_once(self):
        import hashlib
        registry = EntityRegistry(entities=(
            EntityDef(id="A", definition="d"), EntityDef(id="B", definition="d")))
        assert registry.ids == ("A", "B")
        assert registry.hash == hashlib.sha256(b"A\nB").hexdigest()
        assert registry.hash is registry.hash
        assert registry.ids is registry.ids


class TestRegistryEquality:
    def test_equal_by_content(self, tmp_path):
        records = [{"id": f"E{i}", "definition": f"d{i}",
                    "icl_examples": [f"x{i}"]} for i in range(5)]
        write_registry(tmp_path / "r.jsonl", records)
        a, b = load_registry(tmp_path / "r.jsonl"), load_registry(tmp_path / "r.jsonl")
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    @pytest.mark.parametrize("change", [
        {"definition": "another definition"},
        {"icl_examples": ("another example",)},
        {"icl_examples": ()},
    ])
    def test_every_entity_field_counts(self, change):
        from dataclasses import replace
        entities = (EntityDef(id="A", definition="d", icl_examples=("x",)),
                    EntityDef(id="B", definition="d"))
        base = EntityRegistry(entities=entities)
        other = EntityRegistry(entities=(replace(entities[0], **change),
                                         entities[1]))
        assert other.hash == base.hash
        assert other != base
        assert base == EntityRegistry(entities=entities)
        assert base != entities
