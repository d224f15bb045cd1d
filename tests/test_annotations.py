import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import annotation_store_text
from querydistill.annotations import (Annotation, Confidence,
                                      read_annotation_store,
                                      write_annotation_store)
from querydistill.errors import DataError

_ENTITIES = ("Genre", "Sport", "Holiday", "Ärger", "漢字")

# A small pool of annotations, so that many cells share one table row.
_ANNOTATIONS = st.builds(
    Annotation,
    entities=st.dictionaries(st.sampled_from(_ENTITIES),
                             st.sampled_from(list(Confidence)), max_size=4),
    warnings=st.lists(st.text(max_size=12), max_size=2).map(tuple))
_IDS = st.text(min_size=1, max_size=8)
_PERSONAS = st.lists(st.one_of(st.none(), st.sampled_from(
    ["generalist", "sképtic", "Zed"])), min_size=1, max_size=3, unique=True)


@st.composite
def _grids(draw):
    """(query ids, persona ids, index, table) of a store, and the same store
    as a dict: keyed by query id for the one persona None, else by (query
    id, persona id)."""
    table = draw(st.lists(_ANNOTATIONS, min_size=1, max_size=4))
    if draw(st.booleans()):
        # An equal body in two rows must encode the same.
        table += [Annotation(dict(a.entities), a.warnings) for a in table]
    query_ids = draw(st.lists(_IDS, max_size=6, unique=True))
    persona_ids = draw(_PERSONAS)
    index = np.array(draw(st.lists(
        st.integers(0, len(table) - 1),
        min_size=len(query_ids) * len(persona_ids),
        max_size=len(query_ids) * len(persona_ids))), dtype=np.intp)
    index = index.reshape(len(query_ids), len(persona_ids))
    store = {(qid, pid): table[index[i, j]]
             for i, qid in enumerate(query_ids)
             for j, pid in enumerate(persona_ids)}
    if persona_ids == [None]:
        store = {qid: ann for (qid, _), ann in store.items()}
    return (query_ids, persona_ids, index, table), store


class TestWriteAnnotationStore:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(grid=_grids(), annotator=st.sampled_from(["", "mock-1", "é\"\\"]))
    def test_matches_one_json_dumps_per_record(self, tmp_path_factory, grid,
                                               annotator):
        (query_ids, persona_ids, index, table), store = grid
        path = tmp_path_factory.mktemp("store") / "store.jsonl"
        write_annotation_store(path, query_ids, persona_ids, index, table,
                               annotator=annotator)
        assert path.read_text(encoding="utf-8") == annotation_store_text(
            store, annotator)

    def test_round_trips_through_the_reader(self, tmp_path):
        shared = Annotation({"Genre": Confidence.HIGH}, ("odd line",))
        path = tmp_path / "store.jsonl"
        write_annotation_store(path, ["q2", "q1"], ["skeptic", "generalist"],
                               np.array([[1, 0], [1, 0]]),
                               [shared, Annotation()], annotator="m")
        assert read_annotation_store(path) == {
            ("q1", "generalist"): shared, ("q2", "generalist"): shared,
            ("q1", "skeptic"): Annotation(), ("q2", "skeptic"): Annotation()}

    def test_flat_index_for_one_annotation_per_query(self, tmp_path):
        # A store keyed by query id alone, as gold and aggregated.jsonl are.
        table = [Annotation({"Sport": Confidence.LOW}), Annotation()]
        path = tmp_path / "store.jsonl"
        write_annotation_store(path, ["b", "a", "c"], [None], [1, 0, 0], table)
        assert read_annotation_store(path) == {
            "a": table[0], "b": table[1], "c": table[0]}


class TestReadAnnotationStore:
    @pytest.mark.parametrize("line, reason", [
        (b'{"id": "q2", "entities": {', "not valid JSON"),
        (b'["q2"]', "record is not a JSON object"),
        (b'{"entities": {"Genre": "High"}}', "no 'id' field"),
        (b'{"id": "q2", "entities": {"Genre": "Hgh"}}',
         "not a confidence level: 'Hgh'"),
        (b'{"id": "q\xff2", "entities": {}}', "'utf-8' codec can't decode")],
        ids=["json", "object", "id", "confidence", "utf8"])
    def test_bad_line_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "gold.jsonl"
        path.write_bytes(b'{"id": "q1", "entities": {"Genre": "High"}}\n\n'
                         + line + b"\n")
        with pytest.raises(DataError) as refused:
            read_annotation_store(path)
        assert str(refused.value).startswith(f"{path} line 3: {reason}")
