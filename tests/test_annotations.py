import pytest
from hypothesis import given, settings, strategies as st

from oracles import annotation_store_text
from querydistill.annotations import (Annotation, Confidence,
                                      read_annotation_store,
                                      write_annotation_store)
from querydistill.errors import DataError

_ENTITIES = ("Genre", "Sport", "Holiday", "Ärger", "漢字")

# A small pool of annotations, so that stores share annotation objects (as
# parsed responses do) and also hold equal bodies in distinct objects (as
# aggregated levels do).
_ANNOTATIONS = st.builds(
    Annotation,
    entities=st.dictionaries(st.sampled_from(_ENTITIES),
                             st.sampled_from(list(Confidence)), max_size=4),
    warnings=st.lists(st.text(max_size=12), max_size=2).map(tuple))
_IDS = st.text(min_size=1, max_size=8)
_PERSONAS = st.one_of(st.none(), st.sampled_from(["generalist", "sképtic"]))


@st.composite
def _stores(draw):
    pool = draw(st.lists(_ANNOTATIONS, min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    if draw(st.booleans()):
        return draw(st.dictionaries(_IDS, pick, max_size=12))
    keys = st.tuples(_IDS, _PERSONAS)
    store = draw(st.dictionaries(keys, pick, max_size=12))
    if draw(st.booleans()):
        # An equal body in a new object must encode the same.
        store = {key: Annotation(dict(a.entities), a.warnings)
                 for key, a in store.items()}
    return store


class TestWriteAnnotationStore:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(store=_stores(), annotator=st.sampled_from(["", "mock-1", "é\"\\"]))
    def test_matches_one_json_dumps_per_record(self, tmp_path_factory, store,
                                               annotator):
        path = tmp_path_factory.mktemp("store") / "store.jsonl"
        write_annotation_store(path, store, annotator=annotator)
        assert path.read_text(encoding="utf-8") == annotation_store_text(
            store, annotator)

    def test_round_trips_through_the_reader(self, tmp_path):
        shared = Annotation({"Genre": Confidence.HIGH}, ("odd line",))
        store = {("q1", "generalist"): shared, ("q2", "generalist"): shared,
                 ("q1", "skeptic"): Annotation()}
        path = tmp_path / "store.jsonl"
        write_annotation_store(path, store, annotator="m")
        assert read_annotation_store(path) == store


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
