import pytest

from querydistill.annotations import Confidence
from querydistill.errors import DataError
from querydistill.baseline import Gazetteer, lexical_match, load_gazetteer, write_gazetteer


class TestLexicalMatch:
    def test_single_phrase(self):
        gaz = Gazetteer(phrases={"Genre": ["comedy"]})
        assert lexical_match(gaz, "comedy movies").entities == \
            {"Genre": Confidence.HIGH}

    def test_overlapping_phrases_one_label(self):
        gaz = Gazetteer(phrases={"Genre": ["romantic comedy", "comedy"]})
        assert lexical_match(gaz, "romantic comedy").entities == \
            {"Genre": Confidence.HIGH}

    def test_no_match_is_empty(self):
        gaz = Gazetteer(phrases={"Genre": ["comedy"]})
        assert lexical_match(gaz, "tom hanks").entities == {}

    def test_token_boundaries(self):
        gaz = Gazetteer(phrases={"Theme": ["art"]})
        assert lexical_match(gaz, "start here").entities == {}
        assert lexical_match(gaz, "modern art films").entities == \
            {"Theme": Confidence.HIGH}

    def test_case_and_whitespace_invariant(self):
        gaz = Gazetteer(phrases={"Sport": ["manchester united"]})
        a = lexical_match(gaz, "Manchester   United games")
        b = lexical_match(gaz, "manchester united games")
        assert a.entities == b.entities == {"Sport": Confidence.HIGH}

    def test_adding_phrases_is_monotone(self, tiny_gazetteer):
        queries = ["comedy movies", "watch football", "free stuff",
                   "horror movie night", "tennis finals"]
        bigger = Gazetteer(phrases={
            "Genre": ["comedy", "horror", "noir"],
            "Sport": ["football", "tennis", "cricket"],
            "IntentMovie": ["movies", "movie", "film"],
        })
        for q in queries:
            assert tiny_gazetteer.match(q) <= bigger.match(q)

    def test_phrase_length_bounds(self):
        with pytest.raises(ValueError):
            Gazetteer(phrases={"Theme": ["one two three four five six"]})


def test_gazetteer_file_round_trip(tmp_path, tiny_gazetteer):
    path = tmp_path / "gaz.jsonl"
    write_gazetteer(path, tiny_gazetteer)
    loaded = load_gazetteer(path)
    assert loaded.phrases == tiny_gazetteer.phrases


def test_default_gazetteer_covers_registry(registry):
    from querydistill.baseline import default_gazetteer
    gaz = default_gazetteer()
    assert set(gaz.entities) == set(registry.ids)
    assert lexical_match(gaz, "Tom Hanks movies").entities == {
        "CastAndCrew": Confidence.HIGH, "IntentMovie": Confidence.HIGH}


@pytest.mark.parametrize("line, reason", [
    ('{"entity": "Genre", "phrases": [', "not valid JSON"),
    ('{"phrases": ["comedy"]}', "no 'entity' field"),
    ('{"entity": "Genre"}', "no 'phrases' field"),
    ('{"entity": "Genre", "phrases": ["a b c d e f"]}',
     "gazetteer phrase must be 1-5 tokens: 'a b c d e f'"),
    ('{"entity": "Genre", "phrases": [" "]}',
     "gazetteer phrase must be 1-5 tokens: ' '"),
    ('{"entity": "Genre", "phrases": [5]}', "'int' object has no attribute")],
    ids=["json", "entity", "phrases", "long-phrase", "empty-phrase",
         "phrase-type"])
def test_bad_gazetteer_line_names_file_and_line(tmp_path, line, reason):
    path = tmp_path / "gazetteer.jsonl"
    path.write_text('{"entity": "Sport", "phrases": ["golf"]}\n' + line + "\n")
    with pytest.raises(DataError) as refused:
        load_gazetteer(path)
    assert str(refused.value).startswith(f"{path} line 2: {reason}")
