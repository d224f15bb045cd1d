import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from querydistill.data import (QueryRecord, ingest_queries, normalize_query,
                               query_id, render_queries, split_dataset)
from querydistill.errors import DataError, MalformedLineError


class TestIngest:
    def test_dedupe_sums_frequencies(self):
        records = ingest_queries(["comedy movies\t5", "Comedy  Movies\t2"])
        assert len(records) == 1
        assert records[0].text == "comedy movies"
        assert records[0].frequency == 7

    def test_passthrough(self):
        records = ingest_queries(["tom hanks movies\t1"])
        assert len(records) == 1
        assert records[0].frequency == 1

    def test_missing_frequency_is_malformed(self):
        with pytest.raises(MalformedLineError) as err:
            ingest_queries(["only-text-no-frequency"])
        assert err.value.line_number == 1

    def test_json_lines_accepted(self):
        records = ingest_queries(['{"text": "french movies", "frequency": 3}'])
        assert records[0].frequency == 3

    def test_zero_records_rejected(self):
        with pytest.raises(DataError):
            ingest_queries(["", "   "])

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(MalformedLineError):
            ingest_queries(["comedy\t0"])

    def test_id_is_function_of_normalized_text(self):
        assert query_id("Comedy  Movies ") == query_id("comedy movies")

    def test_idempotent_under_rerender(self):
        rng = random.Random(11)
        words = ["comedy", "french", "movies", "tom", "hanks", "2023"]
        lines = []
        for _ in range(40):
            text = " ".join(rng.choices(words, k=rng.randint(1, 4)))
            lines.append(f"{text}\t{rng.randint(1, 9)}")
        once = ingest_queries(lines)
        twice = ingest_queries(render_queries(once).splitlines())
        assert once == twice

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lines=st.lists(st.tuples(st.text(min_size=1, max_size=20),
                                    st.integers(1, 10 ** 6)), max_size=12))
    def test_rendered_records_round_trip(self, lines):
        texts = {}
        for text, frequency in lines:
            if normalize_query(text):
                texts.setdefault(normalize_query(text), frequency)
        records = [QueryRecord(id=query_id(text), text=text,
                               frequency=frequency)
                   for text, frequency in texts.items()]
        if records:
            assert ingest_queries(io.StringIO(render_queries(records))) == \
                records


class TestSplit:
    def make(self, n):
        return [QueryRecord(id=f"{i:04d}", text=f"query {i}", frequency=1)
                for i in range(n)]

    def test_sizes_10_records(self):
        split = split_dataset(self.make(10), (0.7, 0.1, 0.2), seed=42)
        assert (len(split.train), len(split.dev), len(split.test)) == (7, 1, 2)

    def test_sizes_100k_records(self):
        split = split_dataset(self.make(100_000), (0.7, 0.1, 0.2), seed=0)
        assert (len(split.train), len(split.dev), len(split.test)) == \
            (70_000, 10_000, 20_000)

    def test_ratio_sum_violation(self):
        with pytest.raises(DataError, match="sum"):
            split_dataset(self.make(10), (0.5, 0.5, 0.5), seed=0)

    def test_too_small(self):
        with pytest.raises(DataError, match="at least 3"):
            split_dataset(self.make(2), (0.7, 0.1, 0.2), seed=0)

    def test_deterministic_given_seed(self):
        records = self.make(50)
        assert split_dataset(records, (0.7, 0.1, 0.2), 9) == \
            split_dataset(records, (0.7, 0.1, 0.2), 9)
        assert split_dataset(records, (0.7, 0.1, 0.2), 9) != \
            split_dataset(records, (0.7, 0.1, 0.2), 10)

    def test_partition_property(self):
        rng = random.Random(3)
        for trial in range(25):
            n = rng.randint(3, 200)
            records = self.make(n)
            a = rng.uniform(0.1, 0.8)
            b = rng.uniform(0.05, min(0.9 - a, 0.5))
            split = split_dataset(records, (a, b, 1.0 - a - b), seed=trial)
            ids = [r.id for r in split.train + split.dev + split.test]
            assert len(ids) == n
            assert len(set(ids)) == n
            assert set(ids) == {r.id for r in records}
            for part, ratio in zip((split.train, split.dev, split.test),
                                   (a, b, 1.0 - a - b)):
                assert abs(len(part) - n * ratio) <= 1.0


def test_normalize_query():
    assert normalize_query("  Comedy   MOVIES ") == "comedy movies"


def test_split_manifest_round_trip(tmp_path):
    from querydistill.data import split_dataset, write_split_manifest
    records = [QueryRecord(id=f"{i:03d}", text=f"query {i}", frequency=1)
               for i in range(20)]
    split = split_dataset(records, (0.7, 0.1, 0.2), seed=5)
    path = tmp_path / "split.jsonl"
    write_split_manifest(path, split)
    with open(path, encoding="utf-8") as fh:
        header, *rows = [json.loads(line) for line in fh]
    assert header == {"seed": 5}
    assignment = {row["id"]: row["part"] for row in rows}
    for part in ("train", "dev", "test"):
        for record in split.parts[part]:
            assert assignment[record.id] == part
    assert len(assignment) == 20
