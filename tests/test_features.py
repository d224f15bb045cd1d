import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from querydistill import features
from querydistill.errors import ModelError
from querydistill.features import (HashedNgramEmbedder,
                                   encoder_from_descriptor,
                                   hashed_ngram_counts, hashed_ngram_matrix)
from querydistill.synth import synth_gazetteer, synth_queries


class TestHashedNgramEmbedder:
    def test_deterministic_across_instances(self):
        a = HashedNgramEmbedder(dim=128, seed=5).embed("comedy movies")
        b = HashedNgramEmbedder(dim=128, seed=5).embed("comedy movies")
        assert np.array_equal(a, b)

    def test_distinct_texts_differ_under_shipped_seed(self):
        embedder = HashedNgramEmbedder(dim=512)  # the shipped default seed
        assert not np.array_equal(embedder.embed("a"), embedder.embed("b"))

    def test_seed_changes_projection(self):
        a = HashedNgramEmbedder(dim=128, seed=0).embed("comedy movies")
        b = HashedNgramEmbedder(dim=128, seed=1).embed("comedy movies")
        assert not np.array_equal(a, b)

    def test_normalization_invariance(self):
        embedder = HashedNgramEmbedder(dim=64, seed=0)
        assert np.array_equal(embedder.embed("Comedy  MOVIES "),
                              embedder.embed("comedy movies"))

    def test_l2_normalized(self):
        embedder = HashedNgramEmbedder(dim=64, seed=0)
        for text in ("x", "ab", "a longer query with words"):
            assert abs(np.linalg.norm(embedder.embed(text)) - 1.0) < 1e-12

    def test_single_character_still_embeds(self):
        embedder = HashedNgramEmbedder(dim=32, seed=0)
        vec = embedder.embed("a")
        assert np.linalg.norm(vec) > 0

    def test_rejects_empty_and_bad_params(self):
        with pytest.raises(ValueError):
            HashedNgramEmbedder(dim=0)
        with pytest.raises(ValueError):
            HashedNgramEmbedder(seed=-1)
        with pytest.raises(ValueError):
            HashedNgramEmbedder().embed("  ")

    def test_ngram_sizes_three_to_five(self):
        # padded to "<ab>": one window, "<ab>" with a head of 3 characters,
        # holding 3-grams "<ab", "ab>" and 4-gram "<ab>"
        grams = [gram for window, head in features._windows("ab")
                 for gram in features._window_ngrams(window, head)]
        assert grams == ["<ab", "ab>", "<ab>"] == oracles.ngrams("ab")

    def test_bucket_cache_stays_bounded(self):
        embedder = HashedNgramEmbedder(dim=64, seed=0)
        rng = np.random.default_rng(0)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        texts = ["".join(rng.choice(letters, size=60)) for _ in range(600)]
        vectors = [embedder.embed(t) for t in texts]
        distinct = {g for t in texts for g in oracles.ngrams(t)}
        assert len(distinct) > features.BUCKET_CACHE_LIMIT
        # The bound, restated over the window memo: its size (n-gram
        # counts plus key charges) stays within the limit. TestWindowMemo
        # checks the memo in bytes.
        assert_memo_consistent(embedder)
        assert len(embedder._memo.entries) < len(texts)  # it was cleared
        fresh = HashedNgramEmbedder(dim=64, seed=0)
        for text, vec in zip(texts, vectors):
            assert np.array_equal(vec, fresh.embed(text))

    def test_tag_and_descriptor_round_trip(self):
        embedder = HashedNgramEmbedder(dim=64, seed=7)
        assert embedder.tag == "ngram:dim=64:seed=7"
        assert embedder.descriptor() == {"kind": "hashed_ngram", "dim": 64,
                                         "seed": 7}
        rebuilt = encoder_from_descriptor(embedder.descriptor())
        assert np.array_equal(rebuilt.embed("comedy"), embedder.embed("comedy"))
        with pytest.raises(ModelError):
            encoder_from_descriptor({"kind": "unknown"})


def assert_memo_consistent(embedder):
    """The memo's size is the sum of its windows' costs, within the limit."""
    memo = embedder._memo
    assert memo.size == sum(map(memo.cost, memo.entries.values()))
    assert memo.size <= features.BUCKET_CACHE_LIMIT


def traced_growth(work):
    """Bytes that ``work()`` leaves allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def former_memo_bytes_at_limit():
    """What the former per-n-gram memo held at its limit:
    ``BUCKET_CACHE_LIMIT`` distinct 4-character n-grams, each keyed to a
    (bucket, sign) tuple."""
    kept = []
    return traced_growth(lambda: kept.append(
        {f"{i:04x}": (i % 64, 1.0)
         for i in range(features.BUCKET_CACHE_LIMIT)}))


class MeasuredWindows(dict):
    """A memo dict that measures itself before each clear, when it is at
    its largest: ``peak`` is the most bytes that tracemalloc counts for
    an equal dict of equal, newly made window strings and digest bytes.
    Embedding untraced and measuring copies keeps the test fast."""

    peak = 0

    def measure(self):
        kept = []
        self.peak = max(self.peak, traced_growth(lambda: kept.append(
            {window.encode().decode(): bytes(bytearray(digests))
             for window, digests in self.items()})))
        return self.peak

    def clear(self):
        self.measure()
        super().clear()


class TestWindowMemo:
    """Adversarial inputs keep the embedder's memo within its limit and
    within what the former per-n-gram memo held at its limit."""

    @pytest.fixture(scope="class")
    def former_bytes(self):
        return former_memo_bytes_at_limit()

    @staticmethod
    def measured_embedder(dim, seed):
        embedder = HashedNgramEmbedder(dim=dim, seed=seed)
        embedder._memo.entries = MeasuredWindows()
        return embedder

    def test_one_character_tokens(self, former_bytes):
        # ASCII letters and CJK ideographs: the CJK ones make many distinct
        # windows of one n-gram, such as " 中>", the smallest there are.
        rng = np.random.default_rng(1)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz")
                           + [chr(0x4E00 + i) for i in range(2000)])
        texts = [" ".join(rng.choice(letters, size=5)) for _ in range(20000)]
        embedder = self.measured_embedder(64, 0)
        for text in texts:
            embedder.embed(text)
        assert embedder._memo.entries.measure() <= former_bytes
        assert_memo_consistent(embedder)
        for text in texts[-50:]:
            assert embedder.embed(text).tobytes() == oracles.hashed_ngram_embed(
                text, 64, 0).tobytes()

    def test_one_token_longer_than_the_limit(self, former_bytes):
        text = "".join(np.random.default_rng(2).choice(
            np.array(list("abcdefghijklmnopqrstuvwxyz")), size=60000))
        embedder = self.measured_embedder(256, 7)
        vector = embedder.embed(text)
        assert embedder._memo.entries.measure() <= former_bytes
        assert embedder._memo.entries == {} and embedder._memo.size == 0
        assert vector.tobytes() == oracles.hashed_ngram_embed(
            text, 256, 7).tobytes()

    def test_repeated_letter_token_digests_each_ngram_once(self,
                                                            monkeypatch):
        # One window of ~180,000 n-grams, too big to keep, of 9 distinct.
        digested = []
        real = features._digest
        monkeypatch.setattr(features, "_digest", lambda ngram, key: (
            digested.append(ngram) or real(ngram, key)))
        text = "x" * 60000
        vector = HashedNgramEmbedder(dim=256, seed=7).embed(text)
        assert len(digested) <= 10
        assert vector.tobytes() == oracles.hashed_ngram_embed(
            text, 256, 7).tobytes()

    def test_threads_embedding_at_once(self, former_bytes):
        rng = np.random.default_rng(3)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        texts = [" ".join("".join(rng.choice(letters, size=6))
                          for _ in range(3)) for _ in range(2000)]
        embedder = self.measured_embedder(64, 0)
        errors = []

        def embed_all():
            try:
                for text in texts:
                    embedder.embed(text)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=embed_all) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert embedder._memo.entries.measure() <= former_bytes
        assert_memo_consistent(embedder)
        for text in texts[::100]:
            assert embedder.embed(text).tobytes() == oracles.hashed_ngram_embed(
                text, 64, 0).tobytes()


# Texts of 1-12 characters from ASCII, accented and CJK letters, digits and
# whitespace; lists are drawn from a small pool, so duplicates are common.
_TEXTS = st.text(alphabet=st.sampled_from(list("ab z9Éßé中文 \t")),
                 min_size=1, max_size=12).filter(str.strip)


@st.composite
def _batches(draw):
    pool = draw(st.lists(_TEXTS, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=0, max_size=12))


class TestEncodeBatch:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(texts=_batches(), dim=st.integers(1, 300), seed=st.integers(0, 50))
    # At dim=1 the n-gram signs of "q12" cancel: a zero row, left unscaled.
    @example(texts=["a", "é", "a", "中文", "ab", "q12"], dim=1, seed=0)
    @example(texts=[], dim=300, seed=0)
    def test_hashed_rows_equal_embed_bit_for_bit(self, texts, dim, seed):
        encoder = HashedNgramEmbedder(dim=dim, seed=seed)
        matrix = encoder.encode_batch(texts)
        expected = np.array([encoder.embed(t) for t in texts]).reshape(
            len(texts), dim)
        assert matrix.shape == (len(texts), dim)
        assert matrix.dtype == np.float64
        assert matrix.tobytes() == expected.tobytes()

    def test_blank_text_raises_like_embed(self):
        encoder = HashedNgramEmbedder(dim=16, seed=0)
        for texts in (["  "], ["comedy", "", "sport"], ["ok", " \t\n"]):
            with pytest.raises(ValueError, match="empty text"):
                encoder.encode_batch(texts)


class TestSharedNgramPass:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(texts=_batches(), dims=st.lists(st.integers(1, 300), min_size=2,
                                           max_size=2, unique=True),
           seed=st.integers(0, 50))
    @example(texts=["a", "é", "a", "中文", "Ünïcode ß", "ab", "a"],
             dims=[64, 256], seed=7)
    def test_each_dim_equals_its_encoder_bit_for_bit(self, texts, dims, seed):
        for dim in dims:
            matrix = hashed_ngram_matrix(texts, seed, dim)
            encoder = HashedNgramEmbedder(dim=dim, seed=seed)
            expected = np.array([encoder.embed(t) for t in texts]).reshape(
                len(texts), dim)
            assert matrix.dtype == np.float64
            assert matrix.tobytes() == expected.tobytes()
            assert matrix.tobytes() == encoder.encode_batch(texts).tobytes()

    def test_blank_text_raises_like_embed(self):
        for texts in (["  "], ["comedy", "", "sport"], ["ok", " \t\n"]):
            with pytest.raises(ValueError, match="empty text"):
                hashed_ngram_matrix(texts, 0, 16)

    def test_every_block_size_gives_the_same_bytes(self, monkeypatch):
        records, _ = synth_queries(synth_gazetteer(), 60, seed=3)
        texts = _EDGE_QUERIES + [r.text for r in records]
        dims, dtypes = (64, 256), (np.float64, np.float32)
        encoded = []
        for block_rows in (1, 7, len(texts)):
            monkeypatch.setattr(features, "BLOCK_ROWS", block_rows)
            encoded.append([hashed_ngram_matrix(texts, 7, dim, dtype).tobytes()
                            for dim, dtype in zip(dims, dtypes)])
        assert encoded[0] == encoded[1] == encoded[2]
        # A float32 matrix holds the float64 rows, each rounded once.
        full = [hashed_ngram_matrix(texts, 7, dim) for dim in dims]
        assert encoded[0] == [full[0].tobytes(),
                              full[1].astype(np.float32).tobytes()]

    def test_peak_memory_is_outputs_and_one_block(self):
        # The texts of synth-2000, seed 7: 1,731 unique queries, so
        # several blocks. The call's window memo keeps every window; beyond
        # it and the output (int8 counts and float64 scales, 264 bytes a
        # row), one block's float64 rows and its per-n-gram arrays take
        # under 6 KiB a row of these texts at 256 columns.
        records, _ = synth_queries(synth_gazetteer(), 2000, seed=7)
        texts = [r.text for r in records]
        assert len(texts) > 4 * features.BLOCK_ROWS
        memos = []

        def fill_memo():
            memo = features._WindowMemo(
                features._KnownDigests(bytes(8)).__getitem__, float("inf"))
            for text in texts:
                memo.text_digests(text)
            memos.append(memo)

        memo_bytes = traced_growth(fill_memo)
        tracemalloc.start()
        try:
            rows = hashed_ngram_counts(texts, 7, 256, np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.counts.dtype == np.int8
        assert peak < (rows.counts.nbytes + rows.scale.nbytes + memo_bytes
                       + features.BLOCK_ROWS * 6 * 1024)


class TestCountRows:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(texts=_batches().filter(len), dim=st.integers(1, 300),
           seed=st.integers(0, 50), block_rows=st.integers(1, 8),
           data=st.data())
    def test_rows_equal_dense_and_embed_bit_for_bit(self, texts, dim, seed,
                                                    block_rows, data):
        # Any encode block size, any index order (repeats included) and any
        # block of rows: float64 rows are embed's, float32 rows are embed's
        # rounded once, and both are the dense matrix's.
        n = len(texts)
        order = np.asarray(data.draw(st.lists(st.integers(0, n - 1),
                                              max_size=20)), np.intp)
        start = data.draw(st.integers(0, n))
        block = slice(start, data.draw(st.integers(start, n)))
        encoder = HashedNgramEmbedder(dim=dim, seed=seed)
        embedded = np.array([encoder.embed(t) for t in texts])
        with mock.patch.object(features, "BLOCK_ROWS", block_rows):
            for dtype in (np.float64, np.float32):
                rows = hashed_ngram_counts(texts, seed, dim, dtype)
                dense = hashed_ngram_matrix(texts, seed, dim, dtype)
                expected = embedded.astype(dtype)
                assert rows.shape == dense.shape == (n, dim)
                assert dense.dtype == dtype
                assert dense.tobytes() == expected.tobytes()
                for index in (order, block):
                    picked = rows[index]
                    assert picked.dtype == dtype
                    assert picked.tobytes() == expected[index].tobytes()

    @pytest.mark.parametrize("length, wide", [(120, np.int8),
                                              (400, np.int16),
                                              (33000, np.int32)])
    def test_counts_take_the_narrowest_type_that_holds_them(
            self, length, wide, monkeypatch):
        # A token of n letters "a" adds n - 2 "aaa" 3-grams to one bucket:
        # 118 fit int8, 398 pass it and 32,998 pass int16. Blocks of 2
        # rows store the first block as int8 before the second one widens
        # the counts.
        monkeypatch.setattr(features, "BLOCK_ROWS", 2)
        texts = ["comedy movies", "tom hanks", "a" * length, "football"]
        encoder = HashedNgramEmbedder(dim=512, seed=7)
        embedded = np.array([encoder.embed(t) for t in texts])
        for dtype in (np.float64, np.float32):
            rows = hashed_ngram_counts(texts, 7, 512, dtype)
            assert rows.counts.dtype == wide
            assert np.abs(rows.counts[2]).max() >= length - 2
            assert rows[:].tobytes() == embedded.astype(dtype).tobytes()
            assert rows[[3, 2, 0]].tobytes() \
                == embedded[[3, 2, 0]].astype(dtype).tobytes()


class TestRowBlocks:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(0, 3000), block_rows=st.integers(1, 300))
    @example(n=2049, block_rows=256)
    @example(n=257, block_rows=256)
    def test_blocks_cover_the_rows_within_the_bound(self, n, block_rows):
        with mock.patch.object(features, "BLOCK_ROWS", block_rows):
            blocks = list(features.row_blocks(n))
        assert [row for block in blocks for row in range(n)[block]] \
            == list(range(n))
        lengths = [block.stop - block.start for block in blocks]
        assert all(1 <= length <= block_rows for length in lengths)
        # As few blocks as the bound allows.
        assert len(blocks) == -(-n // block_rows)


# Queries of 1-5 tokens of 1-8 characters (ASCII, "<" and ">", accented
# letters, "ß" and "İ", whose case folds are longer, and CJK), between and
# around runs of spaces and tabs.
_TOKENS = st.text(alphabet=st.sampled_from(list("ab9<>ÉéßİÅ中文")),
                  min_size=1, max_size=8)
_GAPS = st.text(alphabet=st.sampled_from([" ", "\t"]), min_size=1,
                max_size=3)


@st.composite
def _queries(draw):
    parts = [draw(_GAPS) if draw(st.booleans()) else ""]
    for token in draw(st.lists(_TOKENS, min_size=1, max_size=5)):
        parts += [token, draw(_GAPS)]
    if draw(st.booleans()):
        parts.pop()
    return "".join(parts)


@st.composite
def _query_batches(draw):
    pool = draw(st.lists(_queries(), min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), min_size=0, max_size=10))


_EDGE_QUERIES = ["<", ">", "x>y <z", "a\t\t b  \t c", "中文 查询", "ß İ",
                 "a" * 600, "a b c d e f", "ab", "q12", "<<<< >>>>"]


class TestPerNgramOracle:
    """Every hashed path equals ``oracles.hashed_ngram_embed``, the former
    encoder, which digests every n-gram of the text one at a time."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(texts=_query_batches(), dim=st.integers(1, 300),
           seed=st.integers(0, 50))
    @example(texts=_EDGE_QUERIES, dim=256, seed=7)
    @example(texts=_EDGE_QUERIES, dim=1, seed=0)
    def test_embed_bit_for_bit(self, texts, dim, seed):
        embedder = HashedNgramEmbedder(dim=dim, seed=seed)
        # A memo that keeps only windows of at most 16 n-grams, and is
        # cleared at nearly every one it keeps.
        with mock.patch.object(features, "BUCKET_CACHE_LIMIT",
                               2 * features.WINDOW_KEY_CHARGE):
            small = HashedNgramEmbedder(dim=dim, seed=seed)
        for text in texts + texts:  # the second pass reads the memos
            expected = oracles.hashed_ngram_embed(text, dim, seed)
            assert embedder.embed(text).tobytes() == expected.tobytes()
            assert small.embed(text).tobytes() == expected.tobytes()
        assert_memo_consistent(embedder)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(texts=_query_batches(),
           dims=st.lists(st.integers(1, 300), min_size=2, max_size=2,
                         unique=True),
           seed=st.integers(0, 50))
    @example(texts=_EDGE_QUERIES, dims=[64, 256], seed=7)
    def test_batch_rows_bit_for_bit(self, texts, dims, seed):
        expected = [np.array([oracles.hashed_ngram_embed(t, dim, seed)
                              for t in texts]).reshape(len(texts), dim)
                    for dim in dims]
        for dim, rows in zip(dims, expected):
            assert hashed_ngram_matrix(texts, seed, dim).tobytes() \
                == rows.tobytes()
            assert HashedNgramEmbedder(dim=dim, seed=seed).encode_batch(
                texts).tobytes() == rows.tobytes()
