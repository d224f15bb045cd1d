import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from querydistill import features
from querydistill.data import query_id
from querydistill.errors import MissingEmbeddingError, ModelError
from querydistill.features import (EncodedTexts, HashedNgramEmbedder,
                                   PrecomputedEmbedder, encoder_from_descriptor,
                                   hashed_ngram_matrices)


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
        embedder = HashedNgramEmbedder(dim=32, seed=0)
        grams = embedder.ngrams("ab")
        # padded to "<ab>": 3-grams "<ab", "ab>", 4-gram "<ab>"
        assert grams == ["<ab", "ab>", "<ab>"]

    def test_bucket_cache_stays_bounded(self):
        embedder = HashedNgramEmbedder(dim=64, seed=0)
        rng = np.random.default_rng(0)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        texts = ["".join(rng.choice(letters, size=60)) for _ in range(600)]
        vectors = [embedder.embed(t) for t in texts]
        distinct = {g for t in texts for g in embedder.ngrams(t)}
        assert len(distinct) > features.BUCKET_CACHE_LIMIT
        assert len(embedder._bucket_cache) <= features.BUCKET_CACHE_LIMIT
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


def write_vectors(path, rows):
    with open(path, "w") as fh:
        for text, vector in rows:
            fh.write(json.dumps({"id": query_id(text), "vector": vector}) + "\n")


class TestPrecomputedEmbedder:
    def test_descriptor_round_trip(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_vectors(path, [("known", [1.0, 0.0])])
        rebuilt = encoder_from_descriptor(PrecomputedEmbedder(path).descriptor())
        assert rebuilt.embed("known").tolist() == [1.0, 0.0]
        with pytest.raises(MissingEmbeddingError):
            rebuilt.embed("unknown")

    @pytest.mark.parametrize("rows", [
        [("a", [1.0, float("nan")])],
        [("a", [1.0, float("inf")])],
        [("a", [[1.0, 0.0]])],
        [("a", [1.0, 0.0]), ("b", [1.0, 0.0, 0.0])],
    ])
    def test_bad_vectors_rejected_at_load(self, tmp_path, rows):
        path = tmp_path / "vectors.jsonl"
        write_vectors(path, rows)
        with pytest.raises(ModelError):
            PrecomputedEmbedder(path)


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(texts=_batches(), dim=st.integers(1, 300), seed=st.integers(0, 50))
    def test_precomputed_rows_equal_embed_bit_for_bit(self, texts, dim, seed):
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "vectors.jsonl")
            write_vectors(path, [(t, rng.normal(size=dim).tolist())
                                 for t in set(texts) or {"x"}])
            encoder = PrecomputedEmbedder(path)
        matrix = encoder.encode_batch(texts)
        expected = np.array([encoder.embed(t) for t in texts]).reshape(
            len(texts), dim)
        assert matrix.shape == (len(texts), dim)
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
        matrices = hashed_ngram_matrices(texts, seed, dims)
        assert len(matrices) == len(dims)
        for dim, matrix in zip(dims, matrices):
            encoder = HashedNgramEmbedder(dim=dim, seed=seed)
            expected = np.array([encoder.embed(t) for t in texts]).reshape(
                len(texts), dim)
            assert matrix.dtype == np.float64
            assert matrix.tobytes() == expected.tobytes()
            assert matrix.tobytes() == encoder.encode_batch(texts).tobytes()

    def test_blank_text_raises_like_embed(self):
        for texts in (["  "], ["comedy", "", "sport"], ["ok", " \t\n"]):
            with pytest.raises(ValueError, match="empty text"):
                hashed_ngram_matrices(texts, 0, (16, 64))


class TestEncodedTexts:
    def test_stored_rows_and_encoder_identity(self):
        encoder = HashedNgramEmbedder(dim=32, seed=3)
        texts = ["comedy movies", "sport", "Ünïcode"]
        encoded = EncodedTexts(encoder, texts)
        assert (encoded.kind, encoded.dim, encoded.tag) == (
            encoder.kind, encoder.dim, encoder.tag)
        assert encoded.descriptor() == encoder.descriptor()
        assert encoded.embed("sport").tobytes() == encoder.embed("sport").tobytes()
        assert (encoded.encode_batch(["Ünïcode", "comedy movies", "Ünïcode"])
                .tobytes() == encoder.encode_batch(
                    ["Ünïcode", "comedy movies", "Ünïcode"]).tobytes())
        assert encoded.encode_batch([]).shape == (0, 32)
        with pytest.raises(KeyError):
            encoded.embed("never encoded")
