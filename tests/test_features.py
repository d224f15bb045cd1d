import json

import numpy as np
import pytest

from querydistill import features
from querydistill.data import query_id
from querydistill.errors import MissingEmbeddingError, ModelError
from querydistill.features import (HashedNgramEmbedder, PrecomputedEmbedder,
                                   encoder_from_descriptor)


class TestHashedNgramEmbedder:
    def test_deterministic_across_instances(self):
        a = HashedNgramEmbedder(dim=128, seed=5).embed("comedy movies")
        b = HashedNgramEmbedder(dim=128, seed=5).embed("comedy movies")
        assert np.array_equal(a, b)

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
