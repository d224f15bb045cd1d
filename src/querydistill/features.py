"""Query encoders shared by the router and the classifier.

``HashedNgramEmbedder`` is the built-in encoder: character 3-5-grams of the
normalized query (wrapped in boundary markers) are hashed with a keyed
digest into a fixed number of signed buckets, then L2-normalized
(Weinberger et al., "Feature Hashing for Large Scale Multitask Learning",
ICML 2009). Deterministic across processes and platforms: the digest is
keyed by the seed, never by Python's per-process string hashing.

``PrecomputedEmbedder`` looks up vectors computed offline, keyed by query
id, so it can only encode queries whose vectors are in its file.

Both expose ``kind``, ``dim``, ``tag``, ``descriptor()``, ``embed(text)``
for one query and ``encode_batch(texts)`` for an ``(n, dim)`` matrix whose
rows equal ``embed``'s; ``encoder_from_descriptor`` rebuilds either one from
its descriptor. ``EncodedTexts`` holds one encoder's matrix for a fixed list
of texts, and ``hashed_ngram_matrices`` builds the matrices of several
hashed dims of one seed from one n-gram pass, so a pipeline run extracts
each text's n-grams once for both of its encoders.
"""

import hashlib
import json

import numpy as np

from .data import normalize_query, query_id
from .errors import MissingEmbeddingError, ModelError

NGRAM_SIZES = (3, 4, 5)
_BOUNDARY_OPEN = "<"
_BOUNDARY_CLOSE = ">"
# The bucket memo is cleared when it reaches this many n-grams, so a
# long-running server fed novel tokens stays bounded in memory. It is a pure
# memo: a race between server threads can at worst clear it twice.
BUCKET_CACHE_LIMIT = 1 << 16


def _digest(ngram, key):
    """The n-gram's 8-byte blake2b digest keyed by ``key``."""
    return hashlib.blake2b(ngram.encode("utf-8"), digest_size=8,
                           key=key).digest()


class HashedNgramEmbedder:
    """Projects text to a dense vector of ``dim`` signed hash buckets."""

    kind = "hashed_ngram"

    def __init__(self, dim=256, seed=0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.dim = dim
        self.seed = seed
        self._key = int(seed).to_bytes(8, "little")
        self._bucket_cache = {}

    @property
    def tag(self):
        return f"ngram:dim={self.dim}:seed={self.seed}"

    def descriptor(self):
        return {"kind": self.kind, "dim": self.dim, "seed": self.seed}

    def _bucket(self, ngram):
        cached = self._bucket_cache.get(ngram)
        if cached is None:
            value = int.from_bytes(_digest(ngram, self._key), "little")
            cached = (value % self.dim, 1.0 if value >> 63 == 0 else -1.0)
            if len(self._bucket_cache) >= BUCKET_CACHE_LIMIT:
                self._bucket_cache.clear()
            self._bucket_cache[ngram] = cached
        return cached

    @staticmethod
    def ngrams(text):
        padded = _BOUNDARY_OPEN + normalize_query(text) + _BOUNDARY_CLOSE
        out = [padded[start:start + size] for size in NGRAM_SIZES
               for start in range(len(padded) - size + 1)]
        return out or [padded]

    def embed(self, text):
        """Signed bucket counts of the text's n-grams, L2-normalized."""
        if not text.strip():
            raise ValueError("cannot embed empty text")
        vec = np.zeros(self.dim)
        for ngram in self.ngrams(text):
            idx, sign = self._bucket(ngram)
            vec[idx] += sign
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    def encode_batch(self, texts):
        """One ``embed(text)`` row per text; see ``hashed_ngram_matrices``."""
        return hashed_ngram_matrices(texts, self.seed, (self.dim,))[0]


def hashed_ngram_matrices(texts, seed, dims):
    """``HashedNgramEmbedder(dim, seed).encode_batch(texts)`` for each dim in
    ``dims``, from one pass: an n-gram's keyed digest depends on the seed
    only (the bucket is the digest modulo the dim, the sign its top bit), so
    each distinct n-gram is digested once and each dim costs one
    ``np.bincount``. Every entry is a sum of +-1.0, so the sums and norms
    are exact and each row is bit-identical to ``embed``'s."""
    # ``codes`` gives each n-gram occurrence the index of its distinct
    # n-gram, in order of first sight.
    index, codes, lengths = {}, [], []
    for text in texts:
        if not text.strip():
            raise ValueError("cannot embed empty text")
        text_grams = HashedNgramEmbedder.ngrams(text)
        codes += [index.setdefault(gram, len(index)) for gram in text_grams]
        lengths.append(len(text_grams))
    codes = np.array(codes, dtype=np.intp)
    key = int(seed).to_bytes(8, "little")
    digests = np.frombuffer(b"".join(_digest(gram, key) for gram in index),
                            dtype="<u8")
    signs = np.where(digests >> np.uint64(63) == 0, 1.0, -1.0)[codes]
    rows = np.repeat(np.arange(len(texts)), lengths)
    matrices = []
    for dim in dims:
        cells = rows * dim + (digests % np.uint64(dim)).astype(np.intp)[codes]
        # With no texts at all, bincount returns integers.
        matrix = np.bincount(cells, weights=signs, minlength=len(texts) * dim)
        matrix = matrix.astype(float, copy=False).reshape(len(texts), dim)
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        norms[norms == 0] = 1.0
        matrix /= norms[:, None]
        matrices.append(matrix)
    return matrices


class PrecomputedEmbedder:
    """Vectors computed offline, looked up by query id.

    File format: JSON Lines {"id": ..., "vector": [...]}. Every vector must
    be finite, 1-d and of one common dimension; the file is rejected at load
    time otherwise. Use this to plug in a real contextual embedding service
    run offline.
    """

    kind = "precomputed"

    def __init__(self, path):
        self._path = str(path)
        self._vectors = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    record = json.loads(line)
                    vec = np.asarray(record["vector"], dtype=float)
                    if vec.ndim != 1 or not np.isfinite(vec).all():
                        raise ModelError(
                            f"{path}: vector for id {record['id']!r} is not "
                            "a finite 1-d vector")
                    self._vectors[record["id"]] = vec
        if not self._vectors:
            raise MissingEmbeddingError(f"no vectors in {path}")
        dims = {v.shape[0] for v in self._vectors.values()}
        if len(dims) != 1:
            raise ModelError(f"inconsistent vector dims in {path}: {sorted(dims)}")
        self.dim = dims.pop()

    @property
    def tag(self):
        return f"precomputed:{self._path}"

    def descriptor(self):
        return {"kind": self.kind, "dim": self.dim, "path": self._path}

    def embed(self, text):
        qid = query_id(text)
        try:
            return self._vectors[qid]
        except KeyError:
            raise MissingEmbeddingError(
                f"no precomputed vector for query {text!r} (id {qid})") from None

    def encode_batch(self, texts):
        return np.array([self.embed(text) for text in texts],
                        dtype=float).reshape(len(texts), self.dim)


class EncodedTexts:
    """One encoder's ``encode_batch`` matrix for a fixed list of texts.

    Stands in for the encoder where only those texts are encoded, as in one
    pipeline run: ``encode_batch`` and ``embed`` return stored rows, and
    ``kind``, ``dim``, ``tag`` and ``descriptor()`` are the encoder's. A text
    outside the list raises KeyError. ``matrix``, when given, is the
    encoder's ``encode_batch(texts)``, computed elsewhere.
    """

    def __init__(self, encoder, texts, matrix=None):
        self.encoder = encoder
        self.matrix = encoder.encode_batch(texts) if matrix is None else matrix
        self._rows = {text: row for row, text in enumerate(texts)}

    @property
    def kind(self):
        return self.encoder.kind

    @property
    def dim(self):
        return self.encoder.dim

    @property
    def tag(self):
        return self.encoder.tag

    def descriptor(self):
        return self.encoder.descriptor()

    def embed(self, text):
        return self.matrix[self._rows[text]]

    def encode_batch(self, texts):
        return self.matrix[[self._rows[text] for text in texts]]


def encoder_from_descriptor(descriptor):
    kind = descriptor.get("kind")
    if kind == HashedNgramEmbedder.kind:
        return HashedNgramEmbedder(dim=descriptor["dim"], seed=descriptor["seed"])
    if kind == PrecomputedEmbedder.kind:
        return PrecomputedEmbedder(descriptor["path"])
    raise ModelError(f"unknown encoder kind: {kind!r}")
