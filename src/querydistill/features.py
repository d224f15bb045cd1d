"""The query encoder that the classifier and the persona gate share.

``HashedNgramEmbedder`` is the one encoder: character 3-5-grams of the
normalized query (wrapped in boundary markers) are hashed with a keyed
digest into a fixed number of signed buckets, then L2-normalized
(Weinberger et al., "Feature Hashing for Large Scale Multitask Learning",
ICML 2009). Deterministic across processes and platforms: the digest is
keyed by the seed, never by Python's per-process string hashing.

It embeds any query, seen in training or not, so one encoder serves
training and real-time inference. It exposes ``kind``, ``dim``, ``tag``,
``descriptor()``, ``embed(text)`` for one query and ``encode_batch(texts)``
for an ``(n, dim)`` matrix whose rows equal ``embed``'s;
``encoder_from_descriptor`` rebuilds it from its descriptor.
``hashed_ngram_counts`` is ``encode_batch`` in one n-gram pass, held as
``CountRows``: each row's integer bucket counts, int8 at most widths, and
one float64 divisor per row, gathered into float rows of its consumer's
dtype by row index. A pipeline run encodes each query once, and both the
classifier and the persona gate gather their float32 rows from those
counts, so no float matrix of every row is held. The pass encodes a block
of texts at a time straight into counts allocated once, so beyond them
it holds one block's transients and the window memo.
``hashed_ngram_matrix`` is that pass made dense. ``row_blocks`` is the
one block policy of every whole-corpus pass: this encode, the classifier's
batch scoring and the gate's selection; each scores a row alone, so its
bits do not depend on the blocks.

Both hashed paths digest a query window by window (``_windows``) and keep
each window's joined digests in a ``_WindowMemo``: the embedder's memo is
bounded and lives as long as the embedder, a batch call's memo spans all
of that call's blocks and ends with the call. ``BoundedMemo`` is the
keep/clear-at-limit policy of the embedder's memo, which the server's
response memo shares.
"""

import functools
import hashlib
import threading

import numpy as np

from .data import normalize_query
from .errors import ModelError

NGRAM_SIZES = (3, 4, 5)
_BOUNDARY_OPEN = "<"
_BOUNDARY_CLOSE = ">"
# The embedder's window memo is cleared when its size would pass this
# limit, so a long-running server fed novel tokens stays bounded in memory.
# A window counts as its n-gram count plus WINDOW_KEY_CHARGE, so that
# windows of few n-grams cannot pile up: a window's key string, bytes
# header and dict slot take about 130 bytes, so even a window of one
# n-gram holds at most about 26 bytes per counted unit. A window counting
# more than the limit is encoded but not kept.
BUCKET_CACHE_LIMIT = 1 << 16
WINDOW_KEY_CHARGE = 4
# Every whole-corpus pass (``hashed_ngram_counts``, the classifier's
# batch scoring, the router's selection, the matrix file's writer) takes
# at most this many rows at a time (``row_blocks``), so its transients stay
# bounded however many queries a run holds. Each pass treats a row alone,
# so no output depends on this size; 64 rows keep a block's float64
# transients near a quarter of a megabyte at 512 columns.
BLOCK_ROWS = 64


def row_blocks(n):
    """Slices of ``range(n)``, in order, of at most ``BLOCK_ROWS`` rows."""
    for start in range(0, n, BLOCK_ROWS):
        yield slice(start, min(start + BLOCK_ROWS, n))


def _digest(ngram, key):
    """The n-gram's 8-byte blake2b digest keyed by ``key``."""
    return hashlib.blake2b(ngram.encode("utf-8"), digest_size=8,
                           key=key).digest()


def _windows(text):
    """Each token window of the padded, normalized text, with the length
    of its head.

    A head is one separator (the opening marker for the first token, a
    space for the others) and one token; its window adds the next <= 4
    characters of the padded text. Every 3-5-gram starts in exactly one
    head and ends inside its window. The head ends before the window's
    first space after its first character or, with none, before its last
    character (the closing marker), so a window's n-grams depend on the
    window string alone, and the string keys the memo.
    """
    if not text.strip():
        raise ValueError("cannot embed empty text")
    padded = _BOUNDARY_OPEN + normalize_query(text) + _BOUNDARY_CLOSE
    start = 0
    for token in padded[1:-1].split(" "):
        end = start + 1 + len(token)
        yield padded[start:end + 4], end - start
        start = end


def _window_ngrams(window, head):
    """The 3-5-grams that start in the window's first ``head`` characters."""
    return [window[start:start + size] for size in NGRAM_SIZES
            for start in range(min(head, len(window) - size + 1))]


class BoundedMemo:
    """A dict whose entries each count a cost, kept within ``limit``.

    It is cleared whenever keeping an entry would take its size past
    ``limit``, and an entry costing more than ``limit`` is not kept (its
    caller still uses the value). Reads are plain ``entries.get`` calls;
    the lock keeps the size equal to the sum over the kept entries when
    server threads share the memo.
    """

    def __init__(self, limit):
        self.limit = limit
        self._lock = threading.Lock()
        self.entries = {}
        self.size = 0

    def keep(self, key, value, cost):
        if cost > self.limit:
            return
        with self._lock:
            if key in self.entries:
                return
            if self.size + cost > self.limit:
                self.entries.clear()
                self.size = 0
            self.entries[key] = value
            self.size += cost


class _WindowMemo(BoundedMemo):
    """Each window's n-gram digests, from ``digest(ngram)``, joined in one
    bytes object and kept by window string, within ``limit`` (see
    ``BUCKET_CACHE_LIMIT``)."""

    def __init__(self, digest, limit):
        super().__init__(limit)
        self._digest = digest

    @staticmethod
    def cost(digests):
        return len(digests) // 8 + WINDOW_KEY_CHARGE

    def text_digests(self, text):
        """The joined digests of each of the text's windows, in order."""
        parts = []
        for window, head in _windows(text):
            digests = self.entries.get(window)
            if digests is None:
                ngrams = _window_ngrams(window, head)
                digest = self._digest
                if len(ngrams) + WINDOW_KEY_CHARGE > self.limit:
                    # Too big to keep: digest each distinct n-gram once.
                    distinct = dict.fromkeys(ngrams)
                    digest = dict(zip(distinct, map(digest, distinct))).__getitem__
                digests = b"".join(map(digest, ngrams))
                self.keep(window, digests, self.cost(digests))
            parts.append(digests)
        return parts


def _bucket_counts(values, rows, n, dim):
    """The ``(n, dim)`` float64 matrix in which each digest value adds
    +1.0 (top bit clear) or -1.0 (set) to bucket ``value % dim`` of its
    row (``rows``, or row 0 when None), and each row's scale, its L2 norm
    or 1 if that is larger. Every entry is a sum of +-1.0, so the sums and
    norms are exact whatever the order of the values. A row of integers is
    zero or has a norm >= 1, so a row divided by its scale has unit norm
    and a zero row stays zero."""
    # As an int64 a value is negative iff its top bit is set, and then its
    # arithmetic shift by 63 is -1, else 0.
    signs = (values.view(np.int64) >> 63) | 1
    cells = (values % np.uint64(dim)).astype(np.intp)
    if rows is not None:
        cells += rows * dim
    # With no values at all, bincount returns integers.
    matrix = np.bincount(cells, weights=signs, minlength=n * dim)
    matrix = matrix.astype(float, copy=False).reshape(n, dim)
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    return matrix, np.maximum(norms, 1.0, out=norms)


class CountRows:
    """Feature rows held as their n-gram counts and one divisor per row.

    ``counts`` (n, dim) holds each row's signed bucket counts as int8, or
    as the narrowest of int16 and int32 that holds a larger count, and
    ``scale`` (n,) each row's float64 divisor, its L2 norm or 1 if that is
    larger. ``rows[idx]``, for row indices or a slice, is
    ``(counts[idx] / scale[idx, None]).astype(dtype)``: the float64 quotient
    that ``embed`` returns, stored in ``dtype``. At int8 the counts take a
    quarter of the bytes of a float32 matrix.
    """

    def __init__(self, counts, scale, dtype):
        self.counts, self.scale, self.dtype = counts, scale, np.dtype(dtype)

    @property
    def shape(self):
        return self.counts.shape

    def __len__(self):
        return len(self.counts)

    def __getitem__(self, rows):
        return (self.counts[rows] / self.scale[rows, None]).astype(
            self.dtype, copy=False)


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
        self._memo = _WindowMemo(
            functools.partial(_digest, key=int(seed).to_bytes(8, "little")),
            BUCKET_CACHE_LIMIT)

    @property
    def tag(self):
        return f"ngram:dim={self.dim}:seed={self.seed}"

    def descriptor(self):
        return {"kind": self.kind, "dim": self.dim, "seed": self.seed}

    def embed(self, text):
        """Signed bucket counts of the text's n-grams, L2-normalized."""
        values = np.frombuffer(b"".join(self._memo.text_digests(text)),
                               dtype="<u8")
        counts, scale = _bucket_counts(values, None, 1, self.dim)
        return counts[0] / scale[0]

    def encode_batch(self, texts):
        """One ``embed(text)`` row per text; see ``hashed_ngram_matrix``."""
        return hashed_ngram_matrix(texts, self.seed, self.dim)


class _KnownDigests(dict):
    """n-gram -> its digest keyed by ``key``, digested on first lookup."""

    def __init__(self, key):
        super().__init__()
        self.key = key

    def __missing__(self, ngram):
        value = self[ngram] = _digest(ngram, self.key)
        return value


def hashed_ngram_counts(texts, seed, dim, dtype=np.float64):
    """The ``CountRows`` of ``HashedNgramEmbedder(dim, seed).encode_batch(
    texts)``, whose rows come out in ``dtype``: each distinct window and
    each distinct n-gram is digested once, and each block of ``row_blocks``
    costs one ``np.bincount``. The counts start as int8 and are widened
    once a block holds a count that int8 cannot."""
    key = int(seed).to_bytes(8, "little")
    # This memo lives for one call only, so it keeps every window.
    memo = _WindowMemo(_KnownDigests(key).__getitem__, float("inf"))
    counts = np.empty((len(texts), dim), np.int8)
    scale = np.empty(len(texts))
    for rows in row_blocks(len(texts)):
        block = texts[rows]
        parts, lengths = [], []
        for text in block:
            text_parts = memo.text_digests(text)
            parts += text_parts
            lengths.append(sum(map(len, text_parts)) // 8)
        values = np.frombuffer(b"".join(parts), dtype="<u8")
        cells = np.repeat(np.arange(len(block)), lengths)
        block_counts, scale[rows] = _bucket_counts(values, cells, len(block),
                                                   dim)
        # A signed type's max is -1 - its min, so the narrowest type that
        # holds the block's min and -1 - its max holds every count.
        low = min(int(block_counts.min()), -1 - int(block_counts.max()))
        fits = np.promote_types(counts.dtype, np.min_scalar_type(low))
        if fits != counts.dtype:
            counts = counts.astype(fits)
        counts[rows] = block_counts
        del block_counts  # before the next block's are counted
    return CountRows(counts, scale, dtype)


def hashed_ngram_matrix(texts, seed, dim, dtype=np.float64):
    """``hashed_ngram_counts`` made dense: the ``(n, dim)`` matrix of
    ``HashedNgramEmbedder(dim, seed).encode_batch(texts)``, stored in
    ``dtype``; its float64 rows equal ``embed``'s bit for bit."""
    return hashed_ngram_counts(texts, seed, dim, dtype)[:]


def encoder_from_descriptor(descriptor):
    """The encoder a ``descriptor()`` describes; ModelError for a kind other
    than ``hashed_ngram``."""
    kind = descriptor.get("kind")
    if kind == HashedNgramEmbedder.kind:
        return HashedNgramEmbedder(dim=descriptor["dim"], seed=descriptor["seed"])
    raise ModelError(f"unknown encoder kind: {kind!r}")
