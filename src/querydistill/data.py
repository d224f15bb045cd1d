"""Query-log ingestion and deterministic splits."""

import hashlib
import json
import random
from dataclasses import dataclass

from .errors import DataError, MalformedLineError, QueryDistillError


def normalize_query(text):
    """Trim, collapse internal whitespace runs to single spaces, case-fold."""
    return " ".join(text.split()).casefold()


def query_id(text):
    """Stable id: hex digest of the normalized text."""
    digest = hashlib.sha256(normalize_query(text).encode("utf-8")).hexdigest()
    return digest[:16]


@dataclass(frozen=True)
class QueryRecord:
    """A search query with its occurrence frequency.

    Frequencies weight every "weighted" metric downstream, mirroring how
    often real users issued the query.
    """

    id: str
    text: str
    frequency: int = 1

    def __post_init__(self):
        if not self.text:
            raise DataError("query text is empty")
        if self.frequency < 1:
            raise DataError(f"frequency must be >= 1, got {self.frequency}")


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple
    dev: tuple
    test: tuple
    seed: int

    @property
    def parts(self):
        return {"train": self.train, "dev": self.dev, "test": self.test}


def _parse_line(line, number):
    stripped = line.strip()
    if stripped.startswith("{"):
        try:
            record = json.loads(stripped)
            text, frequency = record["text"], record.get("frequency", 1)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise MalformedLineError(number, f"bad JSON record ({exc})") from exc
        if not isinstance(text, str):
            raise MalformedLineError(number, f"text not a string: {text!r}")
    else:
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise MalformedLineError(number, "expected 'query<TAB>frequency'")
        text, frequency = parts
        try:
            frequency = int(frequency)
        except ValueError:
            pass
    # A JSON frequency must be an integer already: int() reads 1.9 and
    # true as 1. A bool is an int subclass, hence type() and not isinstance.
    if type(frequency) is not int:
        raise MalformedLineError(number, f"frequency not an integer: {frequency!r}")
    if frequency < 1:
        raise MalformedLineError(number, f"frequency must be >= 1, got {frequency}")
    return text, frequency


def ingest_queries(source):
    """Read a query stream into deduplicated QueryRecords.

    ``source`` is an iterable of lines (an open file works). Each line is
    either "query<TAB>frequency" or a JSON object {"text": ..., "frequency": ...}.
    Records are deduplicated by normalized text with frequencies summed;
    output keeps first-seen order.
    """
    seen = {}
    order = []
    number = 0
    for number, line in enumerate(source, start=1):
        if not line.strip():
            continue
        text, frequency = _parse_line(line, number)
        normalized = normalize_query(text)
        if not normalized:
            raise MalformedLineError(number, "query text empty after normalization")
        if normalized in seen:
            seen[normalized] += frequency
        else:
            seen[normalized] = frequency
            order.append(normalized)
    if not order:
        raise DataError("no query records in input")
    return [QueryRecord(id=query_id(t), text=t, frequency=seen[t]) for t in order]


def render_queries(records):
    """Render records in the line format ``ingest_queries`` reads: tab-
    separated, or a JSON object for a text that would read as one."""
    return "".join(
        json.dumps({"text": r.text, "frequency": r.frequency}) + "\n"
        if r.text.startswith("{") else f"{r.text}\t{r.frequency}\n"
        for r in records)


def read_queries(path):
    """``ingest_queries`` of the file at ``path``. Each DataError names the
    file, and a bad line, one that is not UTF-8 included, its number."""
    def lines(fh):
        for number, line in enumerate(fh, start=1):
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLineError(number, f"not UTF-8 ({exc.reason})") from None

    with open(path, "rb") as fh:
        try:
            return ingest_queries(lines(fh))
        except DataError as exc:
            where = "" if isinstance(exc, MalformedLineError) else ":"
            raise DataError(f"{path}{where} {exc}") from exc


def write_queries_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({"id": r.id, "text": r.text, "frequency": r.frequency},
                                sort_keys=True) + "\n")


def check_ratios(ratios, error=DataError):
    """``error`` unless the (train, dev, test) ``ratios`` are positive and
    sum to 1 within 1e-9; a NaN fails both."""
    train_r, dev_r, test_r = ratios
    if not all(r > 0 for r in ratios):
        raise error(f"ratios must be positive, got {ratios}")
    if not abs(train_r + dev_r + test_r - 1.0) <= 1e-9:
        raise error(f"ratios must sum to 1, got {ratios}")


def split_sizes(n, ratios):
    """The (train, dev, test) part sizes of ``n`` records split by
    ``ratios`` (see ``check_ratios``), by the largest-remainder rule, so
    each part is within one record of its exact fraction; a part may be
    empty. DataError for fewer than 3 records."""
    check_ratios(ratios)
    if n < 3:
        raise DataError(f"need at least 3 records to split, got {n}")
    exact = [n * r for r in ratios]
    sizes = [int(x) for x in exact]
    remainders = [x - s for x, s in zip(exact, sizes)]
    for _ in range(n - sum(sizes)):
        best = max(range(3), key=lambda i: (remainders[i], -i))
        sizes[best] += 1
        remainders[best] = -1.0
    return sizes


def split_dataset(records, ratios, seed):
    """Deterministic train/dev/test partition of records.

    ``ratios`` is (train, dev, test), positive, summing to 1 within 1e-9.
    Records are shuffled by a seeded permutation of ids and sliced into
    parts of ``split_sizes``.
    """
    sizes = split_sizes(len(records), ratios)
    ordered = sorted(records, key=lambda r: r.id)
    rng = random.Random(seed)
    rng.shuffle(ordered)

    train = tuple(ordered[: sizes[0]])
    dev = tuple(ordered[sizes[0]: sizes[0] + sizes[1]])
    test = tuple(ordered[sizes[0] + sizes[1]:])
    return DatasetSplit(train=train, dev=dev, test=test, seed=seed)


def write_split_manifest(path, split):
    """JSON Lines manifest: a header carrying the seed, then one id/part row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"seed": split.seed}) + "\n")
        for part in ("train", "dev", "test"):
            for record in split.parts[part]:
                fh.write(json.dumps({"id": record.id, "part": part}) + "\n")


def read_jsonl(path, parse, error=DataError):
    """``parse(record)`` of each non-blank line of the JSON Lines file at
    ``path``, in file order. ``error`` names the file and the 1-based line
    of a line that is not a JSON object or whose record ``parse`` refuses
    with a KeyError, TypeError, ValueError, AttributeError or
    QueryDistillError."""
    items = []
    # Read as bytes, so that a line that is not UTF-8 fails in json.loads,
    # with its line number, and not in the file iterator.
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError("record is not a JSON object")
                items.append(parse(record))
            except json.JSONDecodeError as exc:
                raise error(f"{path} line {number}: not valid JSON "
                            f"({exc.msg})") from exc
            except KeyError as exc:
                raise error(f"{path} line {number}: no {exc.args[0]!r} "
                            "field") from exc
            except (AttributeError, TypeError, ValueError,
                    QueryDistillError) as exc:
                raise error(f"{path} line {number}: {exc}") from exc
    return items
