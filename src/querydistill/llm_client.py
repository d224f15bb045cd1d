"""Uniform annotator interface: HTTP endpoints and a deterministic mock.

Both annotator kinds sit behind ``annotate_batch``: responses come back
positionally aligned with the prompts, transient failures are retried after
a uniform draw up to an exponential backoff (so that workers failing
together retry apart) or after a 429 or 503's ``Retry-After`` seconds, up
to ``RETRY_AFTER_CAP``; permanent failures become failure records instead
of aborting the batch, and every successful response is appended to an
on-disk response log keyed by digest(model name + prompt text). Prompts come
as (``PromptFrame``, query) pairs and the keys from each frame's hash state,
so only an HTTP request renders a prompt's text. The log is read once into
memory when the cache opens, so a completed batch re-run against the same
cache performs zero annotator calls and opens no descriptor.

The mock annotator is a gazetteer lookup with optional persona biases,
seeded confidence noise, and prompt-section awareness (entries marked
ambiguous resolve correctly only when the prompt carries in-context
examples). It renders responses in the same line format real endpoints are
instructed to use, so the whole pipeline can run offline.
"""

import hashlib
import json
import os
import random
import re
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .annotations import Annotation, Confidence, render_annotation
from .data import normalize_query
from .errors import AnnotatorConfigError
from .optim import COUNT, FRACTION, NON_NEGATIVE, check_fields

RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
# The longest wait a 429 or 503 response's Retry-After header can ask for.
RETRY_AFTER_CAP = 60.0


@dataclass(frozen=True)
class HttpEndpointConfig:
    url: str
    model: str
    auth_env: str = ""
    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 0.5
    in_flight_limit: int = 4
    requests_per_second: float = 2.0

    def __post_init__(self):
        check_fields(self, {
            "timeout": ("number", lambda v: v > 0, "> 0"),
            "max_retries": ("integer", lambda v: v >= 0, ">= 0"),
            "backoff": NON_NEGATIVE, "in_flight_limit": COUNT,
            "requests_per_second": NON_NEGATIVE}, AnnotatorConfigError)


@dataclass(frozen=True)
class MockConfig:
    """Deterministic fake annotator.

    ``persona_bias`` maps persona id -> {"add": {entity: level}, "remove":
    [entity, ...]} and refuses any other key; ``_bias`` holds it parsed,
    as persona id -> ((entity, Confidence) adds in entity order,
    removals). ``ambiguous`` maps a
    gazetteer phrase, normalized here, to the wrong entity (or None, for
    none) the mock emits when the prompt lacks ICL examples.
    """

    gazetteer: object = None
    seed: int = 0
    noise_rate: float = 0.0
    persona_bias: dict = field(default_factory=dict)
    ambiguous: dict = field(default_factory=dict)
    _bias: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self, {"seed": ("integer", lambda v: v >= 0, ">= 0"),
                            "noise_rate": FRACTION}, AnnotatorConfigError)
        object.__setattr__(self, "persona_bias", _checked(
            self.persona_bias or {}, dict, "persona_bias"))
        object.__setattr__(self, "ambiguous", {
            normalize_query(k): v
            for k, v in _checked(self.ambiguous or {}, dict, "ambiguous").items()})
        object.__setattr__(self, "_bias", {})
        for persona, spec in self.persona_bias.items():
            where = f"persona_bias {persona!r}"
            for key in _checked(spec, dict, where):
                if key not in ("add", "remove"):
                    raise AnnotatorConfigError(f"{where}: unknown key: {key!r}")
            add = _checked(spec.get("add", {}), dict, f"{where} add")
            try:
                adds = tuple((entity, Confidence.from_label(level)
                              if isinstance(level, str) else Confidence(level))
                             for entity, level in sorted(add.items()))
            except (TypeError, ValueError) as exc:
                raise AnnotatorConfigError(f"{where} add: {exc}") from None
            self._bias[persona] = (adds, tuple(_checked(
                spec.get("remove", ()), (list, tuple), f"{where} remove")))

    def entities(self):
        """(config key, entity) of each entity the biases and ambiguity name."""
        for persona, (adds, removes) in self._bias.items():
            yield from ((f"persona_bias {persona!r} add", e) for e, _ in adds)
            yield from ((f"persona_bias {persona!r} remove", e) for e in removes)
        yield from ((f"ambiguous {phrase!r}", e)
                    for phrase, e in self.ambiguous.items() if e is not None)


def _checked(value, kind, what):
    """``value`` if a ``kind`` (dict or list), else an error naming ``what``."""
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise AnnotatorConfigError(f"{what} must be {shape}, got {value!r}")
    return value


@dataclass
class ClientStats:
    calls: int = 0
    cache_hits: int = 0
    failures: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def count(self, attr, n=1):
        with self._lock:
            setattr(self, attr, getattr(self, attr) + n)


class AnnotatorHandle:
    """One annotator (HTTP endpoint or mock) plus its call statistics."""

    def __init__(self, config):
        self.config = config
        self.stats = ClientStats()
        # The name keys the response cache: a mock's digests everything its
        # responses depend on, its gazetteer's (entity, phrase) pairs too.
        if isinstance(config, HttpEndpointConfig):
            self.model_name = config.model
        elif isinstance(config, MockConfig):
            digest = hashlib.sha256(json.dumps({
                "seed": config.seed,
                "noise_rate": config.noise_rate,
                "persona_bias": config.persona_bias,
                "ambiguous": config.ambiguous,
                "gazetteer": sorted([e, " ".join(p)] for e, phrases
                                    in config.gazetteer.phrases.items()
                                    for p in phrases),
            }, sort_keys=True).encode("utf-8")).hexdigest()
            self.model_name = f"mock-{digest[:12]}"
        else:
            raise AnnotatorConfigError(f"unsupported annotator config: {config!r}")


def mock_handle(gazetteer, seed=0, noise_rate=0.0, persona_bias=None, ambiguous=None):
    return AnnotatorHandle(MockConfig(gazetteer, seed, noise_rate,
                                      persona_bias, ambiguous))


@dataclass(frozen=True)
class AnnotationFailure:
    index: int
    error: str
    attempts: int = 0


# The response log's file name inside a cache directory.
LOG_NAME = "responses.log"
_KEY = re.compile(r"\S+")


def _record(key, payload):
    """One log line: the key, the CRC32 of key and payload, the payload."""
    if not isinstance(key, str) or not _KEY.fullmatch(key):
        raise ValueError(f"cache key must be non-empty without whitespace: {key!r}")
    key = key.encode("utf-8")
    return b"%s %08x %s\n" % (key, zlib.crc32(payload, zlib.crc32(key)), payload)


def _replay(data):
    """(index, torn) from the bytes of a response log; ``index`` maps each
    key to its response text. Records apply in file order: a response sets
    its key only when the key is absent, so the first one wins, and a
    tombstone (payload ``null``) removes the key. A line whose checksum
    fails or whose payload is not a JSON string is skipped, and so is a
    last line without a newline; ``torn`` says the file ends in one. Each
    distinct payload is decoded once, so equal responses share one ``str``.
    """
    index, texts = {}, {}
    lines = data.split(b"\n")
    for line in lines[:-1]:
        key, _, rest = line.partition(b" ")
        crc, _, payload = rest.partition(b" ")
        if crc != b"%08x" % zlib.crc32(payload, zlib.crc32(key)):
            continue
        key = key.decode("utf-8")
        if payload == b"null":
            index.pop(key, None)
        elif key not in index and payload[:1] == b'"':
            if payload not in texts:
                try:
                    texts[payload] = json.loads(payload)
                except ValueError:  # a JSONDecodeError or UnicodeDecodeError
                    texts[payload] = None
            if texts[payload] is not None:
                index[key] = texts[payload]
    return index, bool(lines[-1])


class ResponseCache:
    """Append-only response store: one log file and an in-memory index.

    Each line of ``responses.log`` is one record, ``<key> <crc32> <payload>``:
    the cache key, the CRC32 of key and payload in 8 hex digits, and the
    response as a JSON string, or ``null`` for a tombstone. Opening the
    cache reads the whole log into memory once and keeps each key's response
    text (see ``_replay``), so ``get`` is a lookup and a warm replay opens
    no descriptor. The index keeps one text per distinct payload; for a log
    whose payloads are all distinct, as real LLM output would be, that is
    about one log's worth of text. ``put`` and ``discard`` append one record
    with a single ``write`` on an ``O_APPEND`` descriptor, opened on first
    use, so records from concurrent writers never interleave; a log that
    ends in a torn line gets a newline first. ``close``, or leaving a
    ``with`` block, releases the descriptor. This is the Bitcask design
    (Sheehy & Smith, 2010) with the values held in the index.
    """

    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, LOG_NAME)
        self._lock = threading.Lock()
        self._fd = None
        try:
            with open(self.path, "rb") as fh:
                self._index, self._torn = _replay(fh.read())
        except FileNotFoundError:
            self._index, self._torn = {}, False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    @staticmethod
    def key(prompt_text, model_name):
        data = model_name.encode("utf-8") + b"\x00" + prompt_text.encode("utf-8")
        return hashlib.sha256(data).hexdigest()

    def get(self, key):
        return self._index.get(key)

    def put(self, key, text):
        payload = json.dumps(text).encode("ascii")
        with self._lock:
            if key not in self._index:
                self._append(key, payload)
                self._index[key] = text

    def discard(self, key):
        """Drop ``key``'s response with a tombstone, so later runs ask again."""
        with self._lock:
            if self._index.pop(key, None) is not None:
                self._append(key, b"null")

    def _append(self, key, payload):
        """Append one record (lock held)."""
        record = _record(key, payload)
        if self._torn:
            record = b"\n" + record
        if self._fd is None:
            self._fd = os.open(self.path,
                               os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        written = os.write(self._fd, record)
        if written != len(record):
            self._torn = True
            raise OSError(f"short write to {self.path}: "
                          f"{written} of {len(record)} bytes")
        self._torn = False


class RateLimiter:
    """Serializes request starts to at most ``rate`` per second."""

    def __init__(self, rate):
        self._interval = 1.0 / rate if rate > 0 else 0.0
        self._lock = threading.Lock()
        self._next_slot = 0.0

    def wait(self):
        if not self._interval:
            return
        with self._lock:
            now = time.monotonic()
            slot = max(now, self._next_slot)
            self._next_slot = slot + self._interval
        delay = slot - now
        if delay > 0:
            time.sleep(delay)


# ---------------------------------------------------------------------------
# Mock annotator
# ---------------------------------------------------------------------------

_LEVELS = (Confidence.LOW, Confidence.MEDIUM, Confidence.HIGH)


def mock_annotate(handle, query, persona=None, sections=()):
    """Deterministic fake response for one query; ``persona`` is a persona id.

    Labels come from gazetteer lookup over the normalized query; entries in
    the ambiguity table are mislabeled unless the prompt included an "icl"
    section; persona biases then add (at the configured level) or remove
    entities; finally, with probability noise_rate (seeded per query and
    persona) one label's confidence is moved to a different level. The
    result is rendered in the standard response line format.
    """
    config = handle.config
    persona_id = persona or ""
    icl_present = "icl" in sections

    labels = {}
    for phrase, entity in config.gazetteer.matches(query):
        if not icl_present and phrase in config.ambiguous:
            entity = config.ambiguous[phrase]
        if entity is not None:
            labels[entity] = Confidence.HIGH

    adds, removes = config._bias.get(persona_id, ((), ()))
    labels.update(adds)
    for entity in removes:
        labels.pop(entity, None)

    if config.noise_rate > 0 and labels:
        rng = random.Random(f"{config.seed}:{normalize_query(query)}:{persona_id}")
        if rng.random() < config.noise_rate:
            victim = rng.choice(sorted(labels))
            others = [lv for lv in _LEVELS if lv != labels[victim]]
            labels[victim] = rng.choice(others)

    return render_annotation(Annotation(entities=labels))


# ---------------------------------------------------------------------------
# HTTP annotator
# ---------------------------------------------------------------------------

def _http_call(handle, prompt_text, limiter, session):
    import requests  # only the HTTP path pays for importing requests

    config = handle.config
    headers = {}
    if config.auth_env:
        headers["Authorization"] = f"Bearer {os.environ[config.auth_env]}"
    last_error = "no attempt made"
    attempts = 0
    retry_after = None
    for attempt in range(config.max_retries + 1):
        if attempt:
            time.sleep(random.uniform(0, config.backoff * 2 ** (attempt - 1))
                       if retry_after is None else retry_after)
            retry_after = None
        limiter.wait()
        attempts += 1
        handle.stats.count("calls")
        try:
            response = session.post(
                config.url,
                json={"model": config.model, "prompt": prompt_text},
                headers=headers,
                timeout=config.timeout,
            )
        except requests.RequestException as exc:
            last_error = f"request failed: {exc}"
            continue
        if response.status_code == 200:
            # An empty or undecodable body is a failed call, never cached.
            try:
                text = response.content.decode("utf-8")
            except UnicodeDecodeError:
                last_error = "response body is not valid UTF-8"
                continue
            if text:
                return text, attempts, None
            last_error = "empty response body"
            continue
        last_error = f"status {response.status_code}"
        if response.status_code not in RETRYABLE_STATUSES:
            return None, attempts, last_error
        retry_after = _retry_after(response)
    return None, attempts, last_error


def _retry_after(response):
    """Seconds a 429 or 503 response's delta-seconds ``Retry-After`` asks
    to wait, capped at ``RETRY_AFTER_CAP``; None for any other status, a
    missing header or one in another form (such as an HTTP date)."""
    if response.status_code not in (429, 503):
        return None
    value = response.headers.get("Retry-After", "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), RETRY_AFTER_CAP)


def prompt_keys(prompts, model_name):
    """``ResponseCache.key(frame.render(query).text, model_name)`` of each
    ``(PromptFrame, query)`` pair, without rendering the text: each frame's
    hash state after the model name and its text up to the first query is
    made once, and a copy of it absorbs the query and the later pieces."""
    prefixes = {}
    for frame, query in prompts:
        if frame not in prefixes:
            prefixes[frame] = (
                hashlib.sha256(model_name.encode("utf-8") + b"\x00"
                               + frame.pieces[0].encode("utf-8")),
                [piece.encode("utf-8") for piece in frame.pieces[1:]])
        prefix, rest = prefixes[frame]
        state = prefix.copy()
        query = query.encode("utf-8")
        for piece in rest:
            state.update(query)
            state.update(piece)
        yield state.hexdigest()


def annotate_batch(handle, prompts, cache=None):
    """Annotate ``(PromptFrame, query)`` pairs; returns responses aligned
    with the pair order.

    Each element is either the raw response string or an AnnotationFailure.
    Successful responses are written to ``cache`` (when given) and served
    from it on re-runs without touching the annotator. Cache keys come from
    ``prompt_keys`` and the mock reads only the query, persona and sections,
    so a prompt's text is rendered only when an HTTP request sends it.
    """
    if not prompts:
        raise ValueError("annotate_batch got no prompts")
    config = handle.config
    if isinstance(config, HttpEndpointConfig) and config.auth_env \
            and config.auth_env not in os.environ:
        raise AnnotatorConfigError(f"auth env var {config.auth_env!r} is not set")

    model_name = handle.model_name
    results = [None] * len(prompts)
    pending = []
    keys = prompt_keys(prompts, model_name)
    for index, ((frame, query), key) in enumerate(zip(prompts, keys)):
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            handle.stats.count("cache_hits")
            results[index] = cached
        else:
            pending.append((index, frame, query, key))

    if not pending:
        return results

    if isinstance(config, MockConfig):
        for index, frame, query, key in pending:
            handle.stats.count("calls")
            response = mock_annotate(handle, query, frame.persona_id,
                                     frame.sections)
            if cache is not None:
                cache.put(key, response)
            results[index] = response
        return results

    import requests

    limiter = RateLimiter(config.requests_per_second)
    session = requests.Session()

    def worker(item):
        index, frame, query, key = item
        response, attempts, error = _http_call(
            handle, frame.render(query).text, limiter, session)
        if error is not None:
            handle.stats.count("failures")
            return index, AnnotationFailure(index=index, error=error, attempts=attempts)
        if cache is not None:
            cache.put(key, response)
        return index, response

    with ThreadPoolExecutor(max_workers=config.in_flight_limit) as pool:
        for index, outcome in pool.map(worker, pending):
            results[index] = outcome
    return results
