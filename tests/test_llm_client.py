import io
import json
import threading
import tracemalloc
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from querydistill.annotations import Confidence
from querydistill.errors import AnnotatorConfigError
from querydistill import llm_client
from querydistill.llm_client import (LOG_NAME, RETRY_AFTER_CAP,
                                     AnnotationFailure, AnnotatorHandle,
                                     HttpEndpointConfig, RateLimiter,
                                     ResponseCache, _http_call, _record,
                                     _replay, annotate_batch, mock_annotate,
                                     mock_handle)
from querydistill.prompting import PromptConfig, PromptFrame, parse_response
from querydistill.taxonomy import default_registry


# A frame whose prompt text is the query itself, so a scripted server
# answers each prompt by its query.
BARE_FRAME = PromptFrame(PromptConfig(), default_registry(), template="{query}")


def bare_prompts(*queries):
    return [(BARE_FRAME, query) for query in queries]


class ScriptedServer:
    """HTTP server answering from a per-prompt script of status codes."""

    def __init__(self, script):
        # prompt -> list of statuses, or of bytes answered as a 200 body;
        # once the list is empty, 200 with an echo of the prompt
        self.script = dict(script)
        self.requests = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                body = json.loads(self.rfile.read(length))
                prompt = body["prompt"]
                with outer._lock:
                    outer.requests.append(prompt)
                    statuses = outer.script.get(prompt, [])
                    status = statuses.pop(0) if statuses else 200
                if status == 200 or isinstance(status, bytes):
                    payload = (status if isinstance(status, bytes)
                               else f"echo:{prompt}".encode("utf-8"))
                    self.send_response(200)
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                else:
                    self.send_response(status)
                    self.send_header("Content-Length", "0")
                    self.end_headers()

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/annotate"

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def http_config():
    def make(url, **kwargs):
        defaults = dict(url=url, model="fake-model", backoff=0.01,
                        requests_per_second=0.0, in_flight_limit=2)
        defaults.update(kwargs)
        return HttpEndpointConfig(**defaults)
    return make


class TestMockAnnotator:
    def test_gazetteer_lookup(self, tiny_gazetteer):
        handle = mock_handle(tiny_gazetteer, noise_rate=0.0)
        response = mock_annotate(handle, "comedy movies")
        assert response == "Genre|High\nIntentMovie|High"

    def test_deterministic(self, tiny_gazetteer):
        handle = mock_handle(tiny_gazetteer, seed=3, noise_rate=0.5)
        a = mock_annotate(handle, "comedy movies", persona="movie_buff")
        b = mock_annotate(handle, "comedy movies", persona="movie_buff")
        assert a == b

    def test_persona_bias_adds_entity(self, tiny_gazetteer):
        handle = mock_handle(
            tiny_gazetteer,
            persona_bias={"sports_fan": {"add": {"Sport": "Low"}}})
        response = mock_annotate(handle, "comedy movies", persona="sports_fan")
        assert "Sport|Low" in response
        plain = mock_annotate(handle, "comedy movies")
        assert "Sport" not in plain

    def test_persona_bias_removes_entity(self, tiny_gazetteer):
        handle = mock_handle(
            tiny_gazetteer, persona_bias={"minimal": {"remove": ["IntentMovie"]}})
        response = mock_annotate(handle, "comedy movies", persona="minimal")
        assert response == "Genre|High"

    def test_no_match_renders_none(self, tiny_gazetteer, tiny_registry):
        handle = mock_handle(tiny_gazetteer)
        response = mock_annotate(handle, "something else entirely")
        assert parse_response(tiny_registry, response).entities == {}

    def test_zero_noise_equals_pure_lookup(self, tiny_gazetteer):
        handle = mock_handle(tiny_gazetteer, noise_rate=0.0)
        queries = ["comedy movies", "watch football", "horror tennis",
                   "free things", "movie about football"]
        for q in queries:
            expected = {e: Confidence.HIGH for e in tiny_gazetteer.match(q)}
            response = mock_annotate(handle, q)
            lines = {} if response == "None" else {
                line.split("|")[0]: Confidence.from_label(line.split("|")[1])
                for line in response.splitlines()
            }
            assert lines == expected

    def test_noise_perturbs_confidence_only(self, tiny_gazetteer):
        handle = mock_handle(tiny_gazetteer, seed=0, noise_rate=0.999)
        response = mock_annotate(handle, "comedy movies")
        labels = dict(line.split("|") for line in response.splitlines())
        assert set(labels) == {"Genre", "IntentMovie"}
        assert any(v != "High" for v in labels.values())

    def test_ambiguous_phrase_resolved_by_icl(self, tiny_gazetteer):
        handle = mock_handle(tiny_gazetteer, ambiguous={"comedy": "Sport"})
        without_icl = mock_annotate(handle, "comedy night", sections=())
        with_icl = mock_annotate(handle, "comedy night", sections=("icl",))
        assert without_icl == "Sport|High"
        assert with_icl == "Genre|High"


class TestAnnotateBatchMock:
    def test_three_prompts_three_responses(self, tiny_gazetteer):
        handle = mock_handle(tiny_gazetteer)
        prompts = bare_prompts("comedy movies", "football", "nothing here")
        results = annotate_batch(handle, prompts)
        assert len(results) == 3
        assert not any(isinstance(r, AnnotationFailure) for r in results)
        assert results[0] == "Genre|High\nIntentMovie|High"
        assert results[2] == "None"

    def test_cache_serves_second_run(self, tiny_gazetteer, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        handle = mock_handle(tiny_gazetteer)
        prompts = bare_prompts("comedy movies")
        first = annotate_batch(handle, prompts, cache=cache)
        assert handle.stats.calls == 1

        fresh = mock_handle(tiny_gazetteer)
        second = annotate_batch(fresh, prompts, cache=cache)
        assert fresh.stats.calls == 0
        assert fresh.stats.cache_hits == 1
        assert second == first

    def test_model_name_digests_the_gazetteer(self, tiny_gazetteer):
        # The cache key's model name changes with any phrase the mock looks
        # up, and not with the order the phrases were listed in.
        from querydistill.baseline import Gazetteer
        name = mock_handle(tiny_gazetteer).model_name
        reordered = Gazetteer(phrases={
            entity: sorted(" ".join(p) for p in phrases)[::-1]
            for entity, phrases in reversed(tiny_gazetteer.phrases.items())})
        assert mock_handle(reordered).model_name == name
        cut = Gazetteer(phrases={"Genre": ["comedy"], "Sport": ["football"],
                                 "IntentMovie": ["movies", "movie"]})
        moved = Gazetteer(phrases={"Genre": ["comedy", "horror", "tennis"],
                                   "Sport": ["football"],
                                   "IntentMovie": ["movies", "movie"]})
        names = {mock_handle(g).model_name for g in (cut, moved)}
        assert len(names) == 2 and name not in names

    def test_empty_batch_rejected(self, tiny_gazetteer):
        with pytest.raises(ValueError):
            annotate_batch(mock_handle(tiny_gazetteer), [])


class TestAnnotateBatchHttp:
    def test_retry_until_success(self, http_config):
        server = ScriptedServer({"flaky": [500, 500]})
        try:
            handle = AnnotatorHandle(http_config(server.url, max_retries=3))
            results = annotate_batch(handle, bare_prompts("flaky"))
            assert results == ["echo:flaky"]
            assert server.requests == ["flaky", "flaky", "flaky"]
            assert handle.stats.calls == 3
        finally:
            server.stop()

    def test_retries_exhausted_is_failure_record(self, http_config):
        server = ScriptedServer({"dead": [500] * 10})
        try:
            handle = AnnotatorHandle(http_config(server.url, max_retries=2))
            results = annotate_batch(handle, bare_prompts("dead"))
            failure = results[0]
            assert isinstance(failure, AnnotationFailure)
            assert failure.attempts == 3
            assert "500" in failure.error
        finally:
            server.stop()

    def test_permanent_status_not_retried(self, http_config):
        server = ScriptedServer({"bad": [400]})
        try:
            handle = AnnotatorHandle(http_config(server.url, max_retries=5))
            results = annotate_batch(handle, bare_prompts("bad"))
            assert isinstance(results[0], AnnotationFailure)
            assert server.requests == ["bad"]
        finally:
            server.stop()

    def test_order_preserved_with_interleaved_failure(self, http_config):
        server = ScriptedServer({"b": [404]})
        try:
            handle = AnnotatorHandle(http_config(server.url, max_retries=1))
            results = annotate_batch(
                handle, bare_prompts("a", "b", "c"))
            assert results[0] == "echo:a"
            assert isinstance(results[1], AnnotationFailure)
            assert results[1].index == 1
            assert results[2] == "echo:c"
        finally:
            server.stop()

    def test_missing_auth_env_fails_before_any_request(self, http_config):
        server = ScriptedServer({})
        try:
            handle = AnnotatorHandle(
                http_config(server.url, auth_env="QD_TEST_TOKEN_NOT_SET"))
            with pytest.raises(AnnotatorConfigError):
                annotate_batch(handle, bare_prompts("x"))
            assert server.requests == []
        finally:
            server.stop()

    def test_auth_header_sent(self, http_config, monkeypatch):
        # auth presence is validated up front; the request itself carries it
        monkeypatch.setenv("QD_TEST_TOKEN", "secret")
        server = ScriptedServer({})
        try:
            handle = AnnotatorHandle(http_config(server.url, auth_env="QD_TEST_TOKEN"))
            results = annotate_batch(handle, bare_prompts("x"))
            assert results == ["echo:x"]
        finally:
            server.stop()

    def test_empty_or_undecodable_body_is_a_failure_not_cached(
            self, http_config, tmp_path):
        server = ScriptedServer({"empty": [b""] * 2,
                                 "latin": ["caf\u00e9".encode("latin-1")] * 2,
                                 "utf8": ["caf\u00e9".encode("utf-8")]})
        cache = ResponseCache(tmp_path / "cache")
        try:
            handle = AnnotatorHandle(http_config(server.url, max_retries=1))
            prompts = bare_prompts("empty", "latin", "utf8")
            results = annotate_batch(handle, prompts, cache=cache)
            assert isinstance(results[0], AnnotationFailure)
            assert results[0].error == "empty response body"
            assert results[0].attempts == 2
            assert isinstance(results[1], AnnotationFailure)
            assert "UTF-8" in results[1].error
            assert results[2] == "caf\u00e9"
            assert handle.stats.failures == 2
            # the failures were not cached: the next batch asks again and
            # gets the echo the script now answers with
            again = annotate_batch(handle, prompts, cache=cache)
            assert again == ["echo:empty", "echo:latin", "caf\u00e9"]
            assert server.requests.count("utf8") == 1
        finally:
            server.stop()
            cache.close()

    def test_http_responses_cached(self, http_config, tmp_path):
        server = ScriptedServer({})
        cache = ResponseCache(tmp_path / "cache")
        try:
            handle = AnnotatorHandle(http_config(server.url))
            prompts = bare_prompts("one", "two")
            annotate_batch(handle, prompts, cache=cache)
            assert len(server.requests) == 2
            annotate_batch(handle, prompts, cache=cache)
            assert len(server.requests) == 2
        finally:
            server.stop()


@dataclass
class FakeResponse:
    status_code: int
    headers: dict
    content: bytes = b""


class FakeSession:
    """Answers each post with the next scripted (status, headers) pair, then
    with 200 "ok"."""

    def __init__(self, script):
        self.script = list(script)

    def post(self, url, **kwargs):
        if not self.script:
            return FakeResponse(200, {}, b"ok")
        return FakeResponse(*self.script.pop(0))


class TestRetryAfter:
    @pytest.mark.parametrize("script, waits", [
        ([(429, {"Retry-After": "7"})], [7.0]),
        ([(503, {"Retry-After": " 0 "})], [0.0]),
        ([(503, {"Retry-After": "100000"})], [RETRY_AFTER_CAP]),
        # Only 429 and 503 carry a usable Retry-After here.
        ([(500, {"Retry-After": "7"})], [0.5]),
        # An HTTP date, a fraction or garbage falls back to the backoff.
        ([(429, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"})], [0.5]),
        ([(429, {"Retry-After": "1.5"})], [0.5]),
        ([(429, {"Retry-After": "-3"})], [0.5]),
        ([(429, {})], [0.5]),
        # The header only replaces the wait that follows its own response.
        ([(429, {"Retry-After": "2"}), (500, {}), (503, {"Retry-After": "3"})],
         [2.0, 1.0, 3.0]),
    ])
    def test_wait_before_each_retry(self, monkeypatch, script, waits):
        # The jittered backoff drawn at the top of its range.
        slept = []
        monkeypatch.setattr(llm_client.time, "sleep", slept.append)
        monkeypatch.setattr(llm_client.random, "uniform",
                            lambda low, high: high)
        handle = AnnotatorHandle(HttpEndpointConfig(
            url="http://annotator.invalid/annotate", model="fake-model",
            backoff=0.5, max_retries=len(script)))
        text, attempts, error = _http_call(handle, "prompt", RateLimiter(0.0),
                                           FakeSession(script))
        assert (text, attempts, error) == ("ok", len(script) + 1, None)
        assert slept == waits

    def test_backoff_is_full_jitter_and_retry_after_exact(self, monkeypatch):
        # Each backoff wait is a uniform draw in [0, backoff * 2 ** (n - 1)]
        # before retry n; a Retry-After wait takes no draw.
        slept, draws = [], []
        monkeypatch.setattr(llm_client.time, "sleep", slept.append)

        def uniform(low, high):
            draws.append((low, high))
            return high / 4

        monkeypatch.setattr(llm_client.random, "uniform", uniform)
        handle = AnnotatorHandle(HttpEndpointConfig(
            url="http://annotator.invalid/annotate", model="fake-model",
            backoff=0.5, max_retries=4))
        script = [(500, {}), (429, {"Retry-After": "2"}), (503, {}),
                  (500, {})]
        assert _http_call(handle, "prompt", RateLimiter(0.0),
                          FakeSession(script)) == ("ok", 5, None)
        assert draws == [(0, 0.5), (0, 2.0), (0, 4.0)]
        assert slept == [0.125, 2.0, 0.5, 1.0]

    def test_jittered_waits_spread_within_the_backoff(self, monkeypatch):
        slept = []
        monkeypatch.setattr(llm_client.time, "sleep", slept.append)
        handle = AnnotatorHandle(HttpEndpointConfig(
            url="http://annotator.invalid/annotate", model="fake-model",
            backoff=0.5, max_retries=1))
        for _ in range(20):
            _http_call(handle, "prompt", RateLimiter(0.0),
                       FakeSession([(500, {})]))
        assert len(slept) == 20
        assert all(0 <= wait <= 0.5 for wait in slept)
        assert len(set(slept)) > 1

    def test_retries_exhausted_after_retry_after(self, monkeypatch):
        slept = []
        monkeypatch.setattr(llm_client.time, "sleep", slept.append)
        handle = AnnotatorHandle(HttpEndpointConfig(
            url="http://annotator.invalid/annotate", model="fake-model",
            max_retries=1))
        text, attempts, error = _http_call(
            handle, "prompt", RateLimiter(0.0),
            FakeSession([(429, {"Retry-After": "4"})] * 2))
        assert (text, attempts, error) == (None, 2, "status 429")
        assert slept == [4.0]


class TestResponseCache:
    def test_keys_depend_on_model_and_prompt(self):
        a = ResponseCache.key("prompt", "model-a")
        b = ResponseCache.key("prompt", "model-b")
        c = ResponseCache.key("other prompt", "model-a")
        assert len({a, b, c}) == 3

    def test_put_is_append_only(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put("k" * 64, "first")
        cache.put("k" * 64, "second")
        assert cache.get("k" * 64) == "first"

    def test_responses_survive_reload(self, tmp_path):
        texts = {"a" * 64: "Genre|High\nSport|Low", "b" * 64: "",
                 "c" * 64: "caf\u00e9 \u6620\u753b\r\n\"quoted\" \\ \ud800"}
        with ResponseCache(tmp_path) as cache:
            for key, text in texts.items():
                cache.put(key, text)
        reloaded = ResponseCache(tmp_path)
        assert {key: reloaded.get(key) for key in texts} == texts
        assert reloaded.get("d" * 64) is None
        with open(tmp_path / LOG_NAME, "rb") as fh:
            assert len(fh.read().splitlines()) == 3

    def test_first_record_wins_on_replay(self, tmp_path):
        with open(tmp_path / LOG_NAME, "wb") as fh:
            fh.write(_record("k", b'"first"') + _record("k", b'"second"'))
        assert ResponseCache(tmp_path).get("k") == "first"

    def test_torn_tail_skipped_and_next_put_survives_reload(self, tmp_path):
        with ResponseCache(tmp_path) as cache:
            cache.put("good", "kept")
            cache.put("torn", "cut short")
        with open(tmp_path / LOG_NAME, "r+b") as fh:
            fh.truncate(len(fh.read()) - 4)
        with ResponseCache(tmp_path) as cache:
            assert cache.get("good") == "kept"
            assert cache.get("torn") is None
            cache.put("torn", "asked again")
            cache.put("after", "appended")
        reloaded = ResponseCache(tmp_path)
        assert reloaded.get("good") == "kept"
        assert reloaded.get("torn") == "asked again"
        assert reloaded.get("after") == "appended"

    def test_flipped_byte_skips_only_that_record(self, tmp_path):
        with ResponseCache(tmp_path) as cache:
            for key in ("one", "two", "three"):
                cache.put(key, f"response {key}")
        data = bytearray((tmp_path / LOG_NAME).read_bytes())
        middle = data.index(b"response two")
        data[middle] ^= 0x01
        (tmp_path / LOG_NAME).write_bytes(bytes(data))
        with ResponseCache(tmp_path) as cache:
            assert cache.get("one") == "response one"
            assert cache.get("two") is None
            assert cache.get("three") == "response three"
            cache.put("two", "asked again")
        assert ResponseCache(tmp_path).get("two") == "asked again"

    def test_tombstone_survives_reload(self, tmp_path):
        with ResponseCache(tmp_path) as cache:
            cache.put("refusal", "Sorry, I cannot help with that.")
            cache.put("kept", "Genre|High")
            cache.discard("refusal")
            cache.discard("never-stored")
            assert cache.get("refusal") is None
        reloaded = ResponseCache(tmp_path)
        assert reloaded.get("refusal") is None
        assert reloaded.get("kept") == "Genre|High"
        with reloaded:
            reloaded.put("refusal", "Genre|Low")
        assert ResponseCache(tmp_path).get("refusal") == "Genre|Low"
        with open(tmp_path / LOG_NAME, "rb") as fh:
            assert len(fh.read().splitlines()) == 4

    def test_key_with_whitespace_rejected(self, tmp_path):
        cache = ResponseCache(tmp_path)
        for key in ("", "two words", "line\nbreak"):
            with pytest.raises(ValueError):
                cache.put(key, "text")

    def test_close_releases_the_descriptors(self, tmp_path):
        import os
        with ResponseCache(tmp_path) as cache:
            assert cache._fd is None
            cache.put("k", "v")
            assert cache.get("k") == "v"
            fd = cache._fd
            os.fstat(fd)
        assert cache._fd is None
        with pytest.raises(OSError):
            os.fstat(fd)
        with ResponseCache(tmp_path) as cache:  # a replay opens none
            assert cache.get("k") == "v"
            assert cache._fd is None
        cache.put("other", "text")  # reopens on use
        assert cache._fd is not None
        cache.close()
        assert cache._fd is None

    def test_payload_not_a_json_string_is_a_miss(self, tmp_path):
        with open(tmp_path / LOG_NAME, "wb") as fh:
            fh.write(_record("k", b"123") + _record("j", b"{")
                     + _record("i", b'"kept"'))
        with ResponseCache(tmp_path) as cache:
            assert cache.get("k") is None
            assert cache.get("j") is None
            assert cache.get("i") == "kept"
            cache.put("k", "asked again")
            cache.put("j", "asked too")
        reloaded = ResponseCache(tmp_path)
        assert reloaded.get("k") == "asked again"
        assert reloaded.get("j") == "asked too"
        assert reloaded.get("i") == "kept"

    def test_equal_payloads_share_one_text(self, tmp_path):
        with ResponseCache(tmp_path) as cache:
            for key in ("a", "b", "c"):
                cache.put(key, "".join(["Genre|", "High"]))
            cache.put("d", "Sport|Low")
        reloaded = ResponseCache(tmp_path)
        assert reloaded.get("a") == "Genre|High"
        assert reloaded.get("a") is reloaded.get("b") is reloaded.get("c")
        assert reloaded.get("d") == "Sport|Low"

    def test_replay_holds_the_index_and_little_more(self, tmp_path):
        # 20,000 records with distinct payloads, about 2 MB of log: the
        # replay reads it a line at a time, so beyond what the index keeps
        # it holds one line and its bounded payload memo, never the file.
        with open(tmp_path / LOG_NAME, "wb") as fh:
            for i in range(20000):
                fh.write(_record(f"{i:064x}", json.dumps(
                    f"Genre|High\nSport|Low\nresponse {i}").encode("ascii")))
        assert (tmp_path / LOG_NAME).stat().st_size > 1 << 20
        tracemalloc.start()
        try:
            cache = ResponseCache(tmp_path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cache._index) == 20000
        assert cache.get(f"{19999:064x}").endswith("response 19999")
        assert peak - kept < 256 << 10

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(records=st.lists(st.tuples(
               st.sampled_from(["put", "tombstone", "bad crc", "number",
                                "broken string", "bad utf-8"]),
               st.sampled_from(["a", "b", "c", "d" * 64]),
               st.sampled_from(["Genre|High", "Sport|Low", "", "caf\u00e9"])),
               max_size=12),
           tail=st.one_of(st.none(), st.tuples(
               st.sampled_from(["a", "e"]), st.sampled_from(["x", "null"]),
               st.integers(1, 40))))
    def test_replay_equals_the_whole_log_replay(self, records, tail):
        # Puts, tombstones, a bad checksum, payloads that are no JSON
        # string, and a torn tail cut at any length: the line-at-a-time
        # replay gives the index and torn flag of a replay of all the
        # bytes at once, and equal texts share one str.
        payloads = {"tombstone": b"null", "number": b"123",
                    "broken string": b'"open', "bad utf-8": b'"\xff"'}
        data = b""
        for kind, key, text in records:
            record = _record(key, payloads.get(kind, json.dumps(text).encode()))
            if kind == "bad crc":
                head, crc, rest = record.split(b" ", 2)
                record = b"%s %08x %s" % (head, int(crc, 16) ^ 1, rest)
            data += record
        if tail is not None:
            key, text, cut = tail
            record = _record(key, json.dumps(text).encode()
                             if text != "null" else b"null")
            data += record[:min(cut, len(record) - 1)]
        index, torn = _replay(io.BytesIO(data))
        assert (index, torn) == oracles.whole_log_replay(data)
        assert len({id(text) for text in index.values()}) == len(
            set(index.values()))

    def test_get_makes_no_system_call(self, tmp_path, monkeypatch):
        import os
        with ResponseCache(tmp_path) as cache:
            cache.put("k", "v")
        cache = ResponseCache(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("get made a system call")

        for name in ("pread", "read", "open"):
            monkeypatch.setattr(os, name, refuse)
        assert cache.get("k") == "v"
        assert cache.get("missing") is None
        monkeypatch.undo()
        cache.close()

    def test_replay_needs_no_write_access(self, tmp_path, monkeypatch):
        import os
        with ResponseCache(tmp_path) as cache:
            cache.put("k", "v")
        real_open = os.open

        def read_only_open(path, flags, *args):
            if flags & (os.O_WRONLY | os.O_RDWR):
                raise PermissionError(13, "read-only", path)
            return real_open(path, flags, *args)

        monkeypatch.setattr(os, "open", read_only_open)
        with ResponseCache(tmp_path) as cache:
            assert cache.get("k") == "v"
            assert cache.get("missing") is None
            with pytest.raises(PermissionError):
                cache.put("other", "text")

    def test_threads_get_and_put_concurrently(self, tmp_path):
        import sys
        cache = ResponseCache(tmp_path)
        errors = []

        def worker(tag):
            try:
                for i in range(200):
                    key = f"{tag}-{i}"
                    assert cache.get(key) is None
                    cache.put(key, f"response {i}")
                    assert cache.get(key) == f"response {i}"
                    assert cache.get(f"{tag}-{i // 2}") == f"response {i // 2}"
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(f"t{n}",))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            cache.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        reloaded = ResponseCache(tmp_path)
        assert len(reloaded._index) == 8 * 200
        assert all(reloaded.get(f"t{n}-{i}") == f"response {i}"
                   for n in range(8) for i in range(200))

    def test_two_processes_append_concurrently(self, tmp_path):
        import os
        import subprocess
        import sys
        import time
        import querydistill
        src = os.path.dirname(os.path.dirname(querydistill.__file__))
        go = tmp_path / "go"
        script = (
            "import os, sys, time\n"
            "from querydistill.llm_client import ResponseCache\n"
            "cache_dir, tag, go = sys.argv[1:]\n"
            "deadline = time.monotonic() + 60\n"
            "while not os.path.exists(go) and time.monotonic() < deadline:\n"
            "    time.sleep(0.001)\n"
            "with ResponseCache(cache_dir) as cache:\n"
            "    for i in range(500):\n"
            "        cache.put(f'{tag}-{i}', f'response {i} from {tag} ' * 8)\n")
        procs = [subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "cache"), tag,
             str(go)], env=dict(os.environ, PYTHONPATH=src))
            for tag in ("left", "right")]
        try:
            time.sleep(0.5)
            go.touch()
            codes = [proc.wait(timeout=60) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
        assert codes == [0, 0]
        cache = ResponseCache(tmp_path / "cache")
        assert len(cache._index) == 1000
        for tag in ("left", "right"):
            for i in range(500):
                assert cache.get(f"{tag}-{i}") == f"response {i} from {tag} " * 8
        cache.close()


def test_requests_is_imported_only_on_the_http_path():
    # The CLI, the server and the pipeline import no requests, thread pool
    # or logging, and neither does a mock annotate_batch; only the HTTP
    # path does (the HTTP tests above run it).
    import os
    import subprocess
    import sys
    import querydistill
    src = os.path.dirname(os.path.dirname(querydistill.__file__))
    script = (
        "import sys\n"
        "import querydistill.cli, querydistill.serving, querydistill.pipeline\n"
        "from querydistill.baseline import Gazetteer\n"
        "from querydistill.llm_client import annotate_batch, mock_handle\n"
        "from querydistill.prompting import PromptConfig, PromptFrame\n"
        "from querydistill.taxonomy import default_registry\n"
        "frame = PromptFrame(PromptConfig(), default_registry())\n"
        "handle = mock_handle(Gazetteer(phrases={'Genre': ['comedy']}))\n"
        "assert annotate_batch(handle, [(frame, 'comedy')]) == ['Genre|High']\n"
        "print(sorted(m for m in ('concurrent.futures', 'logging', 'requests')"
        " if m in sys.modules))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
