"""Line-protocol serving for the distilled classifier.

One UTF-8 query per request line; one JSON object per response line:
{"labels": [{"entity": ..., "prob": ...}], "latency_us": ...}. Malformed
requests produce an error object and the connection stays open. Works over
stdio or a TCP socket; requests on one connection are answered in order.
A request line longer than ``MAX_REQUEST_LINE`` (bytes over TCP, characters
over stdio) gets an error object, and the rest of it is discarded up to
its newline.

A request's normalized query (``data.normalize_query``) is all the model
reads of it, so ``ServeState`` keeps each one's rendered ``labels`` in a
``features.BoundedMemo`` and answers a repeat from it without the encoder
or the heads, byte for byte as an encoded answer bar ``latency_us``,
which on a hit is the lookup time. The memo is bounded by
``RESPONSE_MEMO_LIMIT``, 4 MiB as counted (see there), so at most 20,867
entries; it is cleared when keeping an entry would pass that, an entry
counted over it is answered but not kept, and an error response is never
kept. The trade is on the misses: repeats no longer refresh the encoder's
window memo, so a request with a new query finds fewer of its windows
there. On the first 60,000 requests of the seed-7 benchmark stream such
a request digested 3.20 windows against 2.54 when every request was
encoded, and its ``respond`` p50 rose from about 192 to 218-239 us (2
cores), while a repeat's fell from about 71 to about 2 us.
"""

import json
import socketserver
import sys
import time

from .classifier import apply_thresholds, load_classifier, predict_probs
from .data import normalize_query
from .features import BoundedMemo

MAX_REQUEST_LINE = 64 * 1024
# The response memo is cleared when its size would pass this many bytes.
# An entry counts as the ``sys.getsizeof`` of its key and value strings
# plus _MEMO_SLOT_BYTES for its dict slot, so at least 201 bytes: the
# memo holds at most 4 MiB so counted, and at most 20,867 entries.
RESPONSE_MEMO_LIMIT = 4 << 20
_MEMO_SLOT_BYTES = 100
_TOO_LONG = json.dumps(
    {"error": f"request line longer than {MAX_REQUEST_LINE}"})


class ServeState:
    """Loaded model, with the thresholds its ``tune`` stage stored, a
    single shared encoder instance and the response memo, shared by every
    connection."""

    def __init__(self, model_path):
        self.model = load_classifier(model_path)
        self.backend = self.model.backend()
        self.memo = BoundedMemo(RESPONSE_MEMO_LIMIT)

    def respond(self, line):
        """JSON response string for one request line."""
        started = time.perf_counter_ns()
        query = normalize_query(line)
        if not query:
            return json.dumps({"error": "empty query"})
        labels = self.memo.entries.get(query)
        if labels is None:
            try:
                labels = self._labels(query)
            except Exception as exc:
                return json.dumps({"error": str(exc)})
            self.memo.keep(query, labels, sys.getsizeof(query)
                           + sys.getsizeof(labels) + _MEMO_SLOT_BYTES)
        latency_us = (time.perf_counter_ns() - started) // 1000
        # What json.dumps({"labels": ..., "latency_us": ...}) writes.
        return f'{{"labels": {labels}, "latency_us": {latency_us}}}'

    def _labels(self, query):
        """The JSON ``labels`` list of the normalized ``query``."""
        probs = predict_probs(self.model, query, backend=self.backend)
        selected = apply_thresholds(self.model, probs)
        labels = [
            {"entity": entity, "prob": float(prob)}
            for entity, prob in zip(self.model.entity_ids, probs)
            if entity in selected
        ]
        labels.sort(key=lambda item: -item["prob"])
        return json.dumps(labels)


def _serve_lines(state, stream, newline, write):
    """Answer each line of ``stream`` through ``write`` until end of input.

    Lines are read at most ``MAX_REQUEST_LINE`` units at a time, so an
    over-long request never sits whole in memory.
    """
    while True:
        line = stream.readline(MAX_REQUEST_LINE + 1)
        if not line:
            return
        if len(line) > MAX_REQUEST_LINE and not line.endswith(newline):
            while line and not line.endswith(newline):
                line = stream.readline(MAX_REQUEST_LINE + 1)
            write(_TOO_LONG)
            continue
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="replace")
        write(state.respond(line))


def serve_stdio(state, stdin=None, stdout=None):
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def write(response):
        stdout.write(response + "\n")
        stdout.flush()

    _serve_lines(state, stdin, "\n", write)


def serve_tcp(state, port, host="127.0.0.1"):
    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            def write(response):
                self.wfile.write(response.encode("utf-8") + b"\n")
                self.wfile.flush()

            _serve_lines(state, self.rfile, b"\n", write)

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    server = Server((host, port), Handler)
    return server
