"""Line-protocol serving for the distilled classifier.

One UTF-8 query per request line; one JSON object per response line:
{"labels": [{"entity": ..., "prob": ...}], "latency_us": ...}. Malformed
requests produce an error object and the connection stays open. Works over
stdio or a TCP socket; requests on one connection are answered in order.
A request line longer than ``MAX_REQUEST_LINE`` (bytes over TCP, characters
over stdio) gets an error object, and the rest of it is discarded up to
its newline.
"""

import json
import socketserver
import sys
import time

from .classifier import apply_thresholds, load_classifier, predict_probs

MAX_REQUEST_LINE = 64 * 1024
_TOO_LONG = json.dumps(
    {"error": f"request line longer than {MAX_REQUEST_LINE}"})


class ServeState:
    """Loaded model, with the thresholds its ``tune`` stage stored, plus a
    single shared encoder instance."""

    def __init__(self, model_path):
        self.model = load_classifier(model_path)
        self.backend = self.model.backend()

    def respond(self, line):
        """JSON response string for one request line."""
        started = time.perf_counter_ns()
        query = line.strip()
        if not query:
            return json.dumps({"error": "empty query"})
        try:
            probs = predict_probs(self.model, query, backend=self.backend)
        except Exception as exc:
            return json.dumps({"error": str(exc)})
        selected = apply_thresholds(self.model, probs)
        labels = [
            {"entity": entity, "prob": float(prob)}
            for entity, prob in zip(self.model.entity_ids, probs)
            if entity in selected
        ]
        labels.sort(key=lambda item: -item["prob"])
        latency_us = (time.perf_counter_ns() - started) // 1000
        return json.dumps({"labels": labels, "latency_us": latency_us})


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
