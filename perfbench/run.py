"""Teacher-to-student benchmark for querydistill.

    python3 perfbench/run.py --workload teacher-cold --seed 7 --seconds 12 --trace 0

Run from the root of a source checkout; nothing needs installing. Every
input is generated from ``--seed`` by the program's own synthetic corpus
generator, and the program receives only the generated files.

Workloads (see perfbench/README.md for why each was chosen):

- ``teacher-cold``: ``run_pipeline(until="aggregate")`` with an empty
  response cache on every repetition.
- ``student-warm``: ``run_pipeline(until="eval")`` replaying a response
  cache filled by a cold run during set-up.
- ``serve``: ``querydistill serve --port`` in a child process, driven as a
  closed loop by one client over one TCP connection, then the same texts
  scored offline through ``classifier.write_predictions_jsonl``.

Each pipeline repetition runs in a child process (``launch.py``) so that
its peak RSS is its own. With ``--trace 1`` the children trace the public
functions (``spans.py``) and the per-layer metrics are reported instead of
the end-to-end ones. Every output is checked; the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``, and the exit
code is 1 when a check failed.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import string
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)
import spans  # noqa: E402

WORKLOADS = ("teacher-cold", "student-warm", "serve")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("label_f1", "ratio"))

SETUPS = 3            # set-ups per run; setup_s is their median
MIN_REPS = 4          # pipeline repetitions per run, at least
FIRST_PASS = 2000     # serve requests scored for F1 and batch throughput
RSS_AT = 20000        # serve requests after which the server's peak RSS is read
WINDOW_S = 0.25       # serve latency windows; wall_s is the calmest one's p50
MIN_WINDOW = 20       # requests a window needs to count
CHECKED_SAMPLE = 200  # served requests recomputed in this process
NOVEL_SHARE = 0.1     # serve requests carrying a never-repeated token
STREAM_SEED_OFFSET = 1000
REQUEST_TIMEOUT_S = 10.0
SERVER_START_TIMEOUT_S = 60.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# ---------------------------------------------------------------------------
# Correctness checks (also exercised by smoke.py)
# ---------------------------------------------------------------------------

def check_stats(stats, calls, hits):
    """Problems with one pipeline run's annotator statistics."""
    expected = {"annotator_calls": calls, "cache_hits": hits,
                "annotator_failures": 0}
    return [f"{key} = {stats.get(key)}, expected {value}"
            for key, value in expected.items() if stats.get(key) != value]


def check_aggregated(path, query_ids):
    """Problems unless ``path`` holds one aggregated annotation per query."""
    from querydistill.annotations import read_annotation_store
    store = read_annotation_store(path)
    missing = set(query_ids) - set(store)
    extra = set(store) - set(query_ids)
    if missing or extra:
        return [f"aggregated.jsonl misses {len(missing)} and adds "
                f"{len(extra)} of {len(query_ids)} queries"]
    return []


def check_manifest(data, reference, what):
    if data != reference:
        return [f"manifest of {what} differs from the reference manifest"]
    return []


def parse_served(line, entity_ids):
    """(label set, None) for a well-formed response line, else (None, why)."""
    try:
        response = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None, f"unparseable response {line[:80]!r}"
    if not isinstance(response, dict) or "error" in response:
        return None, f"error response {line[:80]!r}"
    labels = response.get("labels")
    if not isinstance(labels, list):
        return None, f"response without labels {line[:80]!r}"
    try:
        entities = {item["entity"] for item in labels}
    except (TypeError, KeyError):
        return None, f"malformed labels {line[:80]!r}"
    unknown = entities - set(entity_ids)
    if unknown:
        return None, f"labels outside the registry: {sorted(unknown)}"
    return entities, None


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def summary(values):
    """Median with quartiles and sample count."""
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"value": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values if len(values) <= 64 else None}


def fastest(values):
    """Summary whose value is the lowest: interference from the host only
    adds time, so the fastest repetition is the steadiest measure of the
    program's own cost."""
    return dict(summary(values), value=min(values))


def percentile(sorted_values, share):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def filesystem_type(path):
    """Type of the mount holding ``path``, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def blas_version():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def synth(directory, count, seed):
    """Generate a corpus and run config with ``querydistill synth``."""
    from querydistill import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["synth", "--out", directory, "--count", str(count),
                         "--seed", str(seed)])
    if code != 0:
        raise RuntimeError(f"synth failed with exit code {code}")
    return os.path.join(directory, "config.json")


def corpus_counts(directory):
    from querydistill import data, personas
    queries = data.read_queries(os.path.join(directory, "queries.tsv"))
    persona_count = len(personas.load_personas(
        os.path.join(directory, "personas.jsonl")))
    return {"queries": len(queries), "personas": persona_count,
            "prompts": len(queries) * persona_count,
            "query_ids": [q.id for q in queries]}


def reap(proc, timeout):
    """Wait for ``proc``; returns (exit code, peak RSS in MB)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def launch(args, log_path):
    log = open(log_path, "wb")
    try:
        return subprocess.Popen([sys.executable, LAUNCH] + args, cwd=ROOT,
                                stdout=log, stderr=subprocess.STDOUT)
    finally:
        log.close()


class Run:
    """State of one benchmark run: its options, problems and counters."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.count = args.count
        # Creating many files right after deleting many is slow on ext4
        # mounted with "discard": a cold run right after deleting the
        # previous run's cache took twice as long as one after keeping it.
        # So a run keeps its scratch files, and the next run of the
        # workload deletes them once its own set-up is done, before a timed
        # phase that creates only a few files.
        base = os.path.join(WORK, args.workload)
        os.makedirs(base, exist_ok=True)
        self.leftovers = [os.path.join(base, name) for name in os.listdir(base)]
        self.work = fresh_dir(os.path.join(
            base, f"run-{os.getpid()}-{time.time_ns()}"))
        self.span_dir = os.path.join(WORK, f"{args.workload}.spans")
        if self.trace:
            fresh_dir(self.span_dir)
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.layer_parts = []   # per-layer metric dicts, one per repetition
        self.extras = {}        # reported by name, not part of the result line
        self.descriptor = {}

    def drop_leftovers(self):
        """Delete the scratch files of earlier runs of this workload."""
        for path in self.leftovers:
            shutil.rmtree(path, ignore_errors=True)
        self.leftovers = []

    def fail(self, problems):
        self.problems.extend(problems)
        return bool(problems)

    def repeat_setup(self, setup, release=None):
        """Run ``setup(directory)`` SETUPS times in fresh directories;
        returns (median seconds, the last call's result). Every earlier
        result is passed to ``release``. Earlier runs' files are deleted
        afterwards."""
        times = []
        for index in range(SETUPS):
            directory = fresh_dir(os.path.join(self.work, f"setup{index}"))
            start = time.perf_counter()
            result = setup(directory)
            times.append(time.perf_counter() - start)
            if index < SETUPS - 1 and release is not None:
                release(result)
        self.drop_leftovers()
        return summary(times), result

    def repetitions(self):
        start = time.perf_counter()
        index = 0
        while index < MIN_REPS or time.perf_counter() - start < self.seconds:
            yield index
            index += 1

    def pipeline_child(self, config, until, out_dir, cache_dir, traced=None):
        """Run one pipeline in a child, traced if the run is unless
        ``traced`` says otherwise; returns (wall s, peak RSS MB, stats dict
        or None)."""
        traced = self.trace if traced is None else traced
        stats_path = out_dir + ".stats.json"
        span_path = os.path.join(
            self.span_dir, f"pipeline{len(self.layer_parts)}.spans.jsonl")
        args = (["--spans", span_path] if traced else []) + [
            "pipeline", config, until, out_dir, cache_dir, stats_path]
        start = time.perf_counter()
        proc = launch(args, out_dir + ".log")
        code, rss_mb = reap(proc, timeout=600)
        wall = time.perf_counter() - start
        if code != 0:
            self.fail([f"pipeline child exited with {code}; see {out_dir}.log"])
            return wall, rss_mb, None
        if traced:
            self.layer_parts.append(
                spans.layer_metrics([spans.read_spans(span_path)]))
        with open(stats_path, encoding="utf-8") as fh:
            return wall, rss_mb, json.load(fh)["stats"]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def micro_f1(gold, pred):
    from querydistill.evaluation import compute_metrics
    return compute_metrics(gold, pred).micro.f1


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def teacher_cold(run):
    """Cold teacher: prompt building, mock annotation, cache writes,
    matrices and router training on every repetition."""
    # Every repetition creates a cache, so the deletion goes first and a
    # discarded cold run in set-up pays for it (see Run.__init__).
    run.drop_leftovers()

    def setup(directory):
        config = synth(directory, run.count, run.seed)
        run.pipeline_child(config, "aggregate", os.path.join(directory, "out"),
                           os.path.join(directory, "cache"), traced=False)
        return config

    setup_s, config = run.repeat_setup(setup)
    corpus_dir = os.path.dirname(config)
    corpus = corpus_counts(corpus_dir)
    walls, rss, manifests, f1 = [], [], [], None
    for index in run.repetitions():
        out_dir = os.path.join(run.work, f"out{index}")
        cache_dir = os.path.join(run.work, f"cache{index}")
        wall, rss_mb, stats = run.pipeline_child(config, "aggregate",
                                                 out_dir, cache_dir)
        run.attempted += 1
        walls.append(wall)
        rss.append(rss_mb)
        if stats is None:
            run.failed += 1
            continue
        manifests.append(read_bytes(os.path.join(out_dir, "manifest.json")))
        aggregated = os.path.join(out_dir, "aggregated.jsonl")
        bad = run.fail(check_stats(stats, calls=corpus["prompts"], hits=0)
                       + check_aggregated(aggregated, corpus["query_ids"])
                       + check_manifest(manifests[-1], manifests[0],
                                        f"repetition {index}"))
        run.failed += bad
        if f1 is None:
            from querydistill.annotations import read_annotation_store
            gold = read_annotation_store(os.path.join(corpus_dir, "gold.jsonl"))
            f1 = micro_f1(gold, read_annotation_store(aggregated))
    run.descriptor["corpus"] = {k: v for k, v in corpus.items()
                                if k != "query_ids"}
    return {"wall_s": fastest(walls), "setup_s": setup_s,
            "peak_rss_mb": summary(rss), "label_f1": summary([f1 or 0.0])}


def student_warm(run):
    """Warm student: the whole pipeline replaying a filled response cache."""
    setup_manifests = []

    def setup(directory):
        config = synth(directory, run.count, run.seed)
        corpus = corpus_counts(directory)
        out_dir = os.path.join(directory, "cold")
        cache_dir = os.path.join(directory, "cache")
        _, _, stats = run.pipeline_child(config, "eval", out_dir, cache_dir,
                                         traced=False)
        if stats is None or run.fail(check_stats(stats, corpus["prompts"], 0)):
            raise RuntimeError(f"set-up cold run failed: {run.problems}")
        setup_manifests.append(read_bytes(os.path.join(out_dir, "manifest.json")))
        return config, cache_dir, corpus

    setup_s, (config, cache_dir, corpus) = run.repeat_setup(setup)
    reference = setup_manifests[-1]
    # The manifest's config digest holds the corpus's absolute paths, so
    # set-ups in different directories agree on the artifacts only.
    for index, manifest in enumerate(setup_manifests):
        run.fail(check_manifest(json.loads(manifest)["artifacts"],
                                json.loads(reference)["artifacts"],
                                f"set-up {index}"))
    walls, rss, f1s, recalls = [], [], [], []
    for index in run.repetitions():
        out_dir = os.path.join(run.work, f"out{index}")
        wall, rss_mb, stats = run.pipeline_child(config, "eval", out_dir,
                                                 cache_dir)
        run.attempted += 1
        walls.append(wall)
        rss.append(rss_mb)
        if stats is None:
            run.failed += 1
            continue
        manifest = read_bytes(os.path.join(out_dir, "manifest.json"))
        bad = run.fail(check_stats(stats, calls=0, hits=corpus["prompts"])
                       + check_manifest(manifest, reference,
                                        f"repetition {index}"))
        run.failed += bad
        micro = {}
        with open(os.path.join(out_dir, "eval.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if record["entity"] == "micro" and not record["weighted"]:
                    micro[record["system"]] = record
        f1s.append(micro["classifier"]["f1"])
        recalls.append(micro["classifier@matching_precision"]["recall"])
    run.descriptor["corpus"] = {k: v for k, v in corpus.items()
                                if k != "query_ids"}
    run.extras["student_recall_at_baseline_precision"] = (
        summary(recalls), "ratio")
    return {"wall_s": fastest(walls), "setup_s": setup_s,
            "peak_rss_mb": summary(rss), "label_f1": summary(f1s)}


def request_stream(seed, count):
    """Endless seeded requests drawn by frequency from a second corpus:
    yields (text, gold label set, novel?)."""
    from querydistill.synth import synth_gazetteer, synth_queries
    records, gold = synth_queries(synth_gazetteer(), count,
                                  seed=seed + STREAM_SEED_OFFSET)
    cum_weights = []
    total = 0
    for record in records:
        total += record.frequency
        cum_weights.append(total)
    rng = random.Random(f"stream:{seed}")
    population = range(len(records))
    while True:
        record = records[rng.choices(population, cum_weights=cum_weights)[0]]
        text = record.text
        novel = rng.random() < NOVEL_SHARE
        if novel:
            text += " " + "".join(rng.choices(string.ascii_lowercase, k=10))
        yield text, gold[record.id].label_set(), novel


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def ask(reader, sock, text):
    sock.sendall(text.encode("utf-8") + b"\n")
    return reader.readline()


def start_server(run, model_path, span_path):
    """Start a server; returns (process, port) once it answered a query."""
    port = free_port()
    args = (["--spans", span_path] if run.trace else []) + [
        "serve", model_path, str(port)]
    proc = launch(args, os.path.join(run.work, "server.log"))
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode}")
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=1.0)
            break
        except OSError:
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise RuntimeError("server did not start listening")
            time.sleep(0.01)
    with sock, sock.makefile("rb") as reader:
        sock.settimeout(REQUEST_TIMEOUT_S)
        line = ask(reader, sock, "comedy movies")
    if not line.endswith(b"\n"):
        stop_server(proc)
        raise RuntimeError("server gave no first answer")
    return proc, port


def peak_rss_mb(pid):
    """Peak resident memory so far of a running process (VmHWM)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def calmest_p50(sent_ns, latencies, window_ns):
    """Median latency of the calmest window: requests are grouped by the
    ``window_ns`` interval they were sent in, and the lowest window median
    is returned. Windows with fewer than MIN_WINDOW requests, and the last,
    partial window, are left out."""
    windows = {}
    for sent, latency in zip(sent_ns, latencies):
        windows.setdefault((sent - sent_ns[0]) // window_ns, []).append(latency)
    windows.pop(max(windows, default=None), None)
    medians = [statistics.median(w) for w in windows.values()
               if len(w) >= MIN_WINDOW]
    return min(medians, default=0.0), len(medians)


def stop_server(proc):
    """SIGINT ends serve_forever; returns (exit code, peak RSS MB)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    else:
        return proc.returncode, 0.0
    return reap(proc, timeout=30)


def serve(run):
    """Closed-loop TCP serving, then offline batch scoring of the same texts."""
    from querydistill.classifier import (apply_thresholds, load_classifier,
                                         predict_probs, write_predictions_jsonl)
    from querydistill.data import QueryRecord

    def setup(directory):
        config = synth(directory, run.count, run.seed)
        _, _, stats = run.pipeline_child(config, "tune",
                                         os.path.join(directory, "out"),
                                         os.path.join(directory, "cache"),
                                         traced=False)
        if stats is None:
            raise RuntimeError(f"set-up training failed: {run.problems}")
        model_path = os.path.join(directory, "out", "classifier.json")
        span_path = os.path.join(run.span_dir,
                                 f"server{len(servers)}.spans.jsonl")
        proc, port = start_server(run, model_path, span_path)
        servers.append(proc)
        return model_path, span_path, proc, port

    servers = []
    try:
        setup_s, (model_path, span_path, proc, port) = run.repeat_setup(
            setup, release=lambda result: stop_server(result[2]))
        model = load_classifier(model_path)
        entity_ids = model.entity_ids
        latencies, sent_ns, first_pass, novel = [], [], [], 0
        server_rss = None
        stream = request_stream(run.seed, run.count)
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=REQUEST_TIMEOUT_S) as sock, \
                sock.makefile("rb") as reader:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            start = time.perf_counter()
            for index, (text, gold, is_novel) in enumerate(stream):
                if (index >= max(FIRST_PASS, RSS_AT)
                        and time.perf_counter() - start >= run.seconds):
                    break
                payload = text.encode("utf-8") + b"\n"
                sent = time.perf_counter_ns()
                try:
                    sock.sendall(payload)
                    line = reader.readline()
                except OSError as exc:
                    run.attempted += 1
                    run.failed += 1
                    run.fail([f"request {index} failed: {exc}"])
                    break
                latencies.append(time.perf_counter_ns() - sent)
                sent_ns.append(sent)
                run.attempted += 1
                novel += is_novel
                labels, problem = parse_served(line, entity_ids)
                if problem:
                    run.failed += 1
                    if len(run.problems) < 20:
                        run.fail([f"request {index}: {problem}"])
                if index < FIRST_PASS:
                    first_pass.append((text, gold, labels or set()))
                if index == RSS_AT - 1:
                    # Read at a fixed request count: the server's n-gram
                    # cache grows with every novel request, so its peak at
                    # the end would grow with its speed.
                    server_rss = peak_rss_mb(proc.pid)
            elapsed = time.perf_counter() - start
    finally:
        codes = [stop_server(p) for p in servers]
    code, _ = codes[-1]
    if code != 0:
        run.fail([f"server exited with {code}"])
    if server_rss is None:
        run.fail([f"the server answered fewer than {RSS_AT} requests"])
        server_rss = 0.0

    sample = random.Random(f"sample:{run.seed}").sample(
        range(len(first_pass)), min(CHECKED_SAMPLE, len(first_pass)))
    for index in sample:
        text, _, served = first_pass[index]
        expected = apply_thresholds(model, predict_probs(model, text))
        if served != expected:
            run.failed += 1
            run.fail([f"request {index} {text!r}: served {sorted(served)}, "
                      f"recomputed {sorted(expected)}"])
    f1 = micro_f1({i: gold for i, (_, gold, _) in enumerate(first_pass)},
                  {i: served for i, (_, _, served) in enumerate(first_pass)})

    tracer = None
    if run.trace:
        tracer = spans.Tracer()
        tracer.install()
    records = [QueryRecord(str(i), text) for i, (text, _, _) in
               enumerate(first_pass)]
    batch_times = []
    batch_path = os.path.join(run.work, "batch_predictions.jsonl")
    for _ in range(MIN_REPS):
        start_batch = time.perf_counter()
        write_predictions_jsonl(batch_path, model, records)
        batch_times.append(time.perf_counter() - start_batch)
    if tracer is not None:
        batch_spans = os.path.join(run.span_dir, "batch.spans.jsonl")
        tracer.write(batch_spans)
        run.layer_parts.append(spans.layer_metrics(
            [spans.read_spans(span_path), spans.read_spans(batch_spans)]))

    run.descriptor["stream"] = {
        "requests": len(latencies), "first_pass": len(first_pass),
        "novel_share": novel / max(1, len(latencies)),
        "corpus_count": run.count, "seed": run.seed + STREAM_SEED_OFFSET}
    calm_ns, windows = calmest_p50(sent_ns, latencies, int(WINDOW_S * 1e9))
    run.descriptor["stream"]["windows"] = windows
    latencies_us = sorted(ns / 1e3 for ns in latencies)
    p50 = summary(latencies_us)   # with quartiles over every request
    p50.pop("samples")

    def over_requests(value):
        return {"value": value, "q1": value, "q3": value, "n": len(latencies)}

    run.extras.update({
        "serve_p50_us": (p50, "us"),
        "serve_p99_us": (over_requests(percentile(latencies_us, 0.99)), "us"),
        "serve_qps": (over_requests(len(latencies) / elapsed), "1/s"),
        "batch_qps": (summary([len(records) / t for t in batch_times]), "1/s"),
    })
    return {"wall_s": {"value": calm_ns / 1e9, "q1": calm_ns / 1e9,
                       "q3": calm_ns / 1e9, "n": windows},
            "setup_s": setup_s, "peak_rss_mb": summary([server_rss]),
            "label_f1": summary([f1])}


WORKLOAD_FUNCTIONS = {"teacher-cold": teacher_cold,
                      "student-warm": student_warm, "serve": serve}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def describe(run):
    import numpy
    return {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": run.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas_version(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "work_filesystem": filesystem_type(run.work),
    }


def per_layer_result(parts):
    """Median over repetitions of each per-layer metric."""
    return {name: {"value": statistics.median(p[name] for p in parts),
                   "unit": unit}
            for name, unit in spans.per_layer_names()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count", type=int, default=2000,
                        help="synth --count of every generated corpus")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "querydistill", "__init__.py")):
        print(f"error: no querydistill sources under {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import querydistill.cli  # noqa: F401  (imported before any set-up is timed)
    run = Run(args)
    run.descriptor = describe(run)
    results = WORKLOAD_FUNCTIONS[run.workload](run)
    if run.trace:
        metrics = per_layer_result(run.layer_parts)
    else:
        metrics = {name: {"value": results[name]["value"], "unit": unit}
                   for name, unit in END_TO_END}
    correct = not run.problems
    report = {"descriptor": run.descriptor,
              "end_to_end": {name: dict(results[name], unit=unit)
                             for name, unit in END_TO_END},
              "extras": {name: dict(value, unit=unit)
                         for name, (value, unit) in run.extras.items()},
              "problems": run.problems}
    with open(os.path.join(WORK, f"{run.workload}.result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(report, metrics=metrics), fh, indent=1)
    print("descriptor " + json.dumps(run.descriptor, sort_keys=True))
    for name, value in list(report["end_to_end"].items()) + list(
            report["extras"].items()):
        print(f"{name:<40} {value['value']:.6g} {value['unit']}  "
              f"[q1 {value['q1']:.6g}, q3 {value['q3']:.6g}, n={value['n']}]")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
