"""Smoke test of the benchmark on a tiny corpus.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--count 200``,
and checks that each prints every metric BENCHMARK.json names, with its
unit. Then feeds corrupted outputs to the correctness checks and requires
each to trip, and requires run.py to fail without a result line when the
program's sources are missing. Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402


def run_benchmark(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--count", "200"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_metric_names(spec):
    for workload in bench.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(workload, trace)
            expect(proc.returncode == 0,
                   f"{workload} trace={trace} exited {proc.returncode}: "
                   f"{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], f"result keys {sorted(result)}")
            expect(result["correct"] and result["attempted"] >= 1
                   and result["failed"] == 0,
                   f"{workload} trace={trace}: {proc.stderr[-2000:]}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace} metrics differ: "
                   f"{sorted(set(got) ^ set(wanted))}")
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_corruptions():
    expect(bench.check_stats({"annotator_calls": 6, "cache_hits": 0,
                              "annotator_failures": 0}, calls=6, hits=0) == [],
           "clean stats flagged")
    expect(bench.check_stats({"annotator_calls": 6, "cache_hits": 0,
                              "annotator_failures": 1}, calls=6, hits=0),
           "annotator failure not flagged")
    expect(bench.check_stats({"annotator_calls": 1, "cache_hits": 5,
                              "annotator_failures": 0}, calls=0, hits=6),
           "annotator call on replay not flagged")

    work = bench.fresh_dir(os.path.join(bench.WORK, "smoke"))
    config = bench.synth(os.path.join(work, "corpus"), 200, 3)
    out_dir = os.path.join(work, "out")
    proc = bench.launch(["pipeline", config, "aggregate", out_dir,
                         os.path.join(work, "cache"), out_dir + ".stats.json"],
                        out_dir + ".log")
    expect(bench.reap(proc, timeout=300)[0] == 0, "tiny pipeline run failed")
    aggregated = os.path.join(out_dir, "aggregated.jsonl")
    with open(aggregated, encoding="utf-8") as fh:
        lines = fh.readlines()
    query_ids = [json.loads(line)["id"] for line in lines]
    expect(bench.check_aggregated(aggregated, query_ids) == [],
           "clean aggregated.jsonl flagged")
    truncated = aggregated + ".truncated"
    with open(truncated, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    expect(bench.check_aggregated(truncated, query_ids),
           "missing aggregated annotation not flagged")

    manifest = bench.read_bytes(os.path.join(out_dir, "manifest.json"))
    flipped = manifest.replace(b'"sha256": "', b'"sha256": "0', 1)
    expect(bench.check_manifest(manifest, manifest, "itself") == [],
           "identical manifests flagged")
    expect(bench.check_manifest(flipped, manifest, "a corrupted copy"),
           "corrupted manifest not flagged")

    entities = ("Genre", "Sport")
    good = b'{"labels": [{"entity": "Genre", "prob": 0.9}], "latency_us": 5}\n'
    expect(bench.parse_served(good, entities) == ({"Genre"}, None),
           "well-formed response rejected")
    for bad in (b'{"error": "empty query"}\n', b'{"labels": [{"entity": "Ge',
                b'{"latency_us": 5}\n', b'{"labels": [{"entity": "Nope"}]}\n',
                b'{"labels": [7]}\n', b"\xff\xfe\n", b""):
        expect(bench.parse_served(bad, entities)[1] is not None,
               f"bad response {bad!r} accepted")
    print("ok  corrupted outputs trip their checks")


def check_calmest_window():
    ms = 1_000_000
    sent = [0, 1 * ms, 2 * ms, 10 * ms, 11 * ms, 12 * ms, 20 * ms]
    latencies = [5, 6, 7, 1, 2, 3, 0]
    saved, bench.MIN_WINDOW = bench.MIN_WINDOW, 3
    try:
        # The last window holds one request and is left out.
        expect(bench.calmest_p50(sent, latencies, 10 * ms) == (2, 2),
               "calmest window not found")
    finally:
        bench.MIN_WINDOW = saved
    print("ok  the calmest full window sets the serve latency")


def check_fails_without_sources(spec):
    bare = bench.fresh_dir(os.path.join(bench.WORK, "bare-checkout"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(bench.WORKLOADS[0], 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"run without sources gave {proc.returncode}: {proc.stdout!r}")
    shutil.rmtree(bare)
    print("ok  fails without a result line when the sources are missing")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metric_names(spec)
    check_corruptions()
    check_calmest_window()
    check_fails_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
