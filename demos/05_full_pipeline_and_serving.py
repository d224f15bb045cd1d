"""The whole pipeline end to end, then low-latency serving.

Generates a synthetic workspace, runs ingest -> split -> persona-fan-out
annotate -> matrices -> router -> aggregate -> weak labels -> train ->
tune -> eval through one RunConfig, prints the manifest, re-runs to show
the response cache makes replays free, and finally serves the trained
classifier over the line protocol with a small latency benchmark, for
new queries and for repeats that the response memo answers.
"""

import json
import os
import statistics
import tempfile
import time

from querydistill import load_run_config, run_pipeline
from querydistill.annotations import write_annotation_store
from querydistill.baseline import write_gazetteer
from querydistill.data import render_queries
from querydistill.serving import ServeState
from querydistill.synth import (impoverished_gazetteer, synth_gazetteer,
                                synth_queries, synth_registry)

# The workspace is removed when the demo exits, on error too.
workspace = tempfile.TemporaryDirectory(prefix="querydistill-pipeline-")
root = workspace.name
print(f"workspace: {root}")

# --- synthesize the corpus --------------------------------------------------
gazetteer = synth_gazetteer()
registry = synth_registry()
records, gold = synth_queries(gazetteer, 800, seed=7)
with open(os.path.join(root, "registry.jsonl"), "w") as fh:
    for e in registry:
        fh.write(json.dumps({"id": e.id, "definition": e.definition,
                             "icl_examples": list(e.icl_examples)}) + "\n")
write_gazetteer(os.path.join(root, "teacher_gazetteer.jsonl"), gazetteer)
write_gazetteer(os.path.join(root, "baseline_gazetteer.jsonl"),
                impoverished_gazetteer(gazetteer, 0.4, seed=7))
with open(os.path.join(root, "queries.tsv"), "w") as fh:
    fh.write(render_queries(records))
write_annotation_store(
    os.path.join(root, "gold.jsonl"), list(gold), [None],
    range(len(gold)), list(gold.values()), annotator="synthetic-gold")
with open(os.path.join(root, "personas.jsonl"), "w") as fh:
    for pid, category in (("generalist", "Expert"),
                          ("enthusiast", "NicheExpert"),
                          ("skeptic", "NonDomainExpert")):
        fh.write(json.dumps({"id": pid, "name": pid.title(),
                             "category": category,
                             "description": f"You are a {pid}."}) + "\n")

config = {
    "registry_path": "registry.jsonl",
    "queries_path": "queries.tsv",
    "gazetteer_path": "baseline_gazetteer.jsonl",
    "personas_path": "personas.jsonl",
    "gold_path": "gold.jsonl",
    "output_dir": "out",
    "cache_dir": "cache",
    "annotator": {"kind": "mock", "gazetteer": "teacher_gazetteer.jsonl",
                  "seed": 0, "noise_rate": 0.05,
                  "persona_bias": {
                      "enthusiast": {"add": {"Sport": "Low"}},
                      "skeptic": {"remove": ["Holiday"]}}},
    "persona_mode": "router",
    "persona_k": 2,
    "seed": 7,
    "router": {"epochs": 8},
    "classifier": {"epochs": 8},
}
config_path = os.path.join(root, "config.json")
with open(config_path, "w") as fh:
    json.dump(config, fh, indent=2)

# --- run, then re-run to show cached replay ---------------------------------
started = time.time()
result = run_pipeline(load_run_config(config_path))
print(f"\npipeline done in {time.time() - started:.1f}s; artifacts:")
for artifact in result.manifest["artifacts"]:
    print(f"  {artifact['sha256'][:12]}  {artifact['path']}")
print(f"annotator calls: {result.stats['annotator_calls']}")

rerun = run_pipeline(load_run_config(config_path))
print(f"re-run annotator calls: {rerun.stats['annotator_calls']} "
      f"(served {rerun.stats['cache_hits']} responses from cache)")

with open(os.path.join(result.output_dir, "eval.jsonl")) as fh:
    micro = [json.loads(line) for line in fh if '"micro"' in line]
print("\ntest-set micro rows:")
for row in micro:
    tag = "weighted" if row["weighted"] else "unweighted"
    print(f"  {row['system']:<32} {tag:<10} P={row['precision']:.3f} "
          f"R={row['recall']:.3f} F1={row['f1']:.3f}")

# --- serve the trained model -------------------------------------------------
state = ServeState(os.path.join(result.output_dir, "classifier.json"))
print("\nserving examples:")
for query in ("comedy movies", "watch football tonight", "zz totally unknown"):
    print(f"  {query!r} -> {state.respond(query)}")

# A repeat of a normalized query is answered from the response memo.
print(f"  {'Comedy   MOVIES'!r} -> {state.respond('Comedy   MOVIES')}")

print()
for label, queries in (("new", [f"comedy number {i}" for i in range(1000)]),
                       ("repeated", ["comedy movies"] * 1000)):
    latencies = sorted(json.loads(state.respond(q))["latency_us"]
                       for q in queries)
    print(f"latency over 1000 {label} queries: p50={latencies[500]}us "
          f"p99={latencies[989]}us (built-in encoder)")
workspace.cleanup()
