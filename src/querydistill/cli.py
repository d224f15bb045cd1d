"""Command-line surface. ``pipeline`` runs the stage table end to end, or
through ``--until STAGE``; the other subcommands print the registry, run
the ablation grids, serve a model and generate a synthetic corpus.

Config-driven commands take a JSON run configuration plus flag overrides.
Earlier stages are cheap deterministic recomputations and annotator
responses come from the response cache, so iterating on a late stage never
re-pays for LLM calls.
"""

import argparse
import json
import os
import signal
import sys
from dataclasses import replace

from . import data as data_mod
from . import evaluation as eval_mod
from . import synth as synth_mod
from .annotations import write_annotation_store
from .baseline import write_gazetteer
from .errors import QueryDistillError
from .personas import aggregate_ensemble, build_confidence_matrix
from .pipeline import (STAGES, annotate_records, choose_personas,
                       load_run_config, run_pipeline)
from .prompting import PromptVariant
from .taxonomy import default_registry, load_registry, validate_label


def _load_registry(path):
    return load_registry(path) if path else default_registry()


def _config_from_args(args):
    overrides = {}
    for key in ("seed", "output_dir", "cache_dir", "prompt_variant",
                "persona_mode", "persona_k"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return load_run_config(args.config, overrides)


def _add_config_flags(parser):
    parser.add_argument("-c", "--config", required=True,
                        help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--output-dir", dest="output_dir", default=None)
    parser.add_argument("--cache-dir", dest="cache_dir", default=None)
    parser.add_argument("--prompt-variant", dest="prompt_variant", default=None)
    parser.add_argument("--persona-mode", dest="persona_mode", default=None)
    parser.add_argument("--persona-k", dest="persona_k", type=int, default=None)


def cmd_taxonomy(args):
    registry = _load_registry(args.registry)
    if args.validate:
        print(validate_label(registry, args.validate))
        return 0
    for entity in registry:
        print(f"{entity.id}\t{entity.definition}")
    print(f"# {len(registry)} entities, registry_hash={registry.hash}")
    return 0


def _print_stats(stats):
    print(f"annotator calls: {stats['annotator_calls']}, "
          f"cache hits: {stats['cache_hits']}, "
          f"failures: {stats['annotator_failures']}, "
          f"unparseable responses: {stats['unparseable_responses']}")


def cmd_pipeline(args):
    result = run_pipeline(_config_from_args(args), until=args.until)
    for artifact in result.manifest["artifacts"]:
        print(f"{artifact['sha256'][:12]}  {artifact['path']}")
    print(f"manifest: {result.manifest_path}")
    _print_stats(result.stats)
    for report in getattr(result.run, "reports", ()):
        micro = report.micro
        print(f"{report.candidate:<32} weighted={report.weighted} "
              f"P={micro.precision:.4f} R={micro.recall:.4f} F1={micro.f1:.4f}")
    return 0


def cmd_ablation(args):
    """Prompt-variant grid and persona-selection comparison. One persona
    pass, a router-mode run through ``router``, reads and checks every input
    before any directory exists and gives the persona arms. The grid takes
    that run's inputs and annotates once per prompt variant, without
    personas."""
    config = _config_from_args(args)
    run = run_pipeline(replace(config, persona_mode="router", output_dir=(
        os.path.join(config.output_dir, "ablation-personas"))),
        until="router").run
    registry, records = run.registry, run.records
    weights = [r.frequency for r in records] if args.weighted else None

    def report(label, levels):
        scored = eval_mod.score(run.gold, levels > 0, registry.ids, weights)
        print(f"{label} micro F1={scored.micro.f1:.4f} "
              f"P={scored.micro.precision:.4f} R={scored.micro.recall:.4f}")
        return scored

    persona_arms = {mode: aggregate_ensemble(
        run.levels, choose_personas(run, mode),
        threshold=config.aggregation_threshold) for mode in ("random", "router")}
    grid = {}
    for v in PromptVariant:
        _, index, table = annotate_records(run, v, [None])
        grid[v] = build_confidence_matrix(index, table, registry)[:, 0]
    print("== prompt variant grid ==")
    scored = {v: report(f"{v.name:<22}", grid[v]) for v in grid}
    base = scored.pop(PromptVariant.BASELINE)
    for variant, candidate in scored.items():
        gains = eval_mod.relative_gain(candidate, base)["micro"]
        shown = {k: (f"{v:+.2f}%" if v is not None else "undefined")
                 for k, v in gains.items()}
        print(f"{variant.name:<22} vs BASELINE prompt: {shown}")

    print("== persona selection comparison ==")
    report(f"{'none':<8}",
           grid[PromptVariant.from_string(config.prompt_variant)])
    for mode, levels in persona_arms.items():
        report(f"{mode:<8}", levels)
    _print_stats(run.stats)
    return 0


def cmd_serve(args):
    from .serving import ServeState, serve_stdio, serve_tcp
    state = ServeState(args.model)
    if not args.port:
        serve_stdio(state)
        return 0
    # A process started with SIGINT ignored, as a background job of a
    # non-interactive shell is, would never see KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    with serve_tcp(state, args.port) as server:
        print(f"serving on 127.0.0.1:{args.port}", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0


def cmd_synth(args):
    os.makedirs(args.out, exist_ok=True)
    gazetteer = synth_mod.synth_gazetteer()
    registry = synth_mod.synth_registry()
    records, gold = synth_mod.synth_queries(gazetteer, args.count, seed=args.seed)

    with open(os.path.join(args.out, "registry.jsonl"), "w", encoding="utf-8") as fh:
        for entity in registry:
            fh.write(json.dumps({"id": entity.id, "definition": entity.definition,
                                 "icl_examples": list(entity.icl_examples)}) + "\n")
    write_gazetteer(os.path.join(args.out, "teacher_gazetteer.jsonl"), gazetteer)
    weak_baseline = synth_mod.impoverished_gazetteer(
        gazetteer, args.baseline_fraction, seed=args.seed)
    write_gazetteer(os.path.join(args.out, "baseline_gazetteer.jsonl"), weak_baseline)
    with open(os.path.join(args.out, "queries.tsv"), "w", encoding="utf-8") as fh:
        fh.write(data_mod.render_queries(records))
    write_annotation_store(
        os.path.join(args.out, "gold.jsonl"), list(gold), [None],
        range(len(gold)), list(gold.values()), annotator="synthetic-gold")
    with open(os.path.join(args.out, "personas.jsonl"), "w", encoding="utf-8") as fh:
        for pid, category in (("generalist", "Expert"),
                              ("enthusiast", "NicheExpert"),
                              ("skeptic", "NonDomainExpert")):
            fh.write(json.dumps({
                "id": pid, "name": pid.title(), "category": category,
                "description": f"You are a {pid} who annotates search queries.",
            }) + "\n")
    config = {
        "registry_path": "registry.jsonl",
        "queries_path": "queries.tsv",
        "gazetteer_path": "baseline_gazetteer.jsonl",
        "personas_path": "personas.jsonl",
        "gold_path": "gold.jsonl",
        "output_dir": "out",
        "cache_dir": "cache",
        "annotator": {"kind": "mock", "gazetteer": "teacher_gazetteer.jsonl",
                      "seed": args.seed, "noise_rate": 0.05,
                      "persona_bias": {
                          "enthusiast": {"add": {"Sport": "Low"}},
                          "skeptic": {"remove": ["Holiday"]}}},
        "prompt_variant": "confidence_cot_icl",
        "persona_mode": "router",
        "persona_k": 2,
        "seed": args.seed,
        "router": {"epochs": 8},
        "classifier": {"epochs": 8},
    }
    with open(os.path.join(args.out, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    print(f"{len(records)} queries over {len(registry)} entities -> {args.out}")
    print(f"run the pipeline with: querydistill pipeline -c "
          f"{os.path.join(args.out, 'config.json')}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="querydistill",
        description="Weak-supervision toolkit for media-search query entities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("taxonomy", help="print or validate the entity registry")
    p.add_argument("--registry", default="", help="registry JSONL (default: shipped)")
    p.add_argument("--validate", default="", help="label to validate")
    p.set_defaults(func=cmd_taxonomy)

    p = sub.add_parser("pipeline", help="run the stages in order, end to end "
                                        "or through --until")
    _add_config_flags(p)
    p.add_argument("--until", choices=STAGES, default="eval",
                   help="last stage to run (default: %(default)s)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("ablation",
                       help="prompt-variant grid and persona-mode comparison")
    _add_config_flags(p)
    p.add_argument("--weighted", action="store_true")
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser(
        "serve", help="serve a trained model over stdio or TCP",
        description="Serve a trained classifier at its file's thresholds: one "
                    "query per line in, one JSON object per line out. Its "
                    "hashed n-gram encoder embeds any query, seen in training "
                    "or not; a blank or over-long line gets an error object.")
    p.add_argument("--model", required=True)
    p.add_argument("--port", type=int, default=0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=2000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--baseline-fraction", type=float, default=0.4)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QueryDistillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
