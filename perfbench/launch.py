"""Runs one querydistill operation in a process of its own, optionally traced.

    launch.py [--spans FILE] pipeline CONFIG UNTIL OUT_DIR CACHE_DIR STATS_FILE
    launch.py [--spans FILE] serve MODEL PORT

``pipeline`` calls ``run_pipeline(config, until=UNTIL)`` with the output and
cache directories overridden and writes the run's stats and manifest path as
JSON to STATS_FILE. ``serve`` calls ``querydistill.cli.main`` with
``serve --model MODEL --port PORT`` until SIGINT. With ``--spans`` the
public functions are traced (see spans.py) and the spans are written to FILE
when the operation ends.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import Tracer  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default="")
    parser.add_argument("operation", choices=("pipeline", "serve"))
    parser.add_argument("operands", nargs="+")
    args = parser.parse_args(argv)

    import querydistill.cli
    import querydistill.serving  # noqa: F401  (cli imports it lazily)
    from querydistill import pipeline

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    try:
        if args.operation == "serve":
            model, port = args.operands
            return querydistill.cli.main(["serve", "--model", model,
                                          "--port", port])
        config_path, until, out_dir, cache_dir, stats_path = args.operands
        config = pipeline.load_run_config(
            config_path, {"output_dir": out_dir, "cache_dir": cache_dir})
        # Looked up after install() so that the traced wrapper is called.
        result = pipeline.run_pipeline(config, until=until)
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"stats": result.stats,
                       "manifest_path": result.manifest_path}, fh)
        return 0
    finally:
        if tracer is not None:
            tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
