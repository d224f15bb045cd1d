"""Span tracing of querydistill's public functions, installed from outside.

``install()`` replaces each function in ``TARGETS`` with a wrapper that
records a span (id, parent, trace, name, start, end) in memory. A function
is rebound in every loaded ``querydistill`` module that holds it, because
callers look names up where they imported them (``serving`` imports
``heads_forward`` by name, ``evaluation`` imports
``tune_threshold_for_entity`` by name). Methods are replaced on their class.
Nothing under ``src/`` changes. ``Tracer.write`` saves the spans as JSON
lines when the traced process ends, and ``layer_metrics`` turns the span
files of one run into per-layer metrics.
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (module, qualified name) of every traced callable.
TARGETS = (
    ("data", "split_dataset"),
    ("annotations", "read_annotation_store"),
    ("prompting", "build_prompt"),
    ("prompting", "parse_response"),
    ("llm_client", "ResponseCache.get"),
    ("llm_client", "ResponseCache.put"),
    ("llm_client", "mock_annotate"),
    ("features", "HashedNgramEmbedder.embed"),
    ("personas", "build_confidence_matrix"),
    ("personas", "aggregate_ensemble"),
    ("router", "train_router"),
    ("router", "router_loss_and_grads"),
    ("router", "select_top_k"),
    ("classifier", "weak_labels_from_annotations"),
    ("classifier", "labeled_queries"),
    ("classifier", "train_classifier"),
    ("classifier", "classifier_loss_and_grads"),
    ("classifier", "heads_forward"),
    ("classifier", "tune_thresholds"),
    ("classifier", "tune_threshold_for_entity"),
    ("classifier", "predict_probs_batch"),
    ("classifier", "apply_thresholds"),
    ("optim", "AdamW.step"),
    ("evaluation", "compute_metrics"),
    ("evaluation", "matched_operating_point"),
    ("serving", "ServeState.respond"),
    ("pipeline", "build_annotator"),
    ("pipeline", "run_pipeline"),
)

# The order of pipeline.STAGES. A stage begins at the first call, made
# directly by run_pipeline, of one of its public functions; ingest begins
# with run_pipeline itself. A call listed for several stages belongs to the
# earliest of them that is not before the current stage.
STAGES = ("ingest", "split", "annotate", "matrix", "router", "aggregate",
          "labels", "train", "tune", "eval")
STAGE_OPENERS = {
    "split": ("data.split_dataset",),
    "annotate": ("pipeline.build_annotator",),
    "matrix": ("personas.build_confidence_matrix",),
    "router": ("annotations.read_annotation_store", "router.train_router"),
    "aggregate": ("router.select_top_k", "personas.aggregate_ensemble"),
    "labels": ("classifier.weak_labels_from_annotations",),
    "train": ("classifier.labeled_queries", "classifier.train_classifier"),
    "tune": ("classifier.tune_thresholds",),
    "eval": ("annotations.read_annotation_store",
             "classifier.predict_probs_batch", "evaluation.compute_metrics"),
}

ROOT_SPAN = "pipeline.run_pipeline"


def span_name(module, qualname):
    return f"{module}.{qualname}"


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for module, qualname in TARGETS:
        name = span_name(module, qualname)
        names.append((f"{name}.calls", "count"))
        names.append((f"{name}.self_s", "s"))
    names += [("llm_client.cache_hit_ratio", "ratio"),
              ("features.embed_unique_ratio", "ratio"),
              ("classifier.epochs_run", "count")]
    names += [(f"pipeline.stage.{stage}.s", "s") for stage in STAGES]
    return names


class Tracer:
    """Spans and counters of one process, kept in memory until ``write``."""

    def __init__(self):
        self.spans = []
        self.counters = {"cache_gets": 0, "cache_hits": 0, "embed_calls": 0,
                         "epochs_run": 0}
        self.embedded_texts = set()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _observe(self, name, args, result):
        if name == "llm_client.ResponseCache.get":
            self.counters["cache_gets"] += 1
            self.counters["cache_hits"] += result is not None
        elif name == "features.HashedNgramEmbedder.embed":
            self.counters["embed_calls"] += 1
            self.embedded_texts.add(args[1])
        elif name == "classifier.train_classifier":
            self.counters["epochs_run"] += len(result[1])

    def wrap(self, fn, name):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent, trace = stack[-1] if stack else (0, 0)
            span_id = next(self._ids)
            stack.append((span_id, trace or span_id))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, parent, trace or span_id, name,
                                   start, end))
            self._observe(name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target in the querydistill modules loaded so far."""
        for module_name in {m for m, _ in TARGETS}:
            importlib.import_module(f"querydistill.{module_name}")
        modules = [m for n, m in sys.modules.items()
                   if n == "querydistill" or n.startswith("querydistill.")]
        for module_name, qualname in TARGETS:
            name = span_name(module_name, qualname)
            owner = sys.modules[f"querydistill.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(getattr(cls, attr), name))
                continue
            fn = getattr(owner, qualname)
            wrapped = self.wrap(fn, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)

    def write(self, path):
        counters = dict(self.counters,
                        embed_unique=len(self.embedded_texts))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counters": counters}) + "\n")
            for span_id, parent, trace, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "trace": trace, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        counters = json.loads(fh.readline())["counters"]
        spans = [json.loads(line) for line in fh]
    return counters, spans


def stage_seconds(spans):
    """Seconds per pipeline stage, summed over every run_pipeline span."""
    seconds = dict.fromkeys(STAGES, 0.0)
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    for root in (s for s in spans if s["name"] == ROOT_SPAN):
        starts = {"ingest": root["start_ns"]}
        current = 0
        for child in sorted(children.get(root["id"], ()),
                            key=lambda s: s["start_ns"]):
            for index in range(current, len(STAGES)):
                if child["name"] in STAGE_OPENERS.get(STAGES[index], ()):
                    current = index
                    starts.setdefault(STAGES[index], child["start_ns"])
                    break
        bounds = sorted(starts.items(), key=lambda item: item[1])
        ends = [start for _, start in bounds[1:]] + [root["end_ns"]]
        for (stage, start), end in zip(bounds, ends):
            seconds[stage] += (end - start) / 1e9
    return seconds


def _span_totals(spans):
    """Calls and self nanoseconds per span name within one process."""
    child_ns = {}
    for span in spans:
        child_ns[span["parent"]] = (child_ns.get(span["parent"], 0)
                                    + span["end_ns"] - span["start_ns"])
    calls = {}
    self_ns = {}
    for span in spans:
        name = span["name"]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = (self_ns.get(name, 0) + span["end_ns"]
                         - span["start_ns"] - child_ns.get(span["id"], 0))
    return calls, self_ns


def layer_metrics(parts):
    """Per-layer metrics keyed as per_layer_names(), summed over the
    (counters, spans) pairs of one or more traced processes."""
    metrics = dict.fromkeys((name for name, _ in per_layer_names()), 0)
    counters = {}
    for part_counters, spans in parts:
        for key, value in part_counters.items():
            counters[key] = counters.get(key, 0) + value
        calls, self_ns = _span_totals(spans)
        for name, count in calls.items():
            metrics[f"{name}.calls"] += count
            metrics[f"{name}.self_s"] += self_ns[name] / 1e9
        for stage, seconds in stage_seconds(spans).items():
            metrics[f"pipeline.stage.{stage}.s"] += seconds
    gets, embeds = counters.get("cache_gets", 0), counters.get("embed_calls", 0)
    metrics["llm_client.cache_hit_ratio"] = (
        counters["cache_hits"] / gets if gets else 0.0)
    metrics["features.embed_unique_ratio"] = (
        counters["embed_unique"] / embeds if embeds else 0.0)
    metrics["classifier.epochs_run"] = counters.get("epochs_run", 0)
    return metrics
