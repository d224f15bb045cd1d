"""End-to-end orchestration: ingest through evaluation, with a manifest.

Stage order: ingest -> split -> annotate (persona fan-out or single
annotator) -> confidence matrices -> router training (router mode) ->
per-query persona selection and ensemble aggregation -> weak labels ->
classifier training -> threshold tuning -> evaluation against the lexical
baseline. Each stage is one function in a table that ``run_pipeline``
walks in order, stopping after stage ``until``. Every input those stages
use is read and checked once, before the output directory exists (``_Run``),
so a bad input leaves no artifact and costs no call; so are the split's
part sizes, which must not leave a part empty that such a stage needs.
Every produced file is listed in ``manifest.json`` with a sha256 digest.
With personas, the aggregate stage also writes ``selections.jsonl``: each
ingested query's chosen persona ids, in record order.

The teacher is held once: ``annotate_records``, which the annotate stage
and each prompt-variant arm of the ablation call, gives an (N, P) index of
each (query, persona) prompt into a table of distinct parsed responses,
from which ``annotations.jsonl`` and the (N, P, E) levels come.
``aggregated.jsonl`` is written from the distinct rows of the (N, E)
teacher levels, or without personas from the response table. The weak
labels (the teacher at ``min_confidence``) and the gold are (N, E) boolean
arrays in the same ingest order; the router, train, tune and eval stages
index them by record row. The router and train stages pass the whole
arrays with the split's train rows, and the trainers gather each
minibatch; the train stage's dev checkpoint, the tune stage and the eval
stage score the dev and test rows of the classifier's features in row
blocks. So no stage copies a part of the split.
``labels.jsonl`` lists the weak labels in query-id order.

One n-gram pass encodes the queries once (``run.features``, a
``features.CountRows`` of (N, encoder_dim) int8 counts and (N,) float64
row scales). The classifier and, in router mode, the persona gate both
gather their float32 rows from it a minibatch or a block at a time, the
gate casting them to float64, so the run holds no float matrix of every
query. The aggregate stage keeps each query's chosen personas as
``run.chosen``, (N, k) persona rows.

Reruns are cheap: the annotate stage reads the response cache, so a
completed pipeline re-executed with the same configuration performs zero
annotator calls (bar responses that did not parse, which are dropped from
the cache and asked again), and every other stage is a fast deterministic
recomputation. The manifest echoes a digest of the semantic configuration
(paths under the output and cache directories excluded), so two runs of the
same configuration produce byte-identical manifests regardless of where
their outputs live.
"""

import functools
import hashlib
import inspect
import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import baseline as baseline_mod
from . import classifier as classifier_mod
from . import data as data_mod
from . import evaluation as eval_mod
from . import personas as personas_mod
from . import prompting as prompting_mod
from . import router as router_mod
from .annotations import (Annotation, Confidence, read_annotations,
                          write_annotation_store)
from .errors import DataError, PipelineConfigError, UnparseableResponseError
from .features import HashedNgramEmbedder, hashed_ngram_counts
from .llm_client import (AnnotationFailure, AnnotatorHandle, HttpEndpointConfig,
                         MockConfig, ResponseCache, annotate_batch, prompt_keys)
from .optim import COUNT, check_fields
from .taxonomy import load_registry

PERSONA_MODES = ("none", "random", "router")

STAGES = ("ingest", "split", "annotate", "matrix", "router", "aggregate",
          "labels", "train", "tune", "eval")

# The input files a config names, "section.key" for a nested one. Each is
# resolved against the config file's directory, counts in the config digest
# by basename only, and must exist when set.
_INPUT_PATHS = ("registry_path", "queries_path", "gazetteer_path",
               "personas_path", "gold_path", "annotator.gazetteer")


# ``optim.check_fields`` rules of the config's numeric fields; a bool is
# no number.
_FIELD_RULES = {"seed": ("integer", lambda v: v >= 0, ">= 0"),
                "encoder_dim": COUNT,
                "max_icl_examples": COUNT, "persona_k": COUNT,
                "aggregation_threshold": ("number", lambda v: True, "")}


def _input_paths(raw):
    """(name, dict, key) of each input path present in config dict ``raw``."""
    for name in _INPUT_PATHS:
        section, _, key = name.rpartition(".")
        owner = (raw.get(section) or {}) if section else raw
        if key in owner:
            yield name, owner, key


def _reject_unknown(keys, target, what):
    """PipelineConfigError for the ``keys`` that name no parameter of
    ``target``, so a typo fails before any stage runs."""
    unknown = sorted(set(keys) - set(inspect.signature(target).parameters))
    if unknown:
        raise PipelineConfigError(f"unknown {what}: {', '.join(unknown)}")


@dataclass
class RunConfig:
    registry_path: str
    queries_path: str
    output_dir: str
    cache_dir: str
    gazetteer_path: str = ""      # lexical baseline dictionary
    personas_path: str = ""
    gold_path: str = ""
    annotator: dict = field(default_factory=dict)
    prompt_variant: str = "confidence_cot_icl"
    persona_mode: str = "router"
    persona_k: int = 3
    seed: int = 7
    ratios: tuple = (0.7, 0.1, 0.2)
    aggregation_threshold: float = personas_mod.DEFAULT_SELECT_THRESHOLD
    min_confidence: str = "High"
    router: dict = field(default_factory=dict)
    classifier: dict = field(default_factory=dict)
    encoder_dim: int = 512
    eval_reference: str = "gold"  # "gold" or "teacher"
    max_icl_examples: int = 4

    def __post_init__(self):
        check_fields(self, _FIELD_RULES, PipelineConfigError)
        if not (isinstance(self.ratios, (list, tuple)) and len(self.ratios) == 3
                and all(type(r) in (int, float) for r in self.ratios)):
            raise PipelineConfigError(
                f"ratios must be three numbers, got {self.ratios!r}")
        self.ratios = tuple(self.ratios)
        data_mod.check_ratios(self.ratios, PipelineConfigError)
        if self.persona_mode not in PERSONA_MODES:
            raise PipelineConfigError(
                f"persona_mode must be one of {PERSONA_MODES}, "
                f"got {self.persona_mode!r}")
        if self.eval_reference not in ("gold", "teacher"):
            raise PipelineConfigError(
                f"eval_reference must be 'gold' or 'teacher', "
                f"got {self.eval_reference!r}")
        for name, parse in (
                ("prompt_variant", prompting_mod.PromptVariant.from_string),
                ("min_confidence", Confidence.from_label)):
            try:
                parse(getattr(self, name))
            except (AttributeError, ValueError) as exc:
                raise PipelineConfigError(f"{name}: {exc}") from None
        _reject_unknown(self.router, router_mod.RouterTrainConfig, "router key")
        _reject_unknown(self.classifier, classifier_mod.ClassifierTrainConfig,
                        "classifier key")

    def semantic_digest(self):
        """Digest of everything that shapes results; output locations and
        the cache directory are irrelevant to the artifacts' content."""
        echo = asdict(self)
        del echo["output_dir"], echo["cache_dir"]
        for _, section, key in _input_paths(echo):
            section[key] = os.path.basename(str(section[key]))
        blob = json.dumps(echo, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def load_run_config(path, overrides=None):
    """RunConfig of the JSON object at ``path`` with ``overrides`` applied;
    a file that cannot be read or is not a JSON object is a
    PipelineConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise PipelineConfigError(f"config {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise PipelineConfigError(f"config {path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise PipelineConfigError(f"config {path}: not a JSON object")
    raw.update(overrides or {})
    _reject_unknown(raw, RunConfig, "config key")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        if not p:
            return ""
        return p if os.path.isabs(p) else os.path.normpath(os.path.join(base, p))

    for _, section, key in _input_paths(raw):
        section[key] = resolve(section[key])
    for key in ("output_dir", "cache_dir"):
        if key in raw:
            raw[key] = resolve(raw[key])
    return RunConfig(**raw)


def annotator_config(config, registry):
    """The MockConfig or HttpEndpointConfig of the ``annotator`` section of
    RunConfig ``config``, its keys and values checked. A mock's teacher
    gazetteer (its ``gazetteer`` path, else ``gazetteer_path``) is read
    here; its entities, and those its persona biases and ambiguity table
    name, are checked against ``registry``."""
    spec = dict(config.annotator)
    kind = spec.pop("kind", "mock")
    annotator = {"mock": MockConfig, "http": HttpEndpointConfig}.get(kind)
    if annotator is None:
        raise PipelineConfigError(f"unknown annotator kind: {kind!r}")
    _reject_unknown(spec, annotator, "annotator key")
    if kind == "mock":
        path = spec.pop("gazetteer", "") or config.gazetteer_path
        if not path:
            raise PipelineConfigError("mock annotator needs a gazetteer path")
        spec["gazetteer"] = baseline_mod.load_gazetteer(path, registry)
    try:
        annotator = annotator(**spec)
    except TypeError as exc:
        raise PipelineConfigError(f"annotator: {exc}") from None
    if kind == "mock":
        for key, entity in annotator.entities():
            if entity not in registry.ids:
                raise PipelineConfigError(
                    f"annotator {key}: unknown entity label: {entity!r}")
    return annotator


def build_annotator(annotator):
    """A fresh AnnotatorHandle of a checked ``annotator_config``."""
    return AnnotatorHandle(annotator)


@dataclass
class PipelineResult:
    manifest: dict
    manifest_path: str
    stats: dict
    output_dir: str
    run: "_Run"


def _digest_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def response_annotations(registry, responses, width):
    """(N, ``width``) integer index of the annotator responses (or
    ``AnnotationFailure``s) into a table of parsed Annotations, that table,
    and the flat positions of the unparseable responses.

    Each distinct response text is parsed once into one table row, and each
    failed call is a row of its own. A failed call or an unparseable text
    is an empty annotation carrying a warning, so one bad response stays
    that prompt's failure. The annotate stage counts the unparseable ones
    and drops them from the response cache, so the next run asks again;
    failed calls are already counted by the handle.
    """
    rows, failed, index, table = {}, set(), [], []
    for response in responses:
        if isinstance(response, AnnotationFailure):
            row = len(table)
            table.append(Annotation(
                warnings=(f"annotator failure: {response.error}",)))
        elif (row := rows.get(response)) is None:
            row = rows[response] = len(table)
            try:
                table.append(prompting_mod.parse_response(registry, response))
            except UnparseableResponseError as exc:
                table.append(Annotation(
                    warnings=(f"unparseable response: {exc}",)))
                failed.add(row)
        index.append(row)
    unparseable = [i for i, row in enumerate(index) if row in failed]
    index = np.array(index, dtype=np.intp).reshape(-1, width)
    return index, table, unparseable


def load_gold(path, records, registry):
    """(N, E) boolean gold labels of ``records`` from the annotation file at
    ``path``. An unset or missing file, or a record without gold, is a
    PipelineConfigError."""
    if not path or not os.path.exists(path):
        raise PipelineConfigError(
            f"gold annotations need an existing gold_path, got {path!r}")
    store = {qid: ann for (qid, _), ann
             in read_annotations(path, registry).items()}
    missing = [r.id for r in records if r.id not in store]
    if missing:
        raise PipelineConfigError(
            f"gold annotations missing for {len(missing)} ingested queries")
    return personas_mod.annotation_levels(
        [store[r.id] for r in records], registry) > 0


class _Run:
    """State of one pipeline run: the config, its inputs, annotator stats
    and manifest artifacts, plus what each stage stores for later stages.
    Every input the stages through ``until`` use is read and checked here,
    before the output directory exists, so a bad one leaves no artifact."""

    def __init__(self, config, until):
        self.config = config
        self.until = until
        for name, section, key in _input_paths(asdict(config)):
            path = section[key]
            if (path or name in ("registry_path", "queries_path")) \
                    and not os.path.exists(path):
                raise PipelineConfigError(f"{name} does not resolve: {path!r}")
        if config.persona_mode != "none" and not config.personas_path:
            raise PipelineConfigError(
                f"persona_mode {config.persona_mode!r} needs personas_path")
        self.registry = load_registry(config.registry_path)
        self.router_config = router_mod.RouterTrainConfig(
            **{"seed": config.seed, **config.router})
        self.classifier_config = classifier_mod.ClassifierTrainConfig(
            **{"seed": config.seed, **config.classifier})
        self.personas = (personas_mod.load_personas(config.personas_path)
                         if config.persona_mode != "none" else None)
        if config.persona_mode == "router" \
                and config.persona_k > len(self.personas):
            raise PipelineConfigError(
                f"k must be in [1, {len(self.personas)}], got {config.persona_k}")
        self.annotator = annotator_config(config, self.registry)
        if self.personas is not None \
                and isinstance(self.annotator, MockConfig):
            ids = {persona.id for persona in self.personas}
            for persona in self.annotator.persona_bias:
                if persona not in ids:
                    raise PipelineConfigError(
                        f"annotator persona_bias {persona!r}: unknown persona "
                        f"id, not in {config.personas_path}")
        self.records = data_mod.read_queries(config.queries_path)
        self._check_split(until)
        self.lexicon = (baseline_mod.load_gazetteer(config.gazetteer_path,
                                                    self.registry)
                        if until == "eval" and config.gazetteer_path else None)
        # The router stage trains on the gold; the eval stage may score on it.
        trains = (config.persona_mode == "router"
                  and STAGES.index(until) >= STAGES.index("router"))
        scores = until == "eval" and config.eval_reference == "gold"
        self.gold = (load_gold(config.gold_path, self.records, self.registry)
                     if trains or scores else None)
        self.stats = {"annotator_calls": 0, "cache_hits": 0,
                      "annotator_failures": 0, "unparseable_responses": 0}
        self.artifacts = {}

    def _check_split(self, until):
        """DataError naming the queries file for fewer than 3 records to
        split, and PipelineConfigError for an empty split part that a stage
        through ``until`` needs: train for the router and train stages, dev
        for tune, test for eval."""
        ran = STAGES[:STAGES.index(until) + 1]
        if "split" not in ran:
            return
        config = self.config
        try:
            sizes = data_mod.split_sizes(len(self.records), config.ratios)
        except DataError as exc:
            raise DataError(f"{config.queries_path}: {exc}") from None
        users = {"train": "router" if config.persona_mode == "router"
                 else "train", "dev": "tune", "test": "eval"}
        for (part, stage), size in zip(users.items(), sizes):
            if not size and stage in ran:
                raise PipelineConfigError(
                    f"ratios {list(config.ratios)} leave the {part} part of "
                    f"the split of {len(self.records)} queries empty, and "
                    f"the {stage} stage needs it")

    @functools.cached_property
    def features(self):
        """The ``CountRows`` of the ingested texts, whose float32 rows the
        persona gate and the classifier both gather."""
        return hashed_ngram_counts([r.text for r in self.records],
                                   self.config.seed, self.config.encoder_dim,
                                   np.float32)

    @functools.cached_property
    def _row_of(self):
        return {r.id: row for row, r in enumerate(self.records)}

    def rows(self, records):
        """Row of each of ``records`` in ingest order."""
        return [self._row_of[r.id] for r in records]

    def write(self, name, filename, writer, *args, **kwargs):
        """Write one artifact with ``writer(path, *args, **kwargs)`` and list
        it in the manifest under ``name``; a rewritten artifact keeps its
        place."""
        path = os.path.join(self.config.output_dir, filename)
        writer(path, *args, **kwargs)
        self.artifacts[name] = {"name": name, "path": filename,
                                "sha256": _digest_file(path)}


def _ingest(run):
    run.write("queries", "queries.jsonl", data_mod.write_queries_jsonl,
              run.records)


def _split(run):
    run.split = data_mod.split_dataset(run.records, run.config.ratios,
                                       run.config.seed)
    run.write("split", "split.jsonl", data_mod.write_split_manifest, run.split)


def annotate_records(run, variant, personas):
    """(handle, (N, P) index, table of parsed responses) of the run's records
    under ``personas`` (``[None]`` for none) in prompt ``variant``, through
    the response cache, which unparseable responses leave. Adds the counts
    to ``run.stats``."""
    config, registry, records = run.config, run.registry, run.records
    handle = build_annotator(run.annotator)
    prompt_config = prompting_mod.PromptConfig(
        variant=variant, registry_hash=registry.hash,
        max_icl_examples_per_entity=config.max_icl_examples)
    frames = [prompting_mod.PromptFrame(prompt_config, registry, persona)
              for persona in personas]
    prompts = [(frame, record.text) for record in records for frame in frames]
    with ResponseCache(config.cache_dir) as cache:
        index, table, unparseable = response_annotations(
            registry, annotate_batch(handle, prompts, cache=cache), len(frames))
        for key in prompt_keys([prompts[i] for i in unparseable],
                               handle.model_name):
            cache.discard(key)
    run.stats["unparseable_responses"] += len(unparseable)
    run.stats["annotator_calls"] += handle.stats.calls
    run.stats["cache_hits"] += handle.stats.cache_hits
    run.stats["annotator_failures"] += handle.stats.failures
    return handle, index, table


def _annotate(run):
    personas = run.personas or [None]
    run.handle, run.index, run.table = annotate_records(
        run, prompting_mod.PromptVariant.from_string(run.config.prompt_variant),
        personas)
    run.write("annotations", "annotations.jsonl", write_annotation_store,
              [r.id for r in run.records],
              [p.id if p else None for p in personas], run.index, run.table,
              annotator=run.handle.model_name)


def _matrix(run):
    """Fill ``run.levels``, the (N, P, E) confidence levels of every
    annotation (P = 1 without personas), and write the persona matrices."""
    run.levels = personas_mod.build_confidence_matrix(run.index, run.table,
                                                      run.registry)
    if run.personas:
        run.write("matrices", "matrices.csv", personas_mod.write_matrices,
                  [r.id for r in run.records], [p.id for p in run.personas],
                  run.levels, run.registry)


def _router(run):
    config, registry = run.config, run.registry
    if config.persona_mode != "router":
        return
    run.router_model, loss_history = router_mod.train_router(
        run.features, run.levels, run.gold,
        tuple(p.id for p in run.personas), run.router_config, registry,
        rows=run.rows(run.split.train))
    run.router_model.embedding_provider = HashedNgramEmbedder(
        config.encoder_dim, config.seed).tag
    run.write("router", "router.json", router_mod.save_router,
              run.router_model, loss_history=loss_history)


def choose_personas(run, mode):
    """(N, k) persona rows per query in persona ``mode``: the router's top
    k, a seeded sample, or None for "none"."""
    k = run.config.persona_k
    if mode == "router":
        return router_mod.select_top_k(run.router_model, run.features, k)
    if mode == "random":
        return personas_mod.sample_personas(
            [r.id for r in run.records], len(run.personas), k, run.config.seed)
    return None


def _aggregate(run):
    """Aggregate each query's chosen personas (``run.chosen``, (N, k) rows)
    into ``run.teacher`` (N, E levels), and write it and the choice; without
    personas, the teacher is the single annotation, and its store the
    response table's."""
    config, records = run.config, run.records
    chosen = run.chosen = choose_personas(run, config.persona_mode)
    if chosen is None:
        run.teacher = run.levels[:, 0]
        index, table = run.index, run.table
    else:
        run.teacher = personas_mod.aggregate_ensemble(
            run.levels, chosen, threshold=config.aggregation_threshold)
        first, index = _distinct_rows(run.teacher)
        table = personas_mod.level_annotations(run.teacher[first], run.registry)
    run.write("aggregated", "aggregated.jsonl", write_annotation_store,
              [r.id for r in records], [None], index, table,
              annotator=f"ensemble-{config.persona_mode}")
    if chosen is not None:
        run.write("selections", "selections.jsonl", _write_rows,
                  [r.id for r in records], "personas", chosen,
                  lambda rows: [run.personas[row].id for row in rows])


def _labels(run):
    """Fill ``run.labels``, the (N, E) weak labels: an entity is set iff its
    teacher level reaches the config's filter. ``labels.jsonl`` lists them
    in query-id order."""
    min_confidence = Confidence.from_label(run.config.min_confidence)
    run.labels = run.teacher >= min_confidence
    ids = [r.id for r in run.records]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    head = {"registry_hash": run.registry.hash,
            "provenance": run.handle.model_name,
            "min_confidence": min_confidence.label}
    run.write("labels", "labels.jsonl", _write_rows, [ids[i] for i in order],
              "labels", run.labels[order],
              lambda flags: [e for e, f in zip(run.registry.ids, flags) if f],
              head=json.dumps(head, sort_keys=True) + "\n")


def _train(run):
    """Train the classifier on the train rows of the run's features and
    weak labels, gathered batch by batch, checkpointing on its dev rows,
    scored in place."""
    config, X, Y = run.config, run.features, run.labels
    run.model, run.history = classifier_mod.train_classifier(
        X, Y, X, Y, run.classifier_config, run.registry,
        HashedNgramEmbedder(config.encoder_dim, config.seed),
        rows=run.rows(run.split.train), dev_rows=run.rows(run.split.dev))
    # The tune stage writes the tuned model; writing the untuned one first
    # would cost a second full serialization of the weights.
    if run.until == "train":
        run.write("classifier", "classifier.json",
                  classifier_mod.save_classifier, run.model,
                  history=run.history)


def _tune(run):
    choices = classifier_mod.tune_thresholds(
        run.model, run.features, run.labels,
        classifier_mod.MAX_F1, rows=run.rows(run.split.dev))
    classifier_mod.set_thresholds(run.model, choices)
    run.write("classifier", "classifier.json", classifier_mod.save_classifier,
              run.model, history=run.history)


def _eval(run):
    """Score the lexical baseline and the classifier on (n, E) label arrays."""
    config, registry = run.config, run.registry
    test_records = list(run.split.test)
    rows = run.rows(test_records)
    probs = classifier_mod.predict_probs_batch(run.model, run.features, rows)
    reference = (run.teacher[rows] > 0 if config.eval_reference == "teacher"
                 else run.gold[rows])
    systems = {}
    if run.lexicon is not None:
        systems["baseline"] = personas_mod.annotation_levels(
            [baseline_mod.lexical_match(run.lexicon, r.text)
             for r in test_records], registry) > 0
    systems["classifier"] = probs >= run.model.thresholds
    reports = run.reports = []
    for weights in (None, [r.frequency for r in test_records]):
        scored = {name: eval_mod.score(reference, pred, registry.ids, weights,
                                       config.eval_reference, name)
                  for name, pred in systems.items()}
        reports += scored.values()
        if "baseline" in scored and weights is None:
            for mode, target in ((classifier_mod.MATCH_PRECISION, "precision"),
                                 (classifier_mod.MATCH_RECALL, "recall")):
                reports.append(eval_mod.matched_operating_point(
                    probs, reference, scored["baseline"], mode, registry.ids,
                    candidate=f"classifier@matching_{target}"))
    run.write("eval", "eval.jsonl", eval_mod.write_report_jsonl, reports)


# One function per entry of STAGES, in the same order; ``until`` runs a
# prefix of this table.
_STAGE_TABLE = (_ingest, _split, _annotate, _matrix, _router, _aggregate,
                _labels, _train, _tune, _eval)


def run_pipeline(config, until="eval"):
    """Execute the pipeline through stage ``until``; returns PipelineResult."""
    if until not in STAGES:
        raise PipelineConfigError(f"unknown stage {until!r}")
    run = _Run(config, until)
    os.makedirs(config.output_dir, exist_ok=True)
    for stage in _STAGE_TABLE[:STAGES.index(until) + 1]:
        stage(run)
    manifest = {
        "config_digest": config.semantic_digest(),
        "seed": config.seed,
        "artifacts": list(run.artifacts.values()),
    }
    manifest_path = os.path.join(config.output_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return PipelineResult(manifest, manifest_path, run.stats,
                          config.output_dir, run)


def _distinct_rows(array):
    """First row of each distinct row of 2-D ``array`` (compared by bytes),
    and each row's index into those."""
    array = np.ascontiguousarray(array)
    rows = array.view(np.dtype((np.void, array.itemsize * array.shape[1])))
    return np.unique(rows.ravel(), return_index=True, return_inverse=True)[1:]


def _write_rows(path, query_ids, name, array, values, head=""):
    """``head``, then the ``json.dumps`` line of {"id": query id, name:
    values(row)} per row of 2-D ``array``, each distinct row encoded once."""
    first, index = _distinct_rows(array)
    ends = [f', "{name}": {json.dumps(values(array[row].tolist()))}}}\n'
            for row in first]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for qid, row in zip(query_ids, index.tolist()):
            fh.write('{"id": ' + json.dumps(qid) + ends[row])
