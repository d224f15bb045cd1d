"""End-to-end orchestration: ingest through evaluation, with a manifest.

Stage order: ingest -> split -> annotate (persona fan-out or single
annotator) -> confidence matrices -> router training and per-query persona
selection (router mode) -> ensemble aggregation -> weak labels ->
classifier training -> threshold tuning -> evaluation against the lexical
baseline. Every produced file is listed in ``manifest.json`` with a sha256
digest.

Reruns are cheap: the annotate stage reads the response cache, so a
completed pipeline re-executed with the same configuration performs zero
annotator calls, and every other stage is a fast deterministic
recomputation. The manifest echoes a digest of the semantic configuration
(paths under the output and cache directories excluded), so two runs of the
same configuration produce byte-identical manifests regardless of where
their outputs live.
"""

import hashlib
import json
import os
import random
from dataclasses import dataclass, field, asdict

from . import baseline as baseline_mod
from . import classifier as classifier_mod
from . import data as data_mod
from . import evaluation as eval_mod
from . import personas as personas_mod
from . import prompting as prompting_mod
from . import router as router_mod
from .annotations import Annotation, Confidence, read_annotation_store, write_annotation_store
from .errors import PipelineConfigError, UnparseableResponseError
from .features import HashedNgramEmbedder
from .llm_client import (AnnotationFailure, AnnotatorHandle, HttpEndpointConfig,
                         ResponseCache, annotate_batch, mock_handle)
from .taxonomy import load_registry

PERSONA_MODES = ("none", "random", "router")

STAGES = ("ingest", "split", "annotate", "matrix", "router", "aggregate",
          "labels", "train", "tune", "eval")


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
    embedding_dim: int = 64
    router: dict = field(default_factory=dict)
    classifier: dict = field(default_factory=dict)
    encoder_dim: int = 512
    rebalance_cap: float = 0.0    # 0 disables rebalancing before router training
    eval_reference: str = "gold"  # "gold" or "teacher"
    max_icl_examples: int = 4

    def __post_init__(self):
        self.ratios = tuple(self.ratios)
        if self.persona_mode not in PERSONA_MODES:
            raise PipelineConfigError(
                f"persona_mode must be one of {PERSONA_MODES}, "
                f"got {self.persona_mode!r}")
        if self.eval_reference not in ("gold", "teacher"):
            raise PipelineConfigError(
                f"eval_reference must be 'gold' or 'teacher', "
                f"got {self.eval_reference!r}")

    def semantic_digest(self):
        """Digest of everything that shapes results; output locations and
        the cache directory are irrelevant to the artifacts' content."""
        echo = asdict(self)
        for key in ("output_dir", "cache_dir"):
            echo.pop(key, None)
        for key in ("registry_path", "queries_path", "gazetteer_path",
                    "personas_path", "gold_path"):
            echo[key] = os.path.basename(str(echo[key]))
        blob = json.dumps(echo, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def load_run_config(path, overrides=None):
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.update(overrides or {})
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        if not p:
            return ""
        return p if os.path.isabs(p) else os.path.normpath(os.path.join(base, p))

    for key in ("registry_path", "queries_path", "gazetteer_path",
                "personas_path", "gold_path", "output_dir", "cache_dir"):
        if key in raw:
            raw[key] = resolve(raw[key])
    annotator = raw.get("annotator", {})
    if annotator.get("gazetteer"):
        annotator["gazetteer"] = resolve(annotator["gazetteer"])
    return RunConfig(**raw)


def build_annotator(config):
    """AnnotatorHandle from the ``annotator`` section of a RunConfig."""
    spec = dict(config.annotator)
    kind = spec.pop("kind", "mock")
    if kind == "mock":
        gazetteer_path = spec.pop("gazetteer", "") or config.gazetteer_path
        if not gazetteer_path:
            raise PipelineConfigError("mock annotator needs a gazetteer path")
        gazetteer = baseline_mod.load_gazetteer(gazetteer_path)
        return mock_handle(gazetteer, **spec)
    if kind == "http":
        return AnnotatorHandle(HttpEndpointConfig(**spec))
    raise PipelineConfigError(f"unknown annotator kind: {kind!r}")


def _check_paths(config):
    required = [("registry_path", config.registry_path),
                ("queries_path", config.queries_path)]
    if config.gazetteer_path:
        required.append(("gazetteer_path", config.gazetteer_path))
    if config.personas_path:
        required.append(("personas_path", config.personas_path))
    if config.gold_path:
        required.append(("gold_path", config.gold_path))
    gaz = config.annotator.get("gazetteer") if config.annotator else None
    if gaz:
        required.append(("annotator.gazetteer", gaz))
    for name, path in required:
        if not path or not os.path.exists(path):
            raise PipelineConfigError(f"{name} does not resolve: {path!r}")
    if config.persona_mode != "none" and not config.personas_path:
        raise PipelineConfigError(
            f"persona_mode {config.persona_mode!r} needs personas_path")
    if config.persona_mode == "router" and not config.gold_path:
        raise PipelineConfigError("router mode needs gold_path for training")
    if config.eval_reference == "gold" and not config.gold_path:
        raise PipelineConfigError("eval_reference 'gold' needs gold_path")


@dataclass
class PipelineResult:
    manifest: dict
    manifest_path: str
    stats: dict
    output_dir: str


def _digest_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _gold_store(config, records):
    store = read_annotation_store(config.gold_path)
    if store and isinstance(next(iter(store)), tuple):
        store = {qid: ann for (qid, _), ann in store.items()}
    missing = [r.id for r in records if r.id not in store]
    if missing:
        raise PipelineConfigError(
            f"gold annotations missing for {len(missing)} ingested queries")
    return store


def response_annotation(registry, response, stats=None):
    """Annotation for one annotator response or ``AnnotationFailure``.

    A failed call or an unparseable response becomes an empty annotation
    carrying a warning, so one bad response stays that query's failure.
    Unparseable responses are counted in ``stats["unparseable_responses"]``
    when ``stats`` is given; failed calls are already counted by the handle.
    """
    if isinstance(response, AnnotationFailure):
        return Annotation(
            entities={}, warnings=(f"annotator failure: {response.error}",))
    try:
        return prompting_mod.parse_response(registry, response)
    except UnparseableResponseError as exc:
        if stats is not None:
            stats["unparseable_responses"] += 1
        return Annotation(entities={}, warnings=(f"unparseable response: {exc}",))


def run_pipeline(config, until="eval"):
    """Execute the pipeline through stage ``until``; returns PipelineResult."""
    if until not in STAGES:
        raise PipelineConfigError(f"unknown stage {until!r}")
    _check_paths(config)
    os.makedirs(config.output_dir, exist_ok=True)
    reached = STAGES.index(until)
    use_personas = config.persona_mode != "none"
    want_router = config.persona_mode == "router"
    artifacts = []
    stats = {"annotator_calls": 0, "cache_hits": 0, "annotator_failures": 0,
             "unparseable_responses": 0}

    def emit(name, filename):
        artifacts.append({"name": name, "path": filename,
                          "sha256": _digest_file(os.path.join(config.output_dir, filename))})

    def out(filename):
        return os.path.join(config.output_dir, filename)

    registry = load_registry(config.registry_path)

    # --- ingest -----------------------------------------------------------
    records = data_mod.read_queries(config.queries_path)
    data_mod.write_queries_jsonl(out("queries.jsonl"), records)
    emit("queries", "queries.jsonl")
    frequencies = {r.id: r.frequency for r in records}

    def finish():
        manifest = {
            "config_digest": config.semantic_digest(),
            "seed": config.seed,
            "artifacts": artifacts,
        }
        manifest_path = out("manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return PipelineResult(manifest=manifest, manifest_path=manifest_path,
                              stats=stats, output_dir=config.output_dir)

    if reached < STAGES.index("split"):
        return finish()

    # --- split ------------------------------------------------------------
    split = data_mod.split_dataset(records, config.ratios, config.seed)
    data_mod.write_split_manifest(out("split.jsonl"), split)
    emit("split", "split.jsonl")
    if reached < STAGES.index("annotate"):
        return finish()

    # --- annotate ---------------------------------------------------------
    handle = build_annotator(config)
    cache = ResponseCache(config.cache_dir)
    personas = (personas_mod.load_personas(config.personas_path)
                if use_personas else None)
    prompt_config = prompting_mod.PromptConfig(
        variant=prompting_mod.PromptVariant.from_string(config.prompt_variant),
        registry_hash=registry.hash,
        max_icl_examples_per_entity=config.max_icl_examples,
    )

    prompts = []
    keys = []
    persona_list = personas if use_personas else [None]
    for record in records:
        for persona in persona_list:
            prompts.append(prompting_mod.build_prompt(
                prompt_config, registry, record.text, persona))
            keys.append((record.id, persona.id if persona else None))
    responses = annotate_batch(handle, prompts, cache=cache)
    stats["annotator_calls"] = handle.stats.calls
    stats["cache_hits"] = handle.stats.cache_hits
    stats["annotator_failures"] = handle.stats.failures

    annotations = {key: response_annotation(registry, response, stats)
                   for key, response in zip(keys, responses)}
    write_annotation_store(out("annotations.jsonl"), annotations,
                           annotator=handle.model_name)
    emit("annotations", "annotations.jsonl")
    if reached < STAGES.index("matrix"):
        return finish()

    # --- confidence matrices ----------------------------------------------
    matrices = {}
    if use_personas:
        for record in records:
            per_persona = {p.id: annotations[(record.id, p.id)] for p in personas}
            matrices[record.id] = personas_mod.build_confidence_matrix(
                record, per_persona, personas, registry)
        personas_mod.write_matrices(out("matrices.csv"),
                                    [matrices[r.id] for r in records], registry)
        emit("matrices", "matrices.csv")
    if reached < STAGES.index("router"):
        return finish()

    # --- router -----------------------------------------------------------
    router_model = None
    router_encoder = HashedNgramEmbedder(dim=config.embedding_dim,
                                         seed=config.seed)
    if want_router:
        gold = _gold_store(config, records)
        train_records = list(split.train)
        if config.rebalance_cap:
            train_records = data_mod.rebalance_by_entity(
                train_records, gold, cap_fraction=config.rebalance_cap,
                seed=config.seed)
        router_config = router_mod.RouterTrainConfig(
            **{"seed": config.seed, **config.router})
        examples = [
            (router_encoder.embed(r.text), matrices[r.id], gold[r.id].label_set())
            for r in train_records
        ]
        router_model, loss_history = router_mod.train_router(
            examples, router_config, registry)
        router_model.embedding_provider = router_encoder.tag
        router_mod.save_router(out("router.json"), router_model,
                               loss_history=loss_history)
        emit("router", "router.json")
    if reached < STAGES.index("aggregate"):
        return finish()

    # --- aggregate ---------------------------------------------------------
    aggregated = {}
    if not use_personas:
        aggregated = {r.id: annotations[(r.id, None)] for r in records}
    else:
        for record in records:
            matrix = matrices[record.id]
            if want_router:
                chosen = router_mod.select_top_k(
                    router_model, router_encoder.embed(record.text),
                    config.persona_k)
            elif config.persona_mode == "random":
                rng = random.Random(f"{config.seed}:{record.id}")
                chosen = sorted(rng.sample([p.id for p in personas],
                                           min(config.persona_k, len(personas))))
            else:
                chosen = list(matrix.persona_ids)
            aggregated[record.id] = personas_mod.aggregate_ensemble(
                matrix.subset(chosen), registry,
                threshold=config.aggregation_threshold)
    write_annotation_store(out("aggregated.jsonl"), aggregated,
                           annotator=f"ensemble-{config.persona_mode}")
    emit("aggregated", "aggregated.jsonl")
    if reached < STAGES.index("labels"):
        return finish()

    # --- weak labels --------------------------------------------------------
    min_conf = Confidence.from_label(config.min_confidence)
    weak = classifier_mod.weak_labels_from_annotations(
        registry, aggregated, min_confidence=min_conf,
        provenance=handle.model_name)
    _write_labels(out("labels.jsonl"), weak, registry)
    emit("labels", "labels.jsonl")
    if reached < STAGES.index("train"):
        return finish()

    # --- classifier train ----------------------------------------------------
    backend = HashedNgramEmbedder(dim=config.encoder_dim, seed=config.seed)
    train_set = classifier_mod.labeled_queries(split.train, weak)
    dev_set = classifier_mod.labeled_queries(split.dev, weak)
    clf_config = classifier_mod.ClassifierTrainConfig(
        **{"seed": config.seed, **config.classifier})
    model, history = classifier_mod.train_classifier(
        train_set, dev_set, clf_config, registry, backend=backend)
    if reached < STAGES.index("tune"):
        classifier_mod.save_classifier(out("classifier.json"), model,
                                       history=history)
        emit("classifier", "classifier.json")
        return finish()

    # --- threshold tune -------------------------------------------------------
    choices = classifier_mod.tune_thresholds(model, dev_set,
                                             classifier_mod.MAX_F1,
                                             backend=backend)
    classifier_mod.set_thresholds(model, choices)
    classifier_mod.save_classifier(out("classifier.json"), model, history=history)
    emit("classifier", "classifier.json")
    if reached < STAGES.index("eval"):
        return finish()

    # --- evaluate -------------------------------------------------------------
    test_records = list(split.test)
    if config.eval_reference == "teacher":
        reference = {r.id: aggregated[r.id] for r in test_records}
        reference_tag = "teacher"
    else:
        gold = _gold_store(config, records)
        reference = {r.id: gold[r.id] for r in test_records}
        reference_tag = "gold"

    test_probs = {}
    pred_store = {}
    probs_matrix = classifier_mod.predict_probs_batch(
        model, [r.text for r in test_records], backend=backend)
    for row, record in enumerate(test_records):
        test_probs[record.id] = probs_matrix[row]
        pred_store[record.id] = classifier_mod.apply_thresholds(
            model, probs_matrix[row])

    reports = []
    if config.gazetteer_path:
        lexicon = baseline_mod.load_gazetteer(config.gazetteer_path)
        baseline_store = {
            r.id: baseline_mod.lexical_match(lexicon, r.text)
            for r in test_records
        }
        for weighted in (False, True):
            base_report = eval_mod.compute_metrics(
                reference, baseline_store, frequencies=frequencies,
                weighted=weighted, registry=registry,
                reference=reference_tag, candidate="baseline")
            clf_report = eval_mod.compute_metrics(
                reference, pred_store, frequencies=frequencies,
                weighted=weighted, registry=registry,
                reference=reference_tag, candidate="classifier")
            reports.append((base_report, "baseline"))
            reports.append((clf_report, "classifier"))
            if not weighted:
                for mode, tag in ((classifier_mod.MATCH_PRECISION,
                                   "classifier@matching_precision"),
                                  (classifier_mod.MATCH_RECALL,
                                   "classifier@matching_recall")):
                    matched = eval_mod.matched_operating_point(
                        test_probs, reference, base_report, mode, registry,
                        frequencies=frequencies, weighted=weighted,
                        candidate=tag)
                    reports.append((matched, tag))
    else:
        for weighted in (False, True):
            reports.append((eval_mod.compute_metrics(
                reference, pred_store, frequencies=frequencies,
                weighted=weighted, registry=registry,
                reference=reference_tag, candidate="classifier"), "classifier"))

    eval_mod.write_report_jsonl(out("eval.jsonl"), reports)
    emit("eval", "eval.jsonl")
    return finish()


def _write_labels(path, weak, registry):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "registry_hash": weak.registry_hash,
            "min_confidence": weak.min_confidence.label,
            "provenance": weak.provenance,
        }, sort_keys=True) + "\n")
        for row, qid in enumerate(weak.query_ids):
            labels = [e for e, flag in zip(registry.ids, weak.indicators[row])
                      if flag]
            fh.write(json.dumps({"id": qid, "labels": labels}) + "\n")
