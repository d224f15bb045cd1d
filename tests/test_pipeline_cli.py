import importlib.util
import json
import math
import os
import random
import re
import shutil
import socket
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from querydistill import cli, llm_client, prompting, serving
from querydistill.annotations import Confidence, read_annotation_store
from querydistill.baseline import lexical_match, load_gazetteer
from querydistill.classifier import (ClassifierTrainConfig, apply_thresholds,
                                     labeled_queries, load_classifier,
                                     predict_probs, predict_probs_batch,
                                     save_classifier, train_classifier)
from querydistill.data import normalize_query, read_queries, split_dataset
from querydistill.errors import PipelineConfigError
from querydistill.evaluation import compute_metrics, report_records
from querydistill.features import HashedNgramEmbedder
from querydistill.personas import load_personas, sample_personas
from querydistill.pipeline import (STAGES, RunConfig, choose_personas,
                                   load_gold, load_run_config, run_pipeline)
from querydistill.router import RouterTrainConfig
from querydistill.serving import ServeState, serve_tcp
from querydistill.synth import (ambiguity_table, impoverished_gazetteer,
                                synth_gazetteer, synth_queries, synth_registry)
from querydistill.taxonomy import load_registry


ENTITIES = ["Genre", "Sport", "Holiday", "AudioLanguage", "StreamingService"]


def build_workspace(root, count=150, persona_mode="router", noise_rate=0.05,
                    seed=7):
    """Write a complete synthetic pipeline workspace under ``root``."""
    from querydistill.annotations import write_annotation_store
    from querydistill.baseline import write_gazetteer
    from querydistill.data import render_queries

    root = str(root)
    os.makedirs(root, exist_ok=True)
    gazetteer = synth_gazetteer(entities=ENTITIES)
    registry = synth_registry(entities=ENTITIES)
    records, gold = synth_queries(gazetteer, count, seed=seed)

    with open(os.path.join(root, "registry.jsonl"), "w") as fh:
        for entity in registry:
            fh.write(json.dumps({"id": entity.id,
                                 "definition": entity.definition,
                                 "icl_examples": list(entity.icl_examples)}) + "\n")
    write_gazetteer(os.path.join(root, "teacher_gazetteer.jsonl"), gazetteer)
    write_gazetteer(os.path.join(root, "baseline_gazetteer.jsonl"),
                    impoverished_gazetteer(gazetteer, 0.4, seed=seed))
    with open(os.path.join(root, "queries.tsv"), "w") as fh:
        fh.write(render_queries(records))
    write_annotation_store(
        os.path.join(root, "gold.jsonl"), list(gold), [None],
        range(len(gold)), list(gold.values()), annotator="synthetic-gold")
    with open(os.path.join(root, "personas.jsonl"), "w") as fh:
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
                      "seed": 0, "noise_rate": noise_rate,
                      "persona_bias": {
                          "enthusiast": {"add": {"Sport": "Low"}},
                          "skeptic": {"remove": ["Holiday"]},
                      }},
        "prompt_variant": "confidence_cot_icl",
        "persona_mode": persona_mode,
        "persona_k": 2,
        "seed": seed,
        "embedding_dim": 32,
        "encoder_dim": 128,
        "router": {"hidden_dim": 16, "epochs": 4},
        "classifier": {"epochs": 4, "head_dim": 16},
    }
    config_path = os.path.join(root, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2)
    return config_path


def perfbench_spans():
    """perfbench/spans.py loaded as a plain module, without installing its
    tracer."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def stage_workspace(tmp_path_factory):
    """A small workspace whose config is shared by the per-stage runs."""
    return build_workspace(tmp_path_factory.mktemp("stages"), count=60)


class TestRunPipeline:
    def test_router_mode_smoke_nine_artifacts(self, tmp_path):
        config_path = build_workspace(tmp_path)
        result = run_pipeline(load_run_config(config_path))
        names = [a["name"] for a in result.manifest["artifacts"]]
        assert names == ["queries", "split", "annotations", "matrices",
                         "router", "aggregated", "selections", "labels",
                         "classifier", "eval"]
        assert len(names) == 10
        for artifact in result.manifest["artifacts"]:
            assert os.path.exists(os.path.join(result.output_dir,
                                               artifact["path"]))
        assert result.stats["annotator_calls"] > 0
        assert result.stats["annotator_failures"] == 0

    def test_rerun_identical_manifest_and_zero_calls(self, tmp_path):
        config_path = build_workspace(tmp_path)
        first = run_pipeline(load_run_config(
            config_path, {"output_dir": str(tmp_path / "out_a")}))
        second = run_pipeline(load_run_config(
            config_path, {"output_dir": str(tmp_path / "out_b")}))
        bytes_a = open(first.manifest_path, "rb").read()
        bytes_b = open(second.manifest_path, "rb").read()
        assert bytes_a == bytes_b
        assert second.stats["annotator_calls"] == 0
        assert second.stats["cache_hits"] > 0

    def test_teacher_gazetteer_change_misses_the_cache(self, tmp_path):
        # The mock's cache keys digest its gazetteer, so a rerun against a
        # cut teacher gazetteer asks the annotator again and writes the new
        # teacher's annotations, not the cached ones.
        config_path = build_workspace(tmp_path, count=60)
        config = load_run_config(config_path)
        first = run_pipeline(config, until="annotate")
        teacher = config.annotator["gazetteer"]
        cut = {e: sorted(" ".join(p) for p in phrases)[:1]
               for e, phrases in load_gazetteer(teacher).phrases.items()}
        with open(teacher, "w") as fh:
            for entity, phrases in cut.items():
                fh.write(json.dumps({"entity": entity,
                                     "phrases": phrases}) + "\n")
        second = run_pipeline(load_run_config(config_path, {
            "output_dir": str(tmp_path / "cut")}), until="annotate")
        assert second.stats["annotator_calls"] == \
            first.stats["annotator_calls"] > 0
        assert second.run.handle.model_name != first.run.handle.model_name
        assert ((tmp_path / "cut" / "annotations.jsonl").read_bytes()
                != (tmp_path / "out" / "annotations.jsonl").read_bytes())

    def test_manifest_digest_tracks_config_changes(self, tmp_path):
        config_path = build_workspace(tmp_path)
        base = run_pipeline(load_run_config(
            config_path, {"output_dir": str(tmp_path / "o1")}))
        changed = run_pipeline(load_run_config(
            config_path, {"output_dir": str(tmp_path / "o2"), "seed": 8}))
        assert base.manifest["config_digest"] != changed.manifest["config_digest"]
        digests = lambda r: {a["name"]: a["sha256"]
                             for a in r.manifest["artifacts"]}
        assert digests(base) != digests(changed)

    def test_missing_registry_fails_before_any_work(self, tmp_path):
        config_path = build_workspace(tmp_path)
        config = load_run_config(config_path, {
            "registry_path": str(tmp_path / "nope.jsonl"),
            "output_dir": str(tmp_path / "should_not_exist"),
        })
        with pytest.raises(PipelineConfigError, match="registry_path"):
            run_pipeline(config)
        assert not os.path.exists(tmp_path / "should_not_exist")

    def test_persona_mode_none_and_random(self, tmp_path):
        config_path = build_workspace(tmp_path / "w1", persona_mode="none")
        result = run_pipeline(load_run_config(config_path))
        names = [a["name"] for a in result.manifest["artifacts"]]
        assert "matrices" not in names and "router" not in names
        assert "selections" not in names
        assert not os.path.exists(os.path.join(result.output_dir,
                                               "selections.jsonl"))

        config_path = build_workspace(tmp_path / "w2", persona_mode="random")
        result = run_pipeline(load_run_config(config_path))
        names = [a["name"] for a in result.manifest["artifacts"]]
        assert "matrices" in names and "router" not in names
        assert names.index("selections") == names.index("aggregated") + 1

    @pytest.mark.parametrize("mode", ["router", "random"])
    def test_row_writers_match_one_json_dumps_per_line(self, tmp_path, mode):
        """``selections.jsonl`` and ``labels.jsonl`` encode each distinct
        row once and equal one ``json.dumps`` per line."""
        config_path = build_workspace(tmp_path, count=80, persona_mode=mode)
        run = run_pipeline(load_run_config(config_path), until="labels").run
        persona_ids = [p.id for p in run.personas]
        chosen = choose_personas(run, mode).tolist()
        selections = [json.dumps({"id": r.id, "personas": [
            persona_ids[j] for j in row]}) for r, row in zip(run.records, chosen)]
        labels = [json.dumps({"registry_hash": run.registry.hash,
                              "min_confidence": "High",
                              "provenance": run.handle.model_name},
                             sort_keys=True)]
        labels += [json.dumps({"id": r.id, "labels": [
            e for e, flag in zip(run.registry.ids, flags) if flag]})
            for r, flags in sorted(zip(run.records, run.labels.tolist()),
                                   key=lambda pair: pair[0].id)]
        for name, lines in (("selections.jsonl", selections),
                            ("labels.jsonl", labels)):
            with open(os.path.join(run.config.output_dir, name)) as fh:
                assert fh.read() == "".join(line + "\n" for line in lines)
        # Rows repeat, so each file shares encoded rows between lines.
        assert len(set(map(tuple, chosen))) < len(chosen)
        assert len(set(map(tuple, run.labels.tolist()))) < len(chosen)

    def test_medium_filter_labels_contain_high_labels(self, tmp_path):
        # teacher >= Medium contains teacher >= High, query by query.
        config_path = build_workspace(tmp_path, count=150)
        labels = {}
        for level in ("High", "Medium"):
            out = tmp_path / level
            run_pipeline(load_run_config(config_path, {
                "min_confidence": level, "output_dir": str(out)}))
            with open(out / "labels.jsonl") as fh:
                assert json.loads(fh.readline())["min_confidence"] == level
                labels[level] = [json.loads(line) for line in fh]
        assert ([r["id"] for r in labels["High"]]
                == [r["id"] for r in labels["Medium"]])
        for high, medium in zip(labels["High"], labels["Medium"]):
            assert set(high["labels"]) <= set(medium["labels"])
        # The filter matters on this corpus: some query gains a label.
        assert labels["High"] != labels["Medium"]

    def test_until_stops_early(self, tmp_path):
        config_path = build_workspace(tmp_path)
        result = run_pipeline(load_run_config(config_path), until="split")
        names = [a["name"] for a in result.manifest["artifacts"]]
        assert names == ["queries", "split"]

    @pytest.mark.parametrize("until", [s for s in STAGES if s != "split"])
    def test_until_lists_artifacts_of_stages_run(self, stage_workspace,
                                                 tmp_path, until):
        # The artifacts each stage writes. Train writes classifier.json only
        # when the run ends there; otherwise tune writes the tuned model.
        written = {"ingest": ["queries"], "split": ["split"],
                   "annotate": ["annotations"], "matrix": ["matrices"],
                   "router": ["router"],
                   "aggregate": ["aggregated", "selections"],
                   "labels": ["labels"], "train": ["classifier"],
                   "tune": ["classifier"], "eval": ["eval"]}
        expected = list(dict.fromkeys(
            name for s in STAGES[:STAGES.index(until) + 1]
            for name in written[s]))
        out = tmp_path / "out"
        result = run_pipeline(load_run_config(
            stage_workspace, {"output_dir": str(out)}), until=until)
        artifacts = result.manifest["artifacts"]
        assert [a["name"] for a in artifacts] == expected
        assert sorted(os.listdir(out)) == sorted(
            [a["path"] for a in artifacts] + ["manifest.json"])
        if until in ("train", "tune"):
            with open(out / "classifier.json") as fh:
                thresholds = json.load(fh)["thresholds"]
            if until == "train":
                assert all(t == 0.5 for t in thresholds)
            else:
                assert any(t != 0.5 for t in thresholds)

    def test_same_corpus_in_two_directories_same_manifest(self, tmp_path):
        assert cli.main(["synth", "--out", str(tmp_path / "a"), "--count",
                         "200", "--seed", "7"]) == 0
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        for corpus in ("a", "b"):
            run_pipeline(load_run_config(str(tmp_path / corpus / "config.json")))
        assert ((tmp_path / "a" / "out" / "manifest.json").read_bytes()
                == (tmp_path / "b" / "out" / "manifest.json").read_bytes())

    def test_router_mode_reads_gold_once(self, stage_workspace, tmp_path,
                                         monkeypatch):
        # The router and eval stages share one read, made before the output
        # directory exists.
        from querydistill import annotations, pipeline
        read_annotations = annotations.read_annotations
        paths = []

        def counting_read(path, registry=None):
            paths.append((path, os.path.exists(tmp_path / "out")))
            return read_annotations(path, registry)

        for module in (annotations, pipeline):
            monkeypatch.setattr(module, "read_annotations", counting_read)
        config = load_run_config(stage_workspace, {
            "output_dir": str(tmp_path / "out"), "eval_reference": "gold"})
        assert config.persona_mode == "router"
        run_pipeline(config)
        assert paths == [(config.gold_path, False)]

    def test_router_mode_encodes_each_text_once_per_encoder(
            self, stage_workspace, tmp_path, monkeypatch):
        from querydistill import pipeline
        shared_pass = pipeline.hashed_ngram_matrices
        passes, batches, embeds = [], [], []

        def counting_pass(texts, seed, dims, dtypes=None):
            passes.append((sorted(dims), list(texts)))
            return shared_pass(texts, seed, dims, dtypes)

        monkeypatch.setattr(pipeline, "hashed_ngram_matrices", counting_pass)
        monkeypatch.setattr(HashedNgramEmbedder, "encode_batch",
                            lambda self, texts: batches.append(texts))
        monkeypatch.setattr(HashedNgramEmbedder, "embed",
                            lambda self, text: embeds.append(text))
        config = load_run_config(stage_workspace, {
            "output_dir": str(tmp_path / "out")})
        assert config.persona_mode == "router"
        run_pipeline(config)
        texts = [r.text for r in read_queries(config.queries_path)]
        # Both encoders come from one n-gram pass over every text.
        assert passes == [(sorted([config.embedding_dim, config.encoder_dim]),
                           texts)]
        assert batches == []
        assert embeds == []

    def test_tracer_targets_resolve(self):
        # perfbench/spans.py traces these names with getattr; a rename in
        # src/ would otherwise leave a traced run reading 0 calls.
        spans = perfbench_spans()
        for module_name, qualname in spans.TARGETS:
            owner = importlib.import_module(f"querydistill.{module_name}")
            for attr in qualname.split("."):
                owner = getattr(owner, attr)
            assert callable(owner), (module_name, qualname)
        targets = {spans.span_name(*target) for target in spans.TARGETS}
        for openers in spans.STAGE_OPENERS.values():
            assert set(openers) <= targets

    def test_router_mode_calls_each_teacher_opener_once(
            self, stage_workspace, tmp_path, monkeypatch):
        from querydistill import personas, router
        calls = []

        def counting(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for module, name in ((personas, "build_confidence_matrix"),
                             (router, "train_router"),
                             (router, "select_top_k"),
                             (personas, "aggregate_ensemble")):
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
        config = load_run_config(stage_workspace, {
            "output_dir": str(tmp_path / "out")})
        assert config.persona_mode == "router"
        run_pipeline(config)
        # The matrix, router and aggregate stages open on these calls.
        assert calls == ["build_confidence_matrix", "train_router",
                         "select_top_k", "aggregate_ensemble"]

    def test_router_mode_calls_each_student_opener_once(
            self, stage_workspace, tmp_path, monkeypatch):
        from querydistill import classifier
        calls, depth = [], [0]

        def counting(name, real):
            # Only calls the stages make count: tune_thresholds scores the
            # dev rows through predict_probs_batch itself.
            def call(*args, **kwargs):
                if not depth[0]:
                    calls.append(name)
                depth[0] += 1
                try:
                    return real(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return call

        for name in ("weak_labels_from_annotations", "labeled_queries",
                     "train_classifier", "tune_thresholds",
                     "predict_probs_batch"):
            monkeypatch.setattr(classifier, name,
                                counting(name, getattr(classifier, name)))
        config = load_run_config(stage_workspace, {
            "output_dir": str(tmp_path / "out")})
        assert config.persona_mode == "router"
        run_pipeline(config)
        # The train, tune and eval stages open on these calls. The stages
        # index the run's label array and build no label rows from a store.
        assert calls == ["train_classifier", "tune_thresholds",
                         "predict_probs_batch"]

    def test_eval_report_contents(self, tmp_path):
        config_path = build_workspace(tmp_path, count=200)
        result = run_pipeline(load_run_config(config_path))
        with open(os.path.join(result.output_dir, "eval.jsonl")) as fh:
            records = [json.loads(line) for line in fh]
        systems = {r["system"] for r in records}
        assert {"baseline", "classifier", "classifier@matching_precision",
                "classifier@matching_recall"} <= systems
        micro = [r for r in records if r["entity"] == "micro"
                 and r["system"] == "classifier" and not r["weighted"]]
        assert len(micro) == 1
        assert 0.0 <= micro[0]["f1"] <= 1.0

    @pytest.mark.parametrize("reference", ["gold", "teacher"])
    def test_eval_records_match_per_query_scoring(self, tmp_path, reference):
        # eval.jsonl's baseline and classifier records, unweighted and
        # weighted, equal compute_metrics on per-query dict stores: the
        # reference, lexical_match, and apply_thresholds of
        # predict_probs_batch.
        config = load_run_config(build_workspace(tmp_path, count=150),
                                 {"eval_reference": reference})
        out = run_pipeline(config).output_dir
        records = read_queries(config.queries_path)
        test = split_dataset(records, config.ratios, config.seed).test
        ref = read_annotation_store(
            config.gold_path if reference == "gold" else
            os.path.join(out, "aggregated.jsonl"))
        model = load_classifier(os.path.join(out, "classifier.json"))
        lexicon = load_gazetteer(config.gazetteer_path)
        probs = predict_probs_batch(
            model, model.backend().encode_batch([r.text for r in test]))
        stores = {
            "baseline": {r.id: lexical_match(lexicon, r.text) for r in test},
            "classifier": {r.id: apply_thresholds(model, p)
                           for r, p in zip(test, probs)}}
        with open(os.path.join(out, "eval.jsonl")) as fh:
            written = [json.loads(line) for line in fh]
        for weighted in (False, True):
            for system, store in stores.items():
                expected = report_records(compute_metrics(
                    {r.id: ref[r.id] for r in test}, store,
                    frequencies={r.id: r.frequency for r in records},
                    weighted=weighted, registry=load_registry(
                        config.registry_path),
                    reference=reference, candidate=system))
                assert [r for r in written if r["system"] == system
                        and r["weighted"] == weighted] == \
                    json.loads(json.dumps(expected))

    @pytest.mark.parametrize("mode", ["router", "none"])
    def test_unparseable_cached_response_stays_local(self, tmp_path, capsys,
                                                     mode):
        # A cached response that does not parse is counted on the run that
        # replays it and dropped from the cache; the next run asks the
        # annotator again, and the run after that replays its answer. Its
        # warning stays on its own cell: one line of annotations.jsonl, and
        # without personas that query's line of aggregated.jsonl.
        assert cli.main(["synth", "--out", str(tmp_path), "--count", "200",
                         "--seed", "7"]) == 0
        config_path = str(tmp_path / "config.json")
        run_pipeline(load_run_config(config_path, {"persona_mode": mode}),
                     until="annotate")
        cache_dir = str(tmp_path / "cache")
        with open(os.path.join(cache_dir, llm_client.LOG_NAME)) as fh:
            victim = fh.readline().split(" ", 1)[0]
        with llm_client.ResponseCache(cache_dir) as cache:
            cache.discard(victim)
            cache.put(victim, "Sorry, I cannot help with that.")

        def run(name):
            return run_pipeline(load_run_config(
                config_path, {"output_dir": str(tmp_path / name),
                              "persona_mode": mode}))

        def warned(name, filename):
            with open(tmp_path / name / filename) as fh:
                return [json.loads(line) for line in fh
                        if "unparseable response" in line]

        refused = run("out_a")
        prompts = refused.stats["cache_hits"]
        assert refused.stats["unparseable_responses"] == 1
        assert refused.stats["annotator_calls"] == 0
        assert refused.stats["annotator_failures"] == 0
        cell, = warned("out_a", "annotations.jsonl")
        assert cell["entities"] == {}
        aggregated = warned("out_a", "aggregated.jsonl")
        if mode == "none":
            assert [(r["id"], r["entities"], r["warnings"])
                    for r in aggregated] == [
                (cell["id"], {}, cell["warnings"])]
        else:
            assert aggregated == []
        capsys.readouterr()
        args = ["pipeline", "-c", config_path, "--output-dir",
                str(tmp_path / "out_b"), "--persona-mode", mode]
        assert cli.main(args) == 0
        assert (f"annotator calls: 1, cache hits: {prompts - 1}, failures: 0, "
                "unparseable responses: 0") in capsys.readouterr().out
        replay = run("out_c")
        assert replay.stats["annotator_calls"] == 0
        assert replay.stats["cache_hits"] == prompts
        assert replay.stats["unparseable_responses"] == 0
        manifests = [(tmp_path / name / "manifest.json").read_bytes()
                     for name in ("out_a", "out_b", "out_c")]
        assert manifests[0] != manifests[1] == manifests[2]
        for filename in ("annotations.jsonl", "aggregated.jsonl"):
            assert warned("out_b", filename) == []

    def test_one_unparseable_text_under_two_keys_counts_twice(
            self, tmp_path, monkeypatch):
        # Each distinct response text is parsed once per run, but every
        # prompt that got an unparseable one is counted and tombstoned.
        assert cli.main(["synth", "--out", str(tmp_path), "--count", "200",
                         "--seed", "7"]) == 0
        config_path = str(tmp_path / "config.json")
        run_pipeline(load_run_config(config_path), until="annotate")
        cache_dir = str(tmp_path / "cache")
        with open(os.path.join(cache_dir, llm_client.LOG_NAME)) as fh:
            victims = [fh.readline().split(" ", 1)[0] for _ in range(2)]
        with llm_client.ResponseCache(cache_dir) as cache:
            for key in victims:
                cache.discard(key)
                cache.put(key, "Sorry, I cannot help with that.")
        parsed = []
        parse_response = prompting.parse_response

        def counting_parse(registry, raw):
            parsed.append(raw)
            return parse_response(registry, raw)

        monkeypatch.setattr(prompting, "parse_response", counting_parse)
        result = run_pipeline(load_run_config(config_path), until="annotate")
        assert result.stats["unparseable_responses"] == 2
        assert result.stats["annotator_calls"] == 0
        assert len(parsed) == len(set(parsed)) < result.stats["cache_hits"]
        assert parsed.count("Sorry, I cannot help with that.") == 1
        with llm_client.ResponseCache(cache_dir) as cache:
            assert [cache.get(key) for key in victims] == [None, None]
        with open(os.path.join(cache_dir, llm_client.LOG_NAME)) as fh:
            tail = [line.split(" ") for line in fh.read().splitlines()[-2:]]
        assert [(key, payload) for key, _, payload in tail] == [
            (victims[0], "null"), (victims[1], "null")]

    def test_annotate_renders_no_prompt_text(self, tmp_path, monkeypatch):
        # The mock annotator and a warm replay need only each prompt's cache
        # key, query, persona and sections; perfbench still reads one cache
        # get per prompt and traces the prompt functions by name.
        spans = perfbench_spans()
        for name in ("prompting.build_prompt", "prompting.parse_response",
                     "llm_client.ResponseCache.get"):
            assert name in {spans.span_name(*t) for t in spans.TARGETS}
        assert callable(prompting.build_prompt)
        assert callable(prompting.parse_response)
        assert callable(llm_client.ResponseCache.get)

        def no_render(frame, query):
            raise AssertionError("a prompt's text was rendered")

        gets = []
        get = llm_client.ResponseCache.get

        def counting_get(cache, key):
            gets.append(key)
            return get(cache, key)

        monkeypatch.setattr(prompting.PromptFrame, "render", no_render)
        monkeypatch.setattr(llm_client.ResponseCache, "get", counting_get)
        config_path = build_workspace(tmp_path, count=60)
        cold = run_pipeline(load_run_config(config_path))
        prompts = cold.stats["annotator_calls"]
        assert prompts == 3 * len(read_queries(tmp_path / "queries.tsv"))
        assert len(gets) == prompts
        gets.clear()
        warm = run_pipeline(load_run_config(
            config_path, {"output_dir": str(tmp_path / "warm")}))
        assert warm.stats["annotator_calls"] == 0
        assert warm.stats["cache_hits"] == prompts
        assert len(gets) == prompts
        assert ((tmp_path / "warm" / "manifest.json").read_bytes()
                == (tmp_path / "out" / "manifest.json").read_bytes())

    def test_manifest_identical_across_blas_thread_counts(self, tmp_path):
        import subprocess
        import sys
        import querydistill
        assert cli.main(["synth", "--out", str(tmp_path), "--count", "200",
                         "--seed", "7"]) == 0
        src = os.path.dirname(os.path.dirname(querydistill.__file__))
        manifests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "querydistill.cli", "pipeline",
                 "-c", str(tmp_path / "config.json"),
                 "--output-dir", str(tmp_path / f"out{threads}"),
                 "--cache-dir", str(tmp_path / f"cache{threads}")],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            manifests.append(
                (tmp_path / f"out{threads}" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]


class TestCli:
    def test_taxonomy_default(self, capsys):
        assert cli.main(["taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "22 entities" in out
        assert "IntentMovie" in out

    def test_taxonomy_validate(self, capsys):
        assert cli.main(["taxonomy", "--validate", " Genre "]) == 0
        assert capsys.readouterr().out.strip() == "Genre"
        assert cli.main(["taxonomy", "--validate", "Nope"]) == 2

    def test_synth_ingest_split(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert cli.main(["synth", "--out", str(out), "--count", "50",
                         "--seed", "3"]) == 0
        assert cli.main(["pipeline", "-c", str(out / "config.json"),
                         "--until", "split", "--seed", "3"]) == 0
        queries = (out / "out" / "queries.jsonl").read_text().splitlines()
        assert ([json.loads(l)["id"] for l in queries]
                == [r.id for r in read_queries(out / "queries.tsv")])
        lines = (out / "out" / "split.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["seed"] == 3
        parts = {json.loads(l)["part"] for l in lines[1:]}
        assert parts == {"train", "dev", "test"}
        assert len(lines) - 1 == len(queries)

    def test_pipeline_command(self, tmp_path, capsys):
        config_path = build_workspace(tmp_path, count=120)
        assert cli.main(["pipeline", "-c", config_path]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out

    def test_stage_command_annotate(self, tmp_path, capsys):
        config_path = build_workspace(tmp_path, count=60)
        assert cli.main(["pipeline", "-c", config_path,
                         "--until", "annotate"]) == 0
        out_dir = os.path.join(os.path.dirname(config_path), "out")
        assert os.path.exists(os.path.join(out_dir, "annotations.jsonl"))
        assert not os.path.exists(os.path.join(out_dir, "classifier.json"))

    @pytest.mark.parametrize("until", STAGES)
    def test_pipeline_until_matches_run_pipeline(self, stage_workspace,
                                                 tmp_path, capsys, until):
        by_cli, by_api = tmp_path / "cli", tmp_path / "api"
        assert cli.main(["pipeline", "-c", stage_workspace, "--until", until,
                         "--output-dir", str(by_cli)]) == 0
        printed = capsys.readouterr().out
        expected = run_pipeline(load_run_config(
            stage_workspace, {"output_dir": str(by_api)}), until=until)
        assert sorted(os.listdir(by_cli)) == sorted(os.listdir(by_api))
        for name in os.listdir(by_api):
            assert (by_cli / name).read_bytes() == (by_api / name).read_bytes()
        for artifact in expected.manifest["artifacts"]:
            assert f"{artifact['sha256'][:12]}  {artifact['path']}" in printed

    def test_pipeline_prints_eval_micro_lines(self, tmp_path, capsys):
        config_path = build_workspace(tmp_path, count=60)
        out_dir = os.path.join(os.path.dirname(config_path), "out")
        assert cli.main(["pipeline", "-c", config_path,
                         "--until", "tune"]) == 0
        assert " F1=" not in capsys.readouterr().out
        assert cli.main(["pipeline", "-c", config_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        with open(os.path.join(out_dir, "eval.jsonl")) as fh:
            micro = [r for r in map(json.loads, fh) if r["entity"] == "micro"]
        assert micro
        printed = [line for line in lines if " F1=" in line]
        assert len(printed) == len(micro)
        for line, record in zip(printed, micro):
            assert line.split()[0] == record["system"]
            assert f"weighted={record['weighted']}" in line
            assert f"F1={record['f1']:.4f}" in line
        assert "annotator calls: 0, cache hits:" in lines[lines.index(
            printed[0]) - 1]

    def test_help_lists_the_nine_commands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--help"])
        assert exit_info.value.code == 0
        listed = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
        assert listed.split(",") == [
            "taxonomy", "pipeline", "ablation", "serve", "synth"]

    def test_readme_cli_block_names_every_command(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("\n## CLI\n", 1)[1]
        block = section.split("```\n", 2)[1]
        named = [line.split()[0] for line in block.splitlines() if line.strip()]
        usage = cli.build_parser().format_usage()
        assert named == re.search(r"\{([^}]*)\}", usage).group(1).split(",")

    def test_router_select_writes_selections(self, tmp_path, capsys):
        from querydistill.router import load_router, select_top_k
        config_path = build_workspace(tmp_path, count=60)
        assert cli.main(["pipeline", "-c", config_path,
                         "--until", "aggregate"]) == 0
        config = load_run_config(config_path)
        with open(os.path.join(config.output_dir, "selections.jsonl")) as fh:
            rows = [json.loads(line) for line in fh]
        records = read_queries(config.queries_path)
        assert [r["id"] for r in rows] == [r.id for r in records]
        assert all(len(r["personas"]) == config.persona_k == 2 for r in rows)
        # The rows are the top-k of a fresh encoding through the saved router.
        model = load_router(os.path.join(config.output_dir, "router.json"))
        encoder = HashedNgramEmbedder(dim=config.embedding_dim,
                                      seed=config.seed)
        chosen = select_top_k(
            model, encoder.encode_batch([r.text for r in records]),
            config.persona_k)
        assert [r["personas"] for r in rows] == [
            [model.persona_ids[i] for i in row] for row in chosen.tolist()]

    def test_ablation_command(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = llm_client.mock_annotate
        monkeypatch.setattr(llm_client, "mock_annotate",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        config_path = build_workspace(tmp_path, count=40, noise_rate=0.0)
        assert cli.main(["ablation", "-c", config_path]) == 0
        out = capsys.readouterr().out
        assert "prompt variant grid" in out
        assert "persona selection comparison" in out
        assert "CONFIDENCE_COT_ICL" in out
        assert calls
        # The last line sums the annotator stats of every pass.
        cold, cold_calls = out.splitlines(), len(calls)
        assert cold[-1] == (f"annotator calls: {cold_calls}, cache hits: 0, "
                            "failures: 0, unparseable responses: 0")
        calls.clear()
        assert cli.main(["ablation", "-c", config_path]) == 0
        warm = capsys.readouterr().out.splitlines()
        assert warm[:-1] == cold[:-1]
        assert warm[-1] == (f"annotator calls: 0, cache hits: {cold_calls}, "
                            "failures: 0, unparseable responses: 0")
        assert calls == []

    @pytest.mark.parametrize("weighted, variant", [
        (False, "baseline"), (True, "confidence_cot_icl")])
    def test_ablation_prints_the_dict_store_figures(self, tmp_path, capsys,
                                                    weighted, variant):
        """The arms scored on one run's arrays print the figures of one
        pipeline run per arm, its store read back and scored by
        ``compute_metrics``. Ambiguous phrases make the prompts without ICL
        examples score lower, so the none arm must be the configured
        variant's."""
        config_path = build_workspace(tmp_path, count=80)
        with open(config_path) as fh:
            raw = json.load(fh)
        raw["annotator"]["ambiguous"] = ambiguity_table(
            synth_gazetteer(entities=ENTITIES), 0.3, seed=1)
        raw["prompt_variant"] = variant
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        flags = ["--weighted"] if weighted else []
        assert cli.main(["ablation", "-c", config_path, *flags]) == 0
        printed = capsys.readouterr().out.splitlines()
        expected = oracles.dict_store_ablation(load_run_config(
            config_path, {"output_dir": str(tmp_path / "oracle")}), weighted)
        assert printed[:-1] == expected
        assert printed[-1].startswith("annotator calls: ")
        # The grid is not flat, so a wrong variant in an arm shows.
        assert len({line.split()[-3] for line in expected[1:5]}) > 1

    def test_ablation_annotates_each_prompt_set_once(self, tmp_path, capsys,
                                                     monkeypatch):
        """A warm ablation makes one pipeline pass, trains the router once
        and sends 4·N + P·N prompts to the annotator: one set per prompt
        variant and one per persona. Only the persona pass writes files."""
        from querydistill import pipeline, router
        config_path = build_workspace(tmp_path, count=60)
        assert cli.main(["ablation", "-c", config_path]) == 0
        capsys.readouterr()
        calls = {"run_pipeline": [], "train_router": [], "annotate_batch": []}

        def counting(name, real):
            def call(*args, **kwargs):
                calls[name].append((args, kwargs))
                return real(*args, **kwargs)
            return call

        for module, name in ((cli, "run_pipeline"), (router, "train_router"),
                             (pipeline, "annotate_batch")):
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
        assert cli.main(["ablation", "-c", config_path]) == 0
        assert [(os.path.basename(args[0].output_dir), kwargs["until"])
                for args, kwargs in calls["run_pipeline"]] == [
            ("ablation-personas", "router")]
        assert len(calls["train_router"]) == 1
        n = len(read_queries(load_run_config(config_path).queries_path))
        prompts = sum(len(args[1]) for args, _ in calls["annotate_batch"])
        assert prompts == 4 * n + 3 * n
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            f"annotator calls: 0, cache hits: {prompts},")
        assert [p.name for p in tmp_path.glob("out/*")] == [
            "ablation-personas"]

    def test_ablation_reads_each_input_once(self, tmp_path, capsys,
                                            monkeypatch):
        """The grid reuses the persona pass's inputs: one ablation reads the
        queries, the gold and the teacher gazetteer once each, and the
        baseline gazetteer, which no arm scores, not at all."""
        from querydistill import annotations, baseline, data, pipeline
        config_path = build_workspace(tmp_path, count=60)
        config = load_run_config(config_path)
        reads = []

        def counting(name, real):
            def call(path, *args, **kwargs):
                reads.append((name, str(path)))
                return real(path, *args, **kwargs)
            return call

        for module, name in ((data, "read_queries"),
                             (annotations, "read_annotations"),
                             (baseline, "load_gazetteer")):
            real = getattr(module, name)
            for holder in (module, pipeline, cli):
                if getattr(holder, name, None) is real:
                    monkeypatch.setattr(holder, name, counting(name, real))
        assert cli.main(["ablation", "-c", config_path]) == 0
        assert sorted(reads) == sorted([
            ("read_queries", config.queries_path),
            ("read_annotations", config.gold_path),
            ("load_gazetteer", config.annotator["gazetteer"])])

    def test_ablation_checks_gold_before_any_arm(self, tmp_path, capsys):
        config_path = build_workspace(tmp_path, count=60)
        with open(config_path) as fh:
            raw = json.load(fh)
        gold = (tmp_path / "gold.jsonl").read_text().splitlines(keepends=True)
        (tmp_path / "short_gold.jsonl").write_text("".join(gold[3:]))
        for gold_path, message in (
                ("", "error: gold annotations need an existing gold_path"),
                ("short_gold.jsonl",
                 "error: gold annotations missing for 3 ingested queries")):
            raw["gold_path"] = gold_path
            with open(config_path, "w") as fh:
                json.dump(raw, fh)
            assert cli.main(["ablation", "-c", config_path]) == 2
            assert capsys.readouterr().err.startswith(message)
            assert list(tmp_path.glob("out/ablation-*")) == []

    @pytest.mark.parametrize("field, line", [
        ("gold_path", '{"id": "0123", "entities": {"Genre": '),
        ("gazetteer_path", '{"entity": "Genre", "phrases": ["comedy"')],
        ids=["gold", "gazetteer"])
    def test_bad_store_line_is_an_error(self, tmp_path, capsys, field, line):
        config_path = build_workspace(tmp_path, count=60)
        path = getattr(load_run_config(config_path), field)
        with open(path, "a") as fh:
            fh.write(line + "\n")
        with open(path) as fh:
            number = len(fh.readlines())
        assert cli.main(["pipeline", "-c", config_path]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path} line {number}: not valid JSON (")

    @pytest.mark.parametrize("line, message", [
        (b'{"text": 5, "frequency": 2}', "text not a string: 5"),
        (b'{"text": "comedy movies", "frequency": 1.9}',
         "frequency not an integer: 1.9"),
        (b'{"text": "comedy movies", "frequency": true}',
         "frequency not an integer: True"),
        (b"comedy movies", "expected 'query<TAB>frequency'"),
        (b"caf\xe9 movies\t2", "not UTF-8 (invalid continuation byte)"),
        (None, "no query records in input")],
        ids=["text-number", "frequency-fraction", "frequency-bool", "no-tab",
             "utf8", "empty"])
    def test_bad_queries_line_is_an_error(self, tmp_path, capsys, line,
                                          message):
        # Every error names the file; a bad line names its number too.
        config_path = build_workspace(tmp_path, count=60)
        path = load_run_config(config_path).queries_path
        if line is None:
            with open(path, "wb") as fh:
                fh.write(b"\n \n")
            where = f"{path}:"
        else:
            with open(path, "ab") as fh:
                fh.write(line + b"\n")
            with open(path, "rb") as fh:
                where = f"{path} line {len(fh.readlines())}:"
        assert cli.main(["pipeline", "-c", config_path]) == 2
        assert capsys.readouterr().err == f"error: {where} {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, line, message", [
        ("annotator.gazetteer", '{"entity": "Genre", "phrases": ["a b c d e f"]}',
         "gazetteer phrase must be 1-5 tokens: 'a b c d e f'"),
        ("gold_path", '{"id": ', "not valid JSON ("),
        ("annotator.gazetteer", '{"entity": "Bogus", "phrases": ["comedy"]}',
         "unknown entity label: 'Bogus'"),
        ("gazetteer_path", '{"entity": "Bogus", "phrases": ["comedy"]}',
         "unknown entity label: 'Bogus'"),
        ("gold_path", '{"id": "q-extra", "entities": {"Bogus": "High"}}',
         "unknown entity label: 'Bogus'"),
        ("registry_path", '{"id": "Genre|Kind", "definition": "d"}',
         "entity id must not contain '|' or ',': 'Genre|Kind'"),
        ("registry_path", '{"id": "Genre,Kind", "definition": "d"}',
         "entity id must not contain '|' or ',': 'Genre,Kind'"),
        ("annotator", {"persona_bias": "x"},
         "persona_bias must be an object, got 'x'"),
        ("annotator", {"ambiguous": "x"},
         "ambiguous must be an object, got 'x'"),
        ("annotator", {"seed": "abc"}, "seed must be an integer, got 'abc'"),
        ("annotator", {"seed": -3}, "seed must be >= 0, got -3"),
        ("annotator", {"noise_rate": "0.1"},
         "noise_rate must be a finite number, got '0.1'"),
        ("annotator", {"persona_bias": {"enthusiast": {"add": {"Sport": "Hgh"}}}},
         "persona_bias 'enthusiast' add: not a confidence level: 'Hgh'"),
        ("annotator", {"persona_bias": {"skeptic": {"remove": "Holiday"}}},
         "persona_bias 'skeptic' remove must be a list, got 'Holiday'"),
        ("annotator", {"persona_bias": {"skeptic": {"add": {"Bogus": "High"}}}},
         "annotator persona_bias 'skeptic' add: unknown entity label: 'Bogus'"),
        ("annotator", {"ambiguous": {"comedy": "Bogus"}},
         "annotator ambiguous 'comedy': unknown entity label: 'Bogus'"),
        ("annotator", {"persona_bias": {"skeptic": {"remov": ["Holiday"]}}},
         "persona_bias 'skeptic': unknown key: 'remov'"),
        ("annotator", {"persona_bias": {"skeptik": {"remove": ["Holiday"]}}},
         "annotator persona_bias 'skeptik': unknown persona id, not in ")],
        ids=["teacher-gazetteer", "gold", "teacher-gazetteer-entity",
             "baseline-gazetteer-entity", "gold-entity", "registry-bar-id",
             "registry-comma-id", "mock-persona-bias", "mock-ambiguous",
             "mock-seed-string", "mock-seed-negative", "mock-noise-string",
             "mock-add-level", "mock-remove-string", "mock-add-entity",
             "mock-ambiguous-entity", "mock-bias-key", "mock-bias-persona"])
    def test_bad_input_leaves_no_output_dir(self, tmp_path, capsys, field,
                                            line, message):
        # Every input is read and checked before the output directory exists
        # and before any annotator call. A dict ``line`` updates the mock's
        # config section; any other is appended to the input file ``field``.
        config_path = build_workspace(tmp_path, count=60)
        config = load_run_config(config_path)
        if field == "annotator":
            with open(config_path) as fh:
                raw = json.load(fh)
            raw["annotator"].update(line)
            with open(config_path, "w") as fh:
                json.dump(raw, fh)
            where = ""
        else:
            path = (config.annotator["gazetteer"]
                    if field == "annotator.gazetteer" else getattr(config, field))
            with open(path, "a") as fh:
                fh.write(line + "\n")
            with open(path) as fh:
                where = f"{path} line {len(fh.readlines())}: "
        assert cli.main(["pipeline", "-c", config_path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}{message}")
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()

    def test_bad_baseline_phrase_fails_before_any_artifact(self, tmp_path,
                                                           capsys):
        config_path = build_workspace(tmp_path, count=60)
        path = load_run_config(config_path).gazetteer_path
        with open(path, "a") as fh:
            fh.write('{"entity": "Genre", "phrases": ["a b c d e f"]}\n')
        with open(path) as fh:
            number = len(fh.readlines())
        assert cli.main(["pipeline", "-c", config_path]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path} line {number}: gazetteer phrase must be 1-5 "
            "tokens: 'a b c d e f'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, message", [
        ({"personas_path": ""},
         "error: persona_mode 'router' needs personas_path"),
        ({"persona_k": 5}, "error: k must be in [1, 3], got 5")],
        ids=["personas_path", "persona_k"])
    def test_ablation_checks_personas_before_any_arm(self, tmp_path, capsys,
                                                     change, message):
        config_path = build_workspace(tmp_path, count=60)
        with open(config_path) as fh:
            raw = json.load(fh)
        raw.update(change)
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        assert cli.main(["ablation", "-c", config_path]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert list(tmp_path.glob("out/ablation-*")) == []

    def test_ablation_checks_paths_before_any_arm(self, tmp_path, capsys):
        config_path = build_workspace(tmp_path, count=60)
        with open(config_path) as fh:
            raw = json.load(fh)
        raw["registry_path"] = "nope.jsonl"
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        assert cli.main(["ablation", "-c", config_path]) == 2
        assert capsys.readouterr().err.startswith(
            "error: registry_path does not resolve")
        assert list(tmp_path.glob("out/ablation-*")) == []


@pytest.fixture(scope="module")
def served_model(tmp_path_factory):
    """A small classifier trained on synthetic data where comedy -> Genre."""
    tmp = tmp_path_factory.mktemp("serve")
    entities = ["Genre", "Sport", "Holiday", "AudioLanguage"]
    gazetteer = synth_gazetteer(entities=entities)
    registry = synth_registry(entities=entities)
    records, gold = synth_queries(gazetteer, 500, seed=4)
    split = int(len(records) * 0.85)
    encoder = HashedNgramEmbedder(dim=256, seed=0)
    parts = [(encoder.encode_batch([r.text for r in part]),
              labeled_queries(part, gold, registry, Confidence.HIGH))
             for part in (records[:split], records[split:])]
    config = ClassifierTrainConfig(epochs=12, seed=0, learning_rate=3e-3)
    model, _ = train_classifier(*parts[0], *parts[1], config, registry,
                                encoder)
    path = tmp / "classifier.json"
    save_classifier(path, model)
    return str(path), registry


def fresh_response(model, line):
    """``respond(line)`` computed from the model alone, as it was before the
    response memo, with ``latency_us`` 0."""
    query = line.strip()
    if not query:
        return json.dumps({"error": "empty query"})
    probs = predict_probs(model, query)
    selected = apply_thresholds(model, probs)
    labels = sorted(({"entity": entity, "prob": float(prob)}
                     for entity, prob in zip(model.entity_ids, probs)
                     if entity in selected), key=lambda item: -item["prob"])
    return json.dumps({"labels": labels, "latency_us": 0})


def without_latency(response):
    return re.sub(r'"latency_us": \d+}$', '"latency_us": 0}', response)


def memo_requests():
    """Queries of the served model's domain, each also upper-cased and
    re-spaced, in a seeded order in which every one repeats."""
    records, _ = synth_queries(synth_gazetteer(
        entities=["Genre", "Sport", "Holiday", "AudioLanguage"]), 80, seed=9)
    lines = [variant for r in records for variant in
             (r.text, r.text.upper(), "  " + r.text.replace(" ", " \t ") + "\n")]
    lines = lines * 3 + ["", "  \t"]
    random.Random(5).shuffle(lines)
    return lines


def memo_cost(query, labels):
    return sys.getsizeof(query) + sys.getsizeof(labels) + serving._MEMO_SLOT_BYTES


def assert_response_memo_consistent(state):
    """The memo's size is the sum of its entries' costs, within the limit."""
    memo = state.memo
    assert memo.size == sum(memo_cost(*item) for item in memo.entries.items())
    assert memo.size <= memo.limit == serving.RESPONSE_MEMO_LIMIT


class TestServe:
    def test_known_query_gets_genre(self, served_model):
        path, registry = served_model
        state = ServeState(path)
        response = json.loads(state.respond("comedy movies"))
        assert "latency_us" in response
        assert "Genre" in {l["entity"] for l in response["labels"]}

    def test_empty_line_is_error_object(self, served_model):
        state = ServeState(served_model[0])
        assert json.loads(state.respond("   ")) == {"error": "empty query"}

    def test_1000_sequential_requests_in_order(self, served_model):
        state = ServeState(served_model[0])
        queries = [f"comedy number {i}" for i in range(1000)]
        responses = [state.respond(q) for q in queries]
        assert len(responses) == 1000
        assert all(json.loads(r).get("labels") is not None for r in responses)

    def test_thresholds_flag_refused(self, served_model, tmp_path, capsys):
        # The model file carries the tuned thresholds; there is no other
        # thresholds file to serve with.
        thresholds_path = tmp_path / "thresholds.json"
        thresholds_path.write_text("{}")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["serve", "--model", served_model[0],
                      "--thresholds", str(thresholds_path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --thresholds" in capsys.readouterr().err

    def test_malformed_model_file_is_an_error_not_a_traceback(
            self, served_model, tmp_path, capsys):
        text = open(served_model[0], encoding="utf-8").read()
        bad = tmp_path / "classifier.json"
        for content in (json.dumps({"kind": "classifier"}),
                        text[:len(text) // 2]):
            bad.write_text(content)
            assert cli.main(["serve", "--model", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}")
            assert "Traceback" not in err

    def test_precomputed_encoder_model_refused(self, served_model, tmp_path,
                                               capsys):
        from querydistill.errors import ModelError
        payload = json.loads(open(served_model[0], encoding="utf-8").read())
        payload["backend"] = {"kind": "precomputed", "dim": 256,
                              "path": "vectors.jsonl"}
        bad = tmp_path / "classifier.json"
        bad.write_text(json.dumps(payload))
        message = (f"{bad} is not a valid classifier model file: "
                   "unknown encoder kind: 'precomputed'")
        with pytest.raises(ModelError) as refused:
            load_classifier(bad)
        assert str(refused.value) == message
        assert cli.main(["serve", "--model", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_encoder_dimension_mismatch_refused(self, served_model, tmp_path,
                                                capsys):
        payload = json.loads(open(served_model[0], encoding="utf-8").read())
        payload["backend"]["dim"] = 128
        bad = tmp_path / "classifier.json"
        bad.write_text(json.dumps(payload))
        assert cli.main(["serve", "--model", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad} is not a valid classifier model file: "
            "U1 takes 256-dim features but the encoder gives 128\n")

    def test_tcp_round_trip(self, served_model):
        state = ServeState(served_model[0])
        server = serve_tcp(state, port=0)
        import threading
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            with socket.create_connection((host, port), timeout=5) as conn:
                conn.sendall(b"comedy movies\n\nsecond query\n")
                data = b""
                while data.count(b"\n") < 3:
                    data += conn.recv(4096)
            lines = data.decode().strip().splitlines()
            assert len(lines) == 3
            assert "Genre" in lines[0]
            assert json.loads(lines[1]) == {"error": "empty query"}
            assert "labels" in json.loads(lines[2])
        finally:
            server.shutdown()
            server.server_close()

    def test_tcp_over_long_line_keeps_connection(self, served_model):
        state = ServeState(served_model[0])
        server = serve_tcp(state, port=0)
        import threading
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            with socket.create_connection((host, port), timeout=5) as conn:
                conn.sendall(b"x" * (1 << 20) + b"\ncomedy movies\n")
                data = b""
                while data.count(b"\n") < 2:
                    chunk = conn.recv(4096)
                    assert chunk, "server closed the connection"
                    data += chunk
            lines = data.decode().strip().splitlines()
            assert len(lines) == 2
            assert "error" in json.loads(lines[0])
            assert "Genre" in {l["entity"] for l in json.loads(lines[1])["labels"]}
        finally:
            server.shutdown()
            server.server_close()

    def test_tcp_garbage_lines_keep_connection(self, served_model):
        state = ServeState(served_model[0])
        server = serve_tcp(state, port=0)
        import threading
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            with socket.create_connection((host, port), timeout=5) as conn:
                conn.sendall(b"\xff\xfe\xc3(\n\x00\ncomedy movies\n")
                data = b""
                while data.count(b"\n") < 3:
                    chunk = conn.recv(4096)
                    assert chunk, "server closed the connection"
                    data += chunk
            replies = [json.loads(line) for line in data.decode().splitlines()]
            assert len(replies) == 3
            assert all(isinstance(reply, dict) for reply in replies)
            expected = json.loads(state.respond("comedy movies"))
            del replies[-1]["latency_us"], expected["latency_us"]
            assert replies[-1] == expected
        finally:
            server.shutdown()
            server.server_close()

    def test_served_labels_match_the_eval_stage(self, tmp_path):
        # Serving scores one query at a time, the eval stage a batch; both
        # must pick the same labels from the float32 heads.
        workspace = tmp_path / "c"
        assert cli.main(["synth", "--out", str(workspace), "--count", "200"]) == 0
        assert cli.main(["pipeline", "-c", str(workspace / "config.json")]) == 0
        out = workspace / "out"
        with open(out / "split.jsonl") as fh:
            test_ids = {r["id"] for r in map(json.loads, list(fh)[1:])
                        if r["part"] == "test"}
        records = [r for r in read_queries(str(workspace / "queries.tsv"))
                   if r.id in test_ids]
        assert len(records) == len(test_ids) > 0
        texts = [r.text for r in records]
        state = ServeState(str(out / "classifier.json"))
        model = state.model
        served = [{label["entity"] for label in
                   json.loads(state.respond(text))["labels"]} for text in texts]
        batch = (predict_probs_batch(model, model.backend().encode_batch(texts))
                 >= model.thresholds)
        assert served == [{e for e, on in zip(model.entity_ids, row) if on}
                          for row in batch]
        # The served labels also give the eval stage's confusion counts.
        registry = load_registry(str(workspace / "registry.jsonl"))
        reference = load_gold(str(workspace / "gold.jsonl"), records, registry)
        with open(out / "eval.jsonl") as fh:
            rows = {r["entity"]: r for r in map(json.loads, fh)
                    if r["system"] == "classifier" and not r["weighted"]}
        for col, entity in enumerate(registry.ids):
            pred = np.array([entity in labels for labels in served])
            gold_col = reference[:, col]
            assert (rows[entity]["tp"], rows[entity]["fp"], rows[entity]["fn"]) \
                == ((pred & gold_col).sum(), (pred & ~gold_col).sum(),
                    (~pred & gold_col).sum())

    def test_serve_started_with_sigint_ignored_ends_on_sigint(
            self, served_model):
        # A background job of a non-interactive shell starts with SIGINT
        # ignored; the server still ends on SIGINT with a client connected.
        import signal
        import subprocess
        import sys
        import time
        import querydistill
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        src = os.path.dirname(os.path.dirname(querydistill.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "querydistill.cli", "serve",
             "--model", served_model[0], "--port", str(port)],
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while True:
                try:
                    conn = socket.create_connection(("127.0.0.1", port),
                                                    timeout=5)
                    break
                except OSError:
                    assert proc.poll() is None, proc.stderr.read()
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
            with conn:
                conn.sendall(b"comedy movies\n")
                data = b""
                while not data.endswith(b"\n"):
                    data += conn.recv(4096)
                assert "labels" in json.loads(data)
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()

    def test_stdio_over_long_line_then_query(self, served_model):
        import io
        from querydistill.serving import MAX_REQUEST_LINE, serve_stdio
        state = ServeState(served_model[0])
        stdin = io.StringIO("y" * (MAX_REQUEST_LINE + 1) + "\n"
                            + "z" * MAX_REQUEST_LINE + "\ncomedy movies\n")
        stdout = io.StringIO()
        serve_stdio(state, stdin=stdin, stdout=stdout)
        lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert len(lines) == 3
        assert "error" in lines[0]
        assert "labels" in lines[1]
        assert "Genre" in {l["entity"] for l in lines[2]["labels"]}

    @pytest.mark.parametrize("limit", [None, 2048], ids=["default", "small"])
    def test_memo_answers_as_computed(self, served_model, monkeypatch, limit):
        # Repeats, case and whitespace variants and blank lines; a limit of
        # 2 KiB keeps about ten entries, so the memo is cleared many times.
        if limit is not None:
            monkeypatch.setattr(serving, "RESPONSE_MEMO_LIMIT", limit)
        state = ServeState(served_model[0])
        lines = memo_requests()
        distinct = {normalize_query(line) for line in lines} - {""}
        for line in lines:
            assert without_latency(state.respond(line)) == fresh_response(
                state.model, line)
            assert_response_memo_consistent(state)
        assert 0 < len(state.memo.entries) <= len(distinct)
        if limit is None:
            assert set(state.memo.entries) == distinct
        else:
            assert len(state.memo.entries) < len(distinct) / 4

    def test_memo_bytes_within_its_accounted_size(self, served_model,
                                                  monkeypatch):
        # What tracemalloc counts for copies of the kept strings is no more
        # than the accounted size, so the limit bounds the memo in bytes.
        monkeypatch.setattr(serving, "RESPONSE_MEMO_LIMIT", 64 * 1024)
        state = ServeState(served_model[0])
        for i in range(600):
            state.respond(f"comedy film {i} " + "中" * (i % 3))
        assert_response_memo_consistent(state)
        assert state.memo.size > 48 * 1024  # near full
        kept = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept.append({query.encode().decode(): labels.encode().decode()
                         for query, labels in state.memo.entries.items()})
            copied = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert copied <= state.memo.size

    def test_memo_answers_an_over_limit_entry_without_keeping_it(
            self, served_model, monkeypatch):
        monkeypatch.setattr(serving, "RESPONSE_MEMO_LIMIT", 400)
        state = ServeState(served_model[0])
        state.respond("comedy movies")
        kept = dict(state.memo.entries)
        assert list(kept) == ["comedy movies"]
        line = "comedy movies " * 20
        assert memo_cost(normalize_query(line), "[]") > 400
        for _ in range(2):
            assert without_latency(state.respond(line)) == fresh_response(
                state.model, line)
            assert state.memo.entries == kept
            assert_response_memo_consistent(state)

    def test_memo_never_keeps_an_error(self, served_model, monkeypatch):
        state = ServeState(served_model[0])
        assert json.loads(state.respond(" \t ")) == {"error": "empty query"}

        def fail(*args, **kwargs):
            raise ValueError("heads unavailable")

        monkeypatch.setattr(serving, "predict_probs", fail)
        for _ in range(2):
            assert json.loads(state.respond("comedy movies")) == {
                "error": "heads unavailable"}
        assert state.memo.entries == {} and state.memo.size == 0
        monkeypatch.undo()
        assert without_latency(state.respond("comedy movies")) == \
            fresh_response(state.model, "comedy movies")
        assert list(state.memo.entries) == ["comedy movies"]

    def test_tcp_clients_share_the_memo(self, served_model, monkeypatch):
        # Four clients send the same requests in different orders at once;
        # a 4 KiB limit makes them clear the shared memo as they go.
        monkeypatch.setattr(serving, "RESPONSE_MEMO_LIMIT", 4096)
        state = ServeState(served_model[0])
        lines = [line.strip() or "?" for line in memo_requests()]
        expected = {line: fresh_response(state.model, line) for line in lines}
        server = serve_tcp(state, port=0)
        server_thread = threading.Thread(target=server.serve_forever,
                                         daemon=True)
        server_thread.start()
        results, errors = {}, []

        def client(seed):
            order = lines[:]
            random.Random(seed).shuffle(order)
            try:
                with socket.create_connection(server.server_address,
                                              timeout=30) as conn, \
                        conn.makefile("rb") as reader:
                    for line in order:
                        conn.sendall(line.encode("utf-8") + b"\n")
                        reply = reader.readline().decode("utf-8").rstrip("\n")
                        results[seed, line] = without_latency(reply)
            except Exception as exc:  # reported below
                errors.append(exc)

        clients = [threading.Thread(target=client, args=(seed,))
                   for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
            server.server_close()
        assert not any(thread.is_alive() for thread in clients)
        assert errors == []
        assert results == {(seed, line): expected[line]
                           for seed in range(4) for line in lines}
        assert_response_memo_consistent(state)


class TestConfigSurfaces:
    def test_prompt_variant_from_string(self):
        from querydistill.prompting import PromptVariant
        assert PromptVariant.from_string("confidence-cot-icl") is \
            PromptVariant.CONFIDENCE_COT_ICL
        assert PromptVariant.from_string("Baseline") is PromptVariant.BASELINE
        with pytest.raises(ValueError):
            PromptVariant.from_string("super_prompt")

    def test_build_annotator_kinds(self, tmp_path):
        # annotator_config checks the section once; build_annotator wraps
        # the checked config in a fresh handle.
        from querydistill.baseline import write_gazetteer
        from querydistill.pipeline import annotator_config, build_annotator
        write_gazetteer(tmp_path / "gaz.jsonl", synth_gazetteer())
        config = RunConfig(
            registry_path="r", queries_path="q", output_dir="o", cache_dir="c",
            annotator={"kind": "mock", "gazetteer": str(tmp_path / "gaz.jsonl")})
        registry = synth_registry()
        mock = annotator_config(config, registry)
        assert mock.gazetteer == synth_gazetteer()
        first, second = build_annotator(mock), build_annotator(mock)
        assert isinstance(first.config, llm_client.MockConfig) and first is not second
        assert first.stats is not second.stats
        config.annotator = {"kind": "http", "url": "http://x/y", "model": "m"}
        assert isinstance(build_annotator(annotator_config(config, registry))
                          .config, llm_client.HttpEndpointConfig)
        config.annotator = {"kind": "carrier-pigeon"}
        with pytest.raises(PipelineConfigError,
                           match="unknown annotator kind: 'carrier-pigeon'"):
            annotator_config(config, registry)

    @pytest.mark.parametrize("section, key, message", [
        (None, "persona_modes", "error: unknown config key: persona_modes"),
        ("annotator", "nosie_rate", "error: unknown annotator key: nosie_rate"),
        ("router", "hiden_dim", "error: unknown router key: hiden_dim"),
        ("classifier", "epoch", "error: unknown classifier key: epoch"),
        (None, "rebalance_cap", "error: unknown config key: rebalance_cap"),
        ("router", "entity_loss_weights",
         "error: unknown router key: entity_loss_weights"),
    ], ids=["top-level", "annotator", "router", "classifier", "rebalance_cap",
            "router-entity_loss_weights"])
    def test_config_typo_fails_before_any_stage(self, tmp_path, capsys,
                                                section, key, message):
        config_path = build_workspace(tmp_path, count=60)
        with open(config_path) as fh:
            raw = json.load(fh)
        (raw[section] if section else raw)[key] = 1
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        assert cli.main(["pipeline", "-c", config_path]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("prompt_variant", "cot",
         "error: prompt_variant: unknown prompt variant: 'cot'"),
        ("min_confidence", "Hgh",
         "error: min_confidence: not a confidence level: 'Hgh'"),
        ("persona_k", 0, "error: persona_k must be >= 1, got 0"),
        ("persona_k", "2", "error: persona_k must be an integer, got '2'"),
        ("persona_k", True, "error: persona_k must be an integer, got True"),
        ("annotator", {"kind": "http", "url": "http://127.0.0.1:9/generate",
                       "model": "m", "timeout": 0},
         "error: timeout must be > 0, got 0"),
        ("annotator", {"kind": "http", "model": "m"},
         "error: annotator: "),
        ("annotator", {"kind": "mock", "noise_rate": 1.5},
         "error: noise_rate must be in [0, 1), got 1.5"),
        ("embedding_dim", "64",
         "error: embedding_dim must be an integer, got '64'"),
        ("aggregation_threshold", True,
         "error: aggregation_threshold must be a finite number, got True"),
        ("ratios", [0.7, 0.3], "error: ratios must be three numbers"),
        ("router", {"epochs": 0}, "error: epochs must be >= 1, got 0"),
        ("classifier", {"epochs": 0}, "error: epochs must be >= 1, got 0"),
        ("classifier", {"learning_rate": -1e-3},
         "error: learning_rate must be >= 0, got -0.001"),
        ("classifier", {"batch_size": 0},
         "error: batch_size must be >= 1, got 0"),
        ("classifier", {"head_dim": 0}, "error: head_dim must be >= 1, got 0"),
        ("classifier", {"beta1": 1.0},
         "error: beta1 must be in [0, 1), got 1.0"),
        ("router", {"dropout_rate": 1.0},
         "error: dropout_rate must be in [0, 1), got 1.0"),
        ("classifier", {"patience": -1},
         "error: patience must be >= 1, got -1"),
        ("router", {"epochs": "5"},
         "error: epochs must be an integer, got '5'"),
        ("embedding_dim", 0, "error: embedding_dim must be >= 1, got 0"),
        ("encoder_dim", 0, "error: encoder_dim must be >= 1, got 0"),
        ("max_icl_examples", -1,
         "error: max_icl_examples must be >= 1, got -1"),
        ("max_icl_examples", 0, "error: max_icl_examples must be >= 1, got 0"),
        ("ratios", [0.5, 0.5, 0.5],
         "error: ratios must sum to 1, got (0.5, 0.5, 0.5)"),
        ("ratios", [0.9, 0.2, -0.1],
         "error: ratios must be positive, got (0.9, 0.2, -0.1)"),
        ("ratios", [0.7, float("nan"), 0.2],
         "error: ratios must be positive, got (0.7, nan, 0.2)"),
        ("aggregation_threshold", float("nan"),
         "error: aggregation_threshold must be a finite number, got nan"),
        ("annotator", {"kind": "http", "url": "http://127.0.0.1:9/generate",
                       "model": "m", "backoff": -1},
         "error: backoff must be >= 0, got -1"),
        ("annotator", {"kind": "http", "url": "http://127.0.0.1:9/generate",
                       "model": "m", "in_flight_limit": 0},
         "error: in_flight_limit must be >= 1, got 0"),
        ("annotator", {"kind": "http", "url": "http://127.0.0.1:9/generate",
                       "model": "m", "requests_per_second": -2.0},
         "error: requests_per_second must be >= 0, got -2.0"),
        ("annotator", {"kind": "http", "url": "http://127.0.0.1:9/generate",
                       "model": "m", "max_retries": 1.5},
         "error: max_retries must be an integer, got 1.5"),
    ], ids=["prompt_variant", "min_confidence", "persona_k", "persona_k-str",
            "persona_k-bool",
            "http-timeout", "http-without-url", "mock-noise-rate",
            "embedding_dim-str", "aggregation_threshold-bool", "ratios-two",
            "router-epochs", "classifier-epochs", "classifier-learning_rate",
            "classifier-batch_size", "classifier-head_dim", "classifier-beta1",
            "router-dropout_rate", "classifier-patience", "router-epochs-str",
            "embedding_dim-zero", "encoder_dim-zero", "max_icl_examples-negative",
            "max_icl_examples-zero", "ratios-sum", "ratios-negative", "ratios-nan",
            "aggregation_threshold-nan",
            "http-backoff", "http-in_flight_limit", "http-requests_per_second",
            "http-max_retries-float"])
    def test_config_value_fails_before_any_stage(self, tmp_path, capsys,
                                                 key, value, message):
        config_path = build_workspace(tmp_path, count=60)
        with open(config_path) as fh:
            raw = json.load(fh)
        raw[key] = value
        with open(config_path, "w") as fh:
            json.dump(raw, fh)
        assert cli.main(["pipeline", "-c", config_path]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "No such file or directory"),
        ('{"seed": 7', "not valid JSON ("),
        ("[]", "not a JSON object")],
        ids=["missing", "not-json", "not-object"])
    def test_bad_config_file_fails_before_any_stage(self, tmp_path, capsys,
                                                    content, message):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        assert cli.main(["pipeline", "-c", str(path),
                         "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config {path}: {message}")
        assert not (tmp_path / "out").exists()

    def test_router_persona_k_above_persona_count_fails_first(self, tmp_path,
                                                             capsys):
        # The workspace has 3 personas; random mode draws min(k, P) instead.
        config_path = build_workspace(tmp_path, count=60)
        assert cli.main(["pipeline", "-c", config_path,
                         "--persona-k", "5"]) == 2
        assert capsys.readouterr().err == "error: k must be in [1, 3], got 5\n"
        assert not (tmp_path / "out").exists()
        assert cli.main(["pipeline", "-c", config_path, "--until", "aggregate",
                         "--persona-mode", "random", "--persona-k", "5"]) == 0
        with open(tmp_path / "out" / "selections.jsonl") as fh:
            assert all(len(json.loads(line)["personas"]) == 3 for line in fh)

    def test_bad_persona_mode_rejected(self):
        with pytest.raises(PipelineConfigError):
            RunConfig(registry_path="r", queries_path="q", output_dir="o",
                      cache_dir="c", persona_mode="psychic")

    def test_router_train_outside_router_mode_is_an_error(self, tmp_path,
                                                          capsys):
        # Only router mode trains a router: in random mode the router stage
        # writes and lists nothing.
        config_path = build_workspace(tmp_path, count=60)
        assert cli.main(["pipeline", "-c", config_path, "--until", "router",
                         "--persona-mode", "random"]) == 0
        out_dir = os.path.join(os.path.dirname(config_path), "out")
        assert not os.path.exists(os.path.join(out_dir, "router.json"))
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            names = [a["name"] for a in json.load(fh)["artifacts"]]
        assert names == ["queries", "split", "annotations", "matrices"]

    def test_router_select_ignores_stale_router_file(self, tmp_path, capsys):
        config_path = build_workspace(tmp_path, count=60)
        out_dir = os.path.join(os.path.dirname(config_path), "out")
        assert cli.main(["pipeline", "-c", config_path,
                         "--until", "aggregate"]) == 0
        assert os.path.exists(os.path.join(out_dir, "router.json"))
        assert cli.main(["pipeline", "-c", config_path, "--until", "aggregate",
                         "--persona-mode", "random", "--persona-k", "1"]) == 0
        config = load_run_config(config_path)
        records = read_queries(config.queries_path)
        persona_ids = [p.id for p in load_personas(config.personas_path)]
        chosen = sample_personas([r.id for r in records], len(persona_ids), 1,
                                 config.seed)
        with open(os.path.join(out_dir, "selections.jsonl")) as fh:
            rows = [json.loads(line) for line in fh]
        assert rows == [{"id": r.id, "personas": [persona_ids[i] for i in row]}
                        for r, row in zip(records, chosen.tolist())]
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            names = [a["name"] for a in json.load(fh)["artifacts"]]
        assert "router" not in names

    def test_router_train_command_writes_loss_csv(self, tmp_path, capsys):
        # router.json holds the loss history: one [epoch, batch, loss] row
        # per batch of every epoch.
        config_path = build_workspace(tmp_path, count=60)
        assert cli.main(["pipeline", "-c", config_path,
                         "--until", "router"]) == 0
        config = load_run_config(config_path)
        with open(os.path.join(config.output_dir, "router.json")) as fh:
            history = json.load(fh)["loss_history"]
        with open(os.path.join(config.output_dir, "split.jsonl")) as fh:
            n_train = sum(json.loads(line).get("part") == "train"
                          for line in fh)
        batches = math.ceil(n_train / RouterTrainConfig().batch_size)
        assert batches > 1
        assert [row[:2] for row in history] == [
            [epoch, batch] for epoch in range(config.router["epochs"])
            for batch in range(batches)]
        assert all(len(row) == 3 and row[2] > 0 for row in history)
