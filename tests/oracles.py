"""Independent reference implementations used as test oracles.

These stay deliberately naive (triple loops, exhaustive grids, central
finite differences) and share no code with the library paths they check.
The two former library forms near the end (one ``str.format`` per
prompt, one ``json.dumps`` per annotation record) reuse the library's
section builders and record dict, because what they check is the
splitting and joining around those parts. The former per-n-gram encoder
reuses the library's query normalization, because what it
checks is the window split and the bucket sums around them. The former
ablation runs the library's pipeline and dict-store scorer, because what
it checks is the arms read from one run's arrays against the stores that
one run per arm wrote.
"""

import hashlib
import json
import os
import random
from dataclasses import replace

import numpy as np

from querydistill import prompting
from querydistill.annotations import read_annotation_store
from querydistill.data import normalize_query, read_queries
from querydistill.evaluation import compute_metrics, relative_gain
from querydistill.pipeline import run_pipeline
from querydistill.prompting import PromptVariant
from querydistill.taxonomy import load_registry


def brute_force_counts(gold_sets, pred_sets, freqs, weighted, entities):
    """TP/FP/FN per entity plus pooled micro, by direct enumeration."""
    per_entity = {}
    for entity in entities:
        tp = fp = fn = 0
        for qid in gold_sets:
            w = freqs.get(qid, 1) if weighted else 1
            in_gold = entity in gold_sets[qid]
            in_pred = entity in pred_sets[qid]
            if in_gold and in_pred:
                tp += w
            elif in_pred:
                fp += w
            elif in_gold:
                fn += w
        per_entity[entity] = (tp, fp, fn)
    micro = tuple(sum(cell[i] for cell in per_entity.values()) for i in range(3))
    return per_entity, micro


def prf(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def threshold_grid(probs):
    """Unique probabilities, their midpoints, and both endpoints."""
    uniq = sorted(set(float(p) for p in probs))
    grid = set(uniq) | {0.0, 1.0}
    for a, b in zip(uniq, uniq[1:]):
        grid.add((a + b) / 2.0)
    return sorted(grid)


def confusion_at(probs, labels, threshold):
    pred = np.asarray(probs) >= threshold
    gold = np.asarray(labels) > 0.5
    return (int((pred & gold).sum()), int((pred & ~gold).sum()),
            int((~pred & gold).sum()))


def sweep_max_f1(probs, labels):
    """Best F1 over the full midpoint grid, and the confusion achieving it."""
    best = (-1.0, None)
    for t in threshold_grid(probs):
        cells = confusion_at(probs, labels, t)
        f1 = prf(*cells)[2]
        if f1 > best[0]:
            best = (f1, cells)
    return best


def sweep_match_recall(probs, labels, target):
    """Largest grid threshold with recall >= target; None if infeasible."""
    feasible = None
    for t in threshold_grid(probs):
        cells = confusion_at(probs, labels, t)
        if prf(*cells)[1] >= target and (feasible is None or t > feasible[0]):
            feasible = (t, cells)
    return feasible


def sweep_match_precision(probs, labels, target):
    """Smallest grid threshold with precision >= target; None if infeasible."""
    for t in threshold_grid(probs):
        cells = confusion_at(probs, labels, t)
        if prf(*cells)[0] >= target:
            return (t, cells)
    return None


def finite_difference_grads(params, loss_fn, step=1e-4):
    """Central finite differences for every entry of every parameter array."""
    grads = {}
    for name, array in params.items():
        grad = np.zeros_like(array)
        flat = array.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            plus = loss_fn()
            flat[i] = original - step
            minus = loss_fn()
            flat[i] = original
            gflat[i] = (plus - minus) / (2.0 * step)
        grads[name] = grad
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a = np.asarray(analytic[name]).reshape(-1)
        n = np.asarray(numeric[name]).reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def einsum_heads_forward(params, X):
    """Per-entity logistic head logits (B, E), written as an einsum over the
    weight matrix W (D, E) plus the bias b (E,)."""
    return np.einsum("bd,de->be", X, params["W"]) + params["b"]


def einsum_heads_grads(params, X, Y):
    """Gradients of the mean logistic BCE over (query, entity) cells with
    respect to W and b, by the same einsum formulation."""
    B, E = Y.shape
    Z = einsum_heads_forward(params, X)
    dZ = (1.0 / (1.0 + np.exp(-Z)) - Y) / (B * E)
    return {"W": np.einsum("bd,be->de", X, dZ), "b": dZ.sum(axis=0)}


def allocating_adamw_step(state, params, grads, learning_rate, weight_decay,
                          beta1, beta2, eps, decay_params):
    """One AdamW step written with a temporary per operation, in the order
    ``optim.AdamW.step`` applies them; ``state`` holds "t", "m" and "v"."""
    state["t"] += 1
    bias1 = 1.0 - beta1 ** state["t"]
    bias2 = 1.0 - beta2 ** state["t"]
    for name, param in params.items():
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + eps)
        if name in decay_params and weight_decay:
            update = update + weight_decay * param
        param -= learning_rate * update


def ensemble_levels(values, rows, threshold):
    """Per entity: the mean of the chosen persona rows of one query's (P, E)
    ``values``; 0 below ``threshold``, else 3 from 2.5, 2 from 1.5, 1 below."""
    levels = []
    for e in range(values.shape[1]):
        mean = sum(int(values[row, e]) for row in rows) / len(rows)
        if mean < threshold:
            levels.append(0)
        else:
            levels.append(3 if mean >= 2.5 else 2 if mean >= 1.5 else 1)
    return levels


def per_query_router_ensemble(model, embeddings, values, k, threshold):
    """Per query: the gate's logits of its own feature row (which softmax
    ranks alike), its k top personas by descending logit then ascending
    id, and the mean of their rows. Returns the chosen id lists and the
    (N, E) ensemble levels."""
    chosen, levels = [], []
    for emb, matrix in zip(embeddings, values):
        logits = emb @ model.W + model.b
        rows = sorted(range(len(logits)),
                      key=lambda j: (-logits[j], model.persona_ids[j]))[:k]
        chosen.append([model.persona_ids[j] for j in rows])
        levels.append(ensemble_levels(matrix, rows, threshold))
    return chosen, np.array(levels)


def per_query_random_ensemble(query_ids, persona_ids, values, k, seed,
                              threshold):
    """Per query: ``k`` persona ids sampled by the query's own seeded
    ``random.Random``, and the mean of their rows. Returns the sorted
    chosen id lists and the (N, E) ensemble levels."""
    chosen, levels = [], []
    for qid, matrix in zip(query_ids, values):
        ids = random.Random(f"{seed}:{qid}").sample(
            list(persona_ids), min(k, len(persona_ids)))
        chosen.append(sorted(ids))
        levels.append(ensemble_levels(
            matrix, [persona_ids.index(pid) for pid in ids], threshold))
    return chosen, np.array(levels)


def build_prompt_text(config, registry, query, persona=None, template=None):
    """The prompt text as one ``template.format`` over every field,
    ``{query}`` included: the renderer before per-persona frames."""
    variant = config.variant
    parts = {"query": query,
             "entity_definitions": prompting._entity_definitions(registry),
             "persona": "", "cot_steps": "", "icl_block": "",
             "confidence_instruction": ""}
    if persona is not None:
        parts["persona"] = persona.description.rstrip() + "\n\n"
    if variant >= PromptVariant.CONFIDENCE_COT:
        parts["cot_steps"] = prompting._cot_steps(registry) + "\n\n"
    if variant >= PromptVariant.CONFIDENCE_COT_ICL:
        parts["icl_block"] = prompting._icl_block(
            registry, config.max_icl_examples_per_entity) + "\n\n"
    if variant >= PromptVariant.CONFIDENCE:
        parts["confidence_instruction"] = (
            prompting._CONFIDENCE_INSTRUCTION + "\n\n")
    if template is None:
        template = prompting._default_template()
    return template.format(**parts)


def annotation_to_json(annotation, query_id, annotator="", persona_id=None):
    """One annotation store record."""
    record = {
        "id": query_id,
        "annotator": annotator,
        "persona": persona_id,
        "entities": {e: c.label for e, c in sorted(annotation.entities.items())},
    }
    if annotation.warnings:
        record["warnings"] = list(annotation.warnings)
    return record


def annotation_store_text(store, annotator=""):
    """The JSONL text of a {query_id: Annotation} or {(query_id,
    persona_id): Annotation} store, with one ``json.dumps`` per record: the
    writer before per-body encoding."""
    def sort_key(key):
        qid, pid = key if isinstance(key, tuple) else (key, None)
        return qid, pid or ""

    lines = []
    for key in sorted(store, key=sort_key):
        qid, pid = key if isinstance(key, tuple) else (key, None)
        lines.append(json.dumps(annotation_to_json(store[key], qid, annotator,
                                                   pid), sort_keys=True) + "\n")
    return "".join(lines)


def ngrams(text):
    """Every character 3-5-gram of the normalized text wrapped in ``<``
    and ``>``, by size then position; the padded text itself when shorter."""
    padded = "<" + normalize_query(text) + ">"
    out = [padded[start:start + size] for size in (3, 4, 5)
           for start in range(len(padded) - size + 1)]
    return out or [padded]


def hashed_ngram_embed(text, dim, seed):
    """The hashed n-gram vector one n-gram at a time: each n-gram's keyed
    blake2b digest adds +1.0 (top bit clear) or -1.0 to bucket
    ``digest % dim``, then the vector is scaled to unit L2 norm."""
    if not text.strip():
        raise ValueError("cannot embed empty text")
    key = int(seed).to_bytes(8, "little")
    vec = np.zeros(dim)
    for gram in ngrams(text):
        value = int.from_bytes(hashlib.blake2b(
            gram.encode("utf-8"), digest_size=8, key=key).digest(), "little")
        vec[value % dim] += 1.0 if value >> 63 == 0 else -1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def masked_sigmoid(z):
    """The logistic in the dtype of ``z``: ``1 / (1 + exp(-z))`` on the
    entries >= 0 and ``exp(z) / (1 + exp(z))`` on the rest, by boolean
    masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def dict_store_ablation(config, weighted):
    """The figure lines ``querydistill ablation`` printed when it ran one
    ``run_pipeline`` per arm into ``<output_dir>/ablation-<arm>/``, read
    the store that arm's last stage wrote back from disk and scored it with
    ``compute_metrics``: four prompt variants without personas through
    ``annotate``, then persona modes none, random and router through
    ``aggregate``."""
    registry = load_registry(config.registry_path)
    records = read_queries(config.queries_path)
    gold = read_annotation_store(config.gold_path)
    frequencies = {r.id: r.frequency for r in records}
    lines = []

    def arm(name, until, filename, label, **changes):
        out = os.path.join(config.output_dir, f"ablation-{name}")
        run_pipeline(replace(config, output_dir=out, **changes), until=until)
        scored = compute_metrics(
            {r.id: gold[r.id] for r in records},
            read_annotation_store(os.path.join(out, filename)),
            frequencies=frequencies, weighted=weighted, registry=registry)
        lines.append(f"{label} micro F1={scored.micro.f1:.4f} "
                     f"P={scored.micro.precision:.4f} "
                     f"R={scored.micro.recall:.4f}")
        return scored

    lines.append("== prompt variant grid ==")
    grid = {variant: arm(variant.name.lower(), "annotate", "annotations.jsonl",
                         f"{variant.name:<22}", persona_mode="none",
                         prompt_variant=variant.name.lower())
            for variant in PromptVariant}
    for variant in list(PromptVariant)[1:]:
        gains = relative_gain(grid[variant], grid[PromptVariant.BASELINE])
        shown = {k: (f"{v:+.2f}%" if v is not None else "undefined")
                 for k, v in gains["micro"].items()}
        lines.append(f"{variant.name:<22} vs BASELINE prompt: {shown}")
    lines.append("== persona selection comparison ==")
    for mode in ("none", "random", "router"):
        arm(mode, "aggregate", "aggregated.jsonl", f"{mode:<8}",
            persona_mode=mode)
    return lines
