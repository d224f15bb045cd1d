"""Training the persona-selection router on a scripted persona pool.

Three scripted personas: an oracle that always agrees with gold labels, an
adversary that answers exactly inverted, and a coin-flipper. The router
never sees which is which; it only optimizes entity-prediction BCE through
the batched relevance x matrix product, yet it learns to route essentially
all relevance to the oracle.
"""

import random

import numpy as np

from querydistill import (HashedNgramEmbedder, RouterTrainConfig,
                          aggregate_ensemble, compute_metrics, router_forward,
                          select_top_k, train_router)
from querydistill.personas import ConfidenceMatrix
from querydistill.taxonomy import EntityDef, EntityRegistry

rng = np.random.default_rng(7)
registry = EntityRegistry(entities=tuple(
    EntityDef(id=f"Entity{i}", definition=f"synthetic entity {i}")
    for i in range(6)))
encoder = HashedNgramEmbedder(dim=64, seed=0)
persona_ids = ("oracle", "adversary", "coin_flipper")

WORDS = ["midnight", "harbor", "violet", "stereo", "canyon", "maple"]

def make_examples(n, seed):
    gen = np.random.default_rng(seed)
    out = []
    for i in range(n):
        text = " ".join(gen.choice(WORDS, size=3).tolist()) + f" {i}"
        gold_mask = gen.random(len(registry)) < 0.35
        if not gold_mask.any():
            gold_mask[gen.integers(len(registry))] = True
        gold = {registry.ids[j] for j in np.where(gold_mask)[0]}
        matrix = ConfidenceMatrix(
            query_id=f"q{i}", persona_ids=persona_ids,
            registry_hash=registry.hash,
            values=np.stack([
                3 * gold_mask.astype(int),          # oracle
                3 * (~gold_mask).astype(int),       # adversary
                gen.integers(0, 4, len(registry)),  # coin flipper
            ]))
        out.append((encoder.embed(text), matrix, gold))
    return out

train = make_examples(600, seed=1)
held_out = make_examples(150, seed=2)

model, history = train_router(train, RouterTrainConfig(seed=7), registry)
print(f"trained on {len(train)} queries; "
      f"loss {history[0][2]:.4f} -> {history[-1][2]:.4f}")

relevance = np.stack([router_forward(model, emb) for emb, _, _ in held_out])
print("mean held-out relevance per persona:")
for pid, value in zip(persona_ids, relevance.mean(axis=0)):
    print(f"  {pid:<14} {value:.4f}")

emb, matrix, gold = held_out[0]
print("top-2 for one query:", select_top_k(model, emb, 2))
print()

# routed top-1 aggregation vs picking a persona at random
gold_store = {m.query_id: g for _, m, g in held_out}
routed = {}
for emb, matrix, _ in held_out:
    top = select_top_k(model, emb, 1)
    routed[matrix.query_id] = aggregate_ensemble(matrix.subset(top), registry)
routed_f1 = compute_metrics(gold_store, routed).micro.f1

picker = random.Random(0)
randomly = {}
for _, matrix, _ in held_out:
    pick = [picker.choice(list(persona_ids))]
    randomly[matrix.query_id] = aggregate_ensemble(matrix.subset(pick), registry)
random_f1 = compute_metrics(gold_store, randomly).micro.f1

print(f"micro-F1, routed top-1: {routed_f1:.3f}")
print(f"micro-F1, random pick:  {random_f1:.3f}")
