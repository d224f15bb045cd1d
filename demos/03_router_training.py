"""Training the persona-selection gate on a scripted persona pool.

Three scripted personas: an oracle that always agrees with gold labels, an
adversary that answers exactly inverted, and a coin-flipper. The gate, one
linear softmax layer over the query's hashed n-gram features, never sees
which is which: it fits a listwise target that favours, per query, the
personas whose rows best match the gold labels, and it learns to route
most relevance to the oracle.
"""

import random

import numpy as np

from querydistill import (HashedNgramEmbedder, RouterTrainConfig,
                          aggregate_ensemble, router_forward, select_top_k,
                          train_router)
from querydistill.evaluation import score
from querydistill.taxonomy import EntityDef, EntityRegistry

rng = np.random.default_rng(7)
registry = EntityRegistry(entities=tuple(
    EntityDef(id=f"Entity{i}", definition=f"synthetic entity {i}")
    for i in range(6)))
encoder = HashedNgramEmbedder(dim=64, seed=0)
persona_ids = ("oracle", "adversary", "coin_flipper")

WORDS = ["midnight", "harbor", "violet", "stereo", "canyon", "maple"]

def make_examples(n, seed):
    """Embeddings (n, d), confidence matrices (n, P, E), gold (n, E)."""
    gen = np.random.default_rng(seed)
    X, M, Y = [], [], []
    for i in range(n):
        text = " ".join(gen.choice(WORDS, size=3).tolist()) + f" {i}"
        gold_mask = gen.random(len(registry)) < 0.35
        if not gold_mask.any():
            gold_mask[gen.integers(len(registry))] = True
        X.append(encoder.embed(text))
        M.append(np.stack([
            3 * gold_mask.astype(int),          # oracle
            3 * (~gold_mask).astype(int),       # adversary
            gen.integers(0, 4, len(registry)),  # coin flipper
        ]))
        Y.append(gold_mask)
    return np.array(X), np.array(M), np.array(Y)

X, M, Y = make_examples(600, seed=1)
X_held, M_held, Y_held = make_examples(150, seed=2)

model, history = train_router(X, M, Y, persona_ids, RouterTrainConfig(seed=7),
                              registry)
print(f"trained on {len(X)} queries; "
      f"loss {history[0][2]:.4f} -> {history[-1][2]:.4f}")

relevance = router_forward(model, X_held)
print("mean held-out relevance per persona:")
for pid, value in zip(persona_ids, relevance.mean(axis=0)):
    print(f"  {pid:<14} {value:.4f}")

top2 = select_top_k(model, X_held[:1], 2)[0]
print("top-2 for one query:", [persona_ids[row] for row in top2])
print()

# routed top-1 aggregation vs picking a persona at random
def micro_f1(chosen):
    levels = aggregate_ensemble(M_held, chosen)
    return score(Y_held, levels > 0, registry.ids).micro.f1

routed_f1 = micro_f1(select_top_k(model, X_held, 1))
picker = random.Random(0)
random_f1 = micro_f1(np.array(
    [[picker.choice(range(len(persona_ids)))] for _ in Y_held]))

print(f"micro-F1, routed top-1: {routed_f1:.3f}")
print(f"micro-F1, random pick:  {random_f1:.3f}")
