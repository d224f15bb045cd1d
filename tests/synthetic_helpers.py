"""Synthetic constructions shared by router/classifier tests."""

import numpy as np

from querydistill.features import HashedNgramEmbedder
from querydistill.taxonomy import EntityDef, EntityRegistry

WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
         "hotel", "india", "juliet", "kilo", "lima", "mike", "november"]


def entity_registry(n):
    return EntityRegistry(entities=tuple(
        EntityDef(id=f"Entity{i}", definition=f"synthetic entity {i}")
        for i in range(n)
    ))


def router_dataset(n, registry, persona_kinds, seed, embed_dim=32):
    """((X, M, Y), persona_ids): n embeddings X (n, d), confidence matrices
    M (n, P, E) with scripted persona behaviors, and gold indicators Y (n, E).

    Persona kinds: "oracle" copies gold at High confidence, "adversarial"
    marks exactly the non-gold entities High, "random" answers uniformly.
    """
    rng = np.random.default_rng(seed)
    encoder = HashedNgramEmbedder(dim=embed_dim, seed=0)
    E = len(registry)
    persona_ids = tuple(f"{kind}_{i}" for i, kind in enumerate(persona_kinds))
    X, M, Y = [], [], []
    for qi in range(n):
        words = rng.choice(WORDS, size=rng.integers(2, 5), replace=True)
        text = " ".join(words.tolist()) + f" {qi}"
        gold_mask = rng.random(E) < 0.35
        if not gold_mask.any():
            gold_mask[rng.integers(0, E)] = True
        rows = []
        for kind in persona_kinds:
            if kind == "oracle":
                rows.append(3 * gold_mask.astype(int))
            elif kind == "adversarial":
                rows.append(3 * (~gold_mask).astype(int))
            else:
                rows.append(rng.integers(0, 4, size=E))
        X.append(encoder.embed(text))
        M.append(np.stack(rows))
        Y.append(gold_mask)
    return (np.array(X), np.array(M), np.array(Y)), persona_ids
