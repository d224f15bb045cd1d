"""Persona fan-out with the mock annotator and ensemble aggregation.

Each persona annotates the same query; the responses become a
Persona x Entity confidence matrix (High/Medium/Low -> 3/2/1, unselected
-> 0), which the ensemble collapses into one annotation by the thresholded
mean of the chosen persona rows.
"""

import numpy as np

from querydistill import (aggregate_ensemble, build_confidence_matrix,
                          default_gazetteer, default_personas,
                          default_registry, mock_annotate, mock_handle,
                          parse_response)
from querydistill.personas import level_annotations

registry = default_registry()
personas = default_personas()[:4]
query = "tom hanks comedy movies"

# persona biases make the mock ensemble genuinely disagree
handle = mock_handle(
    default_gazetteer(),
    seed=11,
    noise_rate=0.4,
    persona_bias={
        "movie_critic": {"add": {"Award": "Low"}},
        "movie_buff": {"remove": ["IntentMovie"]},
    },
)

# one table row per persona's parsed response; the (1, P) index points the
# query's persona cells at them (equal responses could share a row)
table = []
for persona in personas:
    raw = mock_annotate(handle, query, persona=persona.id)
    table.append(parse_response(registry, raw))
    print(f"{persona.name:<16} -> {raw.replace(chr(10), '  ')}")
print()

persona_ids = [p.id for p in personas]
index = np.arange(len(personas))[None, :]
values = build_confidence_matrix(index, table, registry)
matrix = values[0]  # one query: (P, E)
active = [c for c in range(len(registry)) if matrix[:, c].any()]
print("confidence matrix (columns with any signal):")
print("  " + "  ".join(f"{registry.ids[c]:>14}" for c in active))
for row, pid in enumerate(persona_ids):
    cells = "  ".join(f"{matrix[row, c]:>14}" for c in active)
    print(f"  {cells}    {pid}")
print()

# aggregate all four rows: select at mean score >= 1.5
ensemble, = level_annotations(
    aggregate_ensemble(values, np.array([[0, 1, 2, 3]])), registry)
print("ensemble annotation:",
      {e: c.label for e, c in sorted(ensemble.entities.items())})

# choosing one persona's row reduces to that persona's view
solo, = level_annotations(
    aggregate_ensemble(values, np.array([[0]]), threshold=0.5), registry)
print("merchandiser only:",
      {e: c.label for e, c in sorted(solo.entities.items())})
