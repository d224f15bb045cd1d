"""Distilling mock-annotator labels into the small classifier.

Generates a synthetic corpus, weak-labels it with the (noisy) mock
annotator filtered to High confidence, trains the per-entity heads over the
hashed n-gram encoder, tunes thresholds for max F1, and compares against a
deliberately impoverished lexical baseline, including the matched-
operating-point protocol (recall at the baseline's precision).
"""

import os
import tempfile

from querydistill import (ClassifierTrainConfig, Confidence,
                          HashedNgramEmbedder, compute_metrics, lexical_match,
                          matched_operating_point, mock_annotate, mock_handle,
                          parse_response, relative_gain, split_dataset,
                          train_classifier, tune_thresholds,
                          write_predictions_jsonl)
from querydistill.classifier import (MATCH_PRECISION, MAX_F1, labeled_queries,
                                     predict_probs_batch, set_thresholds)
from querydistill.evaluation import render_table
from querydistill.personas import annotation_levels
from querydistill.synth import (impoverished_gazetteer, synth_gazetteer,
                                synth_queries, synth_registry)

registry = synth_registry()
teacher_gazetteer = synth_gazetteer()                       # all 100 phrases
baseline_gazetteer = impoverished_gazetteer(teacher_gazetteer, 0.4, seed=0)
records, gold = synth_queries(teacher_gazetteer, 3000, seed=42)
print(f"corpus: {len(records)} unique queries over {len(registry)} entities")

# --- weak labels from the noisy teacher ---------------------------------
handle = mock_handle(teacher_gazetteer, seed=0, noise_rate=0.1)
weak_store = {}
for record in records:
    raw = mock_annotate(handle, record.text, sections=("icl",))
    weak_store[record.id] = parse_response(registry, raw)

split = split_dataset(records, (0.7, 0.1, 0.2), seed=0)
print(f"split: {len(split.train)} train / {len(split.dev)} dev / "
      f"{len(split.test)} test")

# --- train and tune ---------------------------------------------------------
# The heads take feature rows and label rows: encode each part once.
encoder = HashedNgramEmbedder(dim=256, seed=0)
X_train, X_dev, X_test = (encoder.encode_batch([r.text for r in part])
                          for part in (split.train, split.dev, split.test))
Y_train, Y_dev = (labeled_queries(part, weak_store, registry, Confidence.HIGH)
                  for part in (split.train, split.dev))
config = ClassifierTrainConfig(epochs=10, seed=0, batch_size=64,
                               patience=10)
model, history = train_classifier(X_train, Y_train, X_dev, Y_dev, config,
                                  registry, encoder)
print(f"dev micro-F1 by epoch: "
      f"{' '.join(f'{f1:.3f}' for _, _, f1 in history[:6])} ...")
set_thresholds(model, tune_thresholds(model, X_dev, Y_dev, MAX_F1))

# --- evaluate on test against gold ------------------------------------------
test_records = list(split.test)
gold_test = {r.id: gold[r.id] for r in test_records}
probs = predict_probs_batch(model, X_test)
test_probs = {r.id: probs[i] for i, r in enumerate(test_records)}
pred_store = {
    r.id: {e for e, p, t in zip(model.entity_ids, test_probs[r.id],
                                model.thresholds) if p >= t}
    for r in test_records
}
baseline_store = {r.id: lexical_match(baseline_gazetteer, r.text)
                  for r in test_records}

classifier_report = compute_metrics(gold_test, pred_store, registry=registry,
                                    candidate="classifier")
baseline_report = compute_metrics(gold_test, baseline_store, registry=registry,
                                  candidate="baseline")
gains = relative_gain(classifier_report, baseline_report)

print("\nclassifier vs impoverished lexical baseline (gains vs baseline):")
print(render_table(classifier_report, gains))

# --- matched operating point: recall at the baseline's precision ----------
# Arrays over the test queries, rows in sorted-id order, columns in registry
# order.
order = sorted(range(len(test_records)), key=lambda i: test_records[i].id)
gold_labels = annotation_levels(
    [gold_test[test_records[i].id] for i in order], registry) > 0
matched = matched_operating_point(probs[order], gold_labels, baseline_report,
                                  MATCH_PRECISION, registry.ids)
print(f"\nbaseline recall:                 {baseline_report.micro.recall:.3f}")
print(f"recall at matching precision:    {matched.micro.recall:.3f}")

# --- the batch prediction file --------------------------------------------
with tempfile.TemporaryDirectory(prefix="querydistill-demo-") as out_dir:
    path = os.path.join(out_dir, "predictions.jsonl")
    write_predictions_jsonl(path, model, test_records[:50])
    print(f"\nwrote {path}")
    with open(path) as fh:
        print("first line:", fh.readline()[:110], "...")
