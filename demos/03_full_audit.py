"""End-to-end audit of a synthetic corpus with known failure injections.

Generates four subjects (one carrying a transient burst and a lagging label
boundary), trains the reference classifier per leave-subject-out fold, and
audits the out-of-fold predictions: overlap metrics, confusion structure,
and the trinary clean/minor/major mask.

The same pipeline is available file-based through the command line:

    haraudit synth --out run && haraudit windows --out run && \
    haraudit split --out run && haraudit train-baseline --out run && \
    haraudit ifc --out run && haraudit confusion --out run && \
    haraudit mask --out run && haraudit report --out run

Run with:  python3 demos/03_full_audit.py
"""

from haraudit import (
    WindowConfig,
    audit_records,
    baseline_prediction_records,
    chord_edges,
    confusion_table,
    default_scenario,
    generate_corpus,
    plan_folds,
    slice_corpus,
)
from haraudit.mask import CATEGORY_NAMES

# ---------------------------------------------------------------------------
# Corpus with ground-truth-annotated trouble spots.
# ---------------------------------------------------------------------------
spec = default_scenario()
recordings, annotations = generate_corpus(spec, num_subjects=4)
print(f"scenario: {spec.num_classes} classes, {spec.num_channels} channels, "
      f"seed {spec.seed}")
for span in annotations[0]:
    print(f"  injected {span.kind} at samples [{span.start_sample}, {span.end_sample})")

dataset = slice_corpus(recordings, WindowConfig(window_size=200, stride=100))
plan = plan_folds(dataset.windows, max_k=10)
print(f"{dataset.num_windows} windows, {plan.k} leave-subject-out folds")

# ---------------------------------------------------------------------------
# Out-of-fold predictions from the deterministic reference classifier.
# ---------------------------------------------------------------------------
records = baseline_prediction_records(dataset, plan, dataset_id="synthetic", runs=4)
result = audit_records(
    records,
    dataset.windows.bounds,
    dataset.windows.label,
    dataset.total_samples,
    num_classes=dataset.num_classes,
    merge_policy="majority",
)

print(f"\nifc: {result.ifc.ifc:.2f}%  common ground: {result.ifc.common_ground:.2f}%")
for model, share in result.ifc.single_contribution.items():
    print(f"  single contribution {model}: {share:.2f}%")

# The confusion table and chord edges are views of the flags and the fused
# distributions; the CLI's ``confusion`` command builds them the same way.
print("\nconfusion by true class:")
for row in confusion_table(result.ifc.ifc_flags, dataset.windows.label, dataset.num_classes):
    rel = "-" if row.rel_pct is None else f"{row.rel_pct:.2f}"
    absolute = "-" if row.abs_pct is None else f"{row.abs_pct:.3f}"
    print(f"  {row.name}: dist {row.dist_pct:.2f}%  rel {rel}%  abs {absolute}%")

print("\nheaviest confusion flows:")
for true_class, confused_class, weight in chord_edges(result.fused)[:3]:
    print(f"  class {true_class} -> class {confused_class} ({weight} windows)")

dist = result.mask.distribution
print(f"\nmask: clean {dist['clean_pct']:.2f}%  minor {dist['minor_pct']:.2f}%  "
      f"major {dist['major_pct']:.2f}%")

# ---------------------------------------------------------------------------
# Did the audit find the injections?
# ---------------------------------------------------------------------------
bounds = dataset.windows.bounds
for span in annotations[0]:
    hits = [
        w
        for w in range(dataset.num_windows)
        if bounds[w, 0] < span.end_sample and bounds[w, 1] > span.start_sample
    ]
    flagged = [w for w in hits if result.ifc.ifc_flags[w]]
    cats = [CATEGORY_NAMES[int(result.mask.window_mask[w])] for w in flagged]
    print(f"\n{span.kind}: {len(flagged)}/{len(hits)} overlapping windows flagged")
    print(f"  categories: {cats}")
