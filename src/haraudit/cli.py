"""Command-line pipeline: ingest/synth -> windows -> split -> predictions ->
overlap, confusion, histogram, mask, plots, and a bundled report.

Every command reads its declared inputs from the run directory (or explicit
paths), writes its artifacts there, and records their SHA-256 hashes in
manifest.json. A command writes to temporary names and moves them into place
only when it succeeds, so a failed command leaves the run directory as it
found it.

``ifc`` runs the whole audit once (``pipeline.audit_records``) and persists it
as ifc_windows.csv, ifc_summary.json and fused.jsonl. ``confusion``,
``histogram``, ``mask`` and ``report`` are views of those files, ``plot`` also
draws the exports of ``histogram`` and ``confusion``, and re-running ``ifc``
removes every view it made stale.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import confusion as conf
from . import ifc as ifc_mod
from . import mask as mask_mod
from . import svgplot
from ._io import write_json
from .baseline import TrainConfig
from .pipeline import audit_records, baseline_prediction_records, choose_configs
from .predictions import MERGE_POLICIES, model_metrics, read_records, write_records
from .recordings import corpus_num_classes, parse_canonical, write_canonical
from .splits import group_k_fold, read_plan, write_plan
from .synth import default_scenario, generate_corpus, load_scenario, save_scenario
from .windowing import WindowConfig, slice_corpus

OUT_ENV = "HAR_AUDIT_OUT"
WINDOW_COLUMNS = [
    "window_id", "start_sample", "end_sample", "label",
    "group_key", "recording_index", "transition",
]
# Everything the commands that read ifc's outputs write; a new ifc run makes it stale.
IFC_VIEWS = (
    "confusion_table.csv", "chord.json", "ifc_histogram.csv", "mask_windows.csv",
    "mask_samples.csv", "mask_summary.json", "condensed.csv", "condensed.svg",
    "histogram.svg", "chord.svg", "report.json",
)


class CommandError(Exception):
    """User-facing failure: message printed to stderr, nonzero exit."""


class RunDir:
    """Stages a command's artifacts so that only a success changes the run directory."""

    def __init__(self, out: Path):
        self.out = out
        self.staged: dict[str, Path] = {}
        self.stale: tuple[str, ...] = ()

    def file(self, name: str) -> Path:
        """A temporary path that becomes artifact ``name`` on commit."""
        path = self.out / f".{name}.partial"
        self.staged[name] = path
        return path

    def need(self, name: str) -> Path:
        path = self.out / name
        if not path.exists():
            raise CommandError(f"missing input {path}; run the producing command first")
        return path

    def discard(self) -> None:
        for path in self.staged.values():
            path.unlink(missing_ok=True)

    def commit(self) -> None:
        """Remove stale artifacts, then move the staged ones and the manifest into place."""
        manifest_path = self.out / "manifest.json"
        manifest = {"artifacts": {}}
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        artifacts = manifest["artifacts"]
        for name, path in self.staged.items():
            artifacts[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        for name in self.stale:
            artifacts.pop(name, None)
        manifest["artifacts"] = dict(sorted(artifacts.items()))
        write_json(manifest, self.file("manifest.json"))
        for name in self.stale:
            (self.out / name).unlink(missing_ok=True)
        for name, path in self.staged.items():
            os.replace(path, self.out / name)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise CommandError(f"config file {p} does not exist")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CommandError(f"config file {p} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise CommandError(f"config file {p} must hold a JSON object")
    return cfg


def _opt(args, cfg: dict, key: str, default):
    """Command line beats config file beats built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in cfg:
        return cfg[key]
    return default


def _resolve_out(args, cfg: dict) -> Path:
    out = _opt(args, cfg, "out", None) or os.environ.get(OUT_ENV)
    if not out:
        raise CommandError(f"no output directory: pass --out or set {OUT_ENV}")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------- artifacts

def _read_windows_csv(path: Path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != WINDOW_COLUMNS:
            raise CommandError(f"{path} header mismatch: {header}")
        bounds, labels, groups, rec_idx = [], [], [], []
        for row in reader:
            bounds.append((int(row[1]), int(row[2])))
            labels.append(int(row[3]))
            groups.append(row[4])
            rec_idx.append(int(row[5]))
    return (
        np.asarray(bounds, dtype=int),
        np.asarray(labels, dtype=int),
        groups,
        np.asarray(rec_idx, dtype=int),
    )


def _read_meta(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _rebuild_dataset(run: RunDir):
    """Re-slice the canonical recordings with the recorded window config."""
    meta = _read_meta(run.need("windows_meta.json"))
    recordings, _ = parse_canonical(
        run.need("recordings.csv"), sample_rate=meta["sample_rate"]
    )
    config = WindowConfig(
        size=meta["window_size"],
        stride=meta["stride"],
        label_policy=meta["label_policy"],
    )
    return slice_corpus(
        recordings, config, group_by=meta["group_by"], num_classes=meta["num_classes"]
    )


def _load_ifc_flags(run: RunDir, num_windows: int) -> np.ndarray:
    """Per-window IFC flags; they must cover every row of windows.csv."""
    path = run.need("ifc_windows.csv")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        flags = [bool(int(row[4])) for row in reader]
    if len(flags) != num_windows:
        raise CommandError(
            f"{path} holds {len(flags)} windows but windows.csv holds "
            f"{num_windows}; rerun ifc"
        )
    return np.asarray(flags, dtype=bool)


def _ifc_summary(args, cfg: dict, run: RunDir) -> dict:
    """ifc_summary.json; --merge-policy may only repeat the policy ifc ran under."""
    path = run.need("ifc_summary.json")
    summary = _read_meta(path)
    policy = summary["merge_policy"]
    asked = _opt(args, cfg, "merge_policy", None)
    if asked is not None and asked != policy:
        raise CommandError(
            f"--merge-policy {asked} disagrees with {path}, written under "
            f"{policy}; rerun ifc to change the policy"
        )
    return summary


def _ifc_view(run: RunDir):
    """Window bounds, labels, windows_meta.json and the flags ifc wrote for them."""
    bounds, labels, _, _ = _read_windows_csv(run.need("windows.csv"))
    meta = _read_meta(run.need("windows_meta.json"))
    return bounds, labels, meta, _load_ifc_flags(run, labels.size)


def _load_records(run: RunDir, path: Path | None = None):
    """Read and validate a prediction log, by default the run's own."""
    path = path or run.need("predictions.jsonl")
    bounds, labels, _, _ = _read_windows_csv(run.need("windows.csv"))
    meta = _read_meta(run.need("windows_meta.json"))
    records = read_records(
        path, valid_window_ids=range(len(labels)), num_classes=meta["num_classes"]
    )
    if not len(records):
        raise CommandError(f"{path} holds no prediction records")
    return records, bounds, labels, meta


# ----------------------------------------------------------------- commands

def cmd_ingest(args, cfg: dict, run: RunDir) -> None:
    source = _opt(args, cfg, "recordings", None)
    if not source:
        raise CommandError("ingest needs --recordings <csv>")
    if not Path(source).exists():
        raise CommandError(f"recordings file {source} does not exist")
    sample_rate = float(_opt(args, cfg, "sample_rate", 100.0))
    recordings, repaired = parse_canonical(source, sample_rate=sample_rate)
    num_classes = corpus_num_classes(recordings)
    write_canonical(recordings, run.file("recordings.csv"))
    write_json(
        {
            "num_recordings": len(recordings),
            "num_samples": int(sum(r.num_samples for r in recordings)),
            "num_classes": num_classes,
            "repaired_cells": repaired,
            "sample_rate": sample_rate,
        },
        run.file("ingest.json"),
    )


def cmd_synth(args, cfg: dict, run: RunDir) -> None:
    scenario_path = _opt(args, cfg, "scenario", None)
    spec = load_scenario(scenario_path) if scenario_path else default_scenario()
    seed = _opt(args, cfg, "seed", None)
    if seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=int(seed))
    subjects = int(_opt(args, cfg, "subjects", 4))
    recordings, annotations = generate_corpus(spec, num_subjects=subjects)
    save_scenario(spec, run.file("scenario.json"))
    write_canonical(recordings, run.file("recordings.csv"))
    write_json(
        [
            {
                "subject": rec.subject_id,
                "kind": span.kind,
                "start_sample": span.start_sample,
                "end_sample": span.end_sample,
            }
            for rec, spans in zip(recordings, annotations)
            for span in spans
        ],
        run.file("injections.json"),
    )


def cmd_windows(args, cfg: dict, run: RunDir) -> None:
    source = _opt(args, cfg, "recordings", None) or run.need("recordings.csv")
    sample_rate = float(_opt(args, cfg, "sample_rate", 100.0))
    recordings, _ = parse_canonical(source, sample_rate=sample_rate)
    config = WindowConfig(
        size=int(_opt(args, cfg, "window_size", 200)),
        stride=int(_opt(args, cfg, "stride", 100)),
        label_policy=_opt(args, cfg, "label_policy", "majority"),
    )
    group_by = _opt(args, cfg, "group_by", "subject")
    dataset = slice_corpus(recordings, config, group_by=group_by)
    with open(run.file("windows.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(WINDOW_COLUMNS)
        for w in dataset.windows:
            writer.writerow(
                [
                    w.window_id, w.start_sample, w.end_sample, w.label,
                    w.group_key, w.recording_index, int(w.transition),
                ]
            )
    write_json(
        {
            "num_windows": dataset.num_windows,
            "num_classes": dataset.num_classes,
            "total_samples": dataset.total_samples,
            "window_size": config.size,
            "stride": config.stride,
            "label_policy": config.label_policy,
            "group_by": group_by,
            "sample_rate": sample_rate,
            "recording_spans": [list(span) for span in dataset.recording_spans],
        },
        run.file("windows_meta.json"),
    )


def cmd_split(args, cfg: dict, run: RunDir) -> None:
    _, _, groups, _ = _read_windows_csv(run.need("windows.csv"))
    max_k = int(_opt(args, cfg, "max_k", 10))
    group_windows: dict[str, list[int]] = {}
    for window_id, key in enumerate(groups):
        group_windows.setdefault(key, []).append(window_id)
    plan = group_k_fold(group_windows, max_k=max_k)
    write_plan(plan, run.file("splits.json"))


def cmd_train_baseline(args, cfg: dict, run: RunDir) -> None:
    dataset = _rebuild_dataset(run)
    plan = read_plan(run.need("splits.json"))
    config = TrainConfig(
        step_size=float(_opt(args, cfg, "step_size", 0.1)),
        epochs=int(_opt(args, cfg, "epochs", 200)),
    )
    records = baseline_prediction_records(
        dataset,
        plan,
        dataset_id=_opt(args, cfg, "dataset_id", "dataset"),
        runs=int(_opt(args, cfg, "runs", 1)),
        config=config,
    )
    write_records(records, run.file("predictions.jsonl"))


def cmd_import_logs(args, cfg: dict, run: RunDir) -> None:
    logs = _opt(args, cfg, "logs", None)
    if not logs:
        raise CommandError("import-logs needs --logs <jsonl>")
    if not Path(logs).exists():
        raise CommandError(f"prediction log {logs} does not exist")
    records, _, _, _ = _load_records(run, Path(logs))
    write_records(records, run.file("predictions.jsonl"))


def cmd_ifc(args, cfg: dict, run: RunDir) -> None:
    records, bounds, labels, meta = _load_records(run)
    policy = _opt(args, cfg, "merge_policy", "majority")
    result = audit_records(
        records, bounds, labels, meta["total_samples"],
        num_classes=meta["num_classes"], merge_policy=policy,
    )
    ifc_mod.write_ifc_windows_csv(result.ifc, bounds, labels, run.file("ifc_windows.csv"))
    ifc_mod.write_ifc_summary_json(result.ifc, run.file("ifc_summary.json"))
    conf.write_fused_jsonl(result.fused, run.file("fused.jsonl"))
    run.stale = IFC_VIEWS


def cmd_histogram(args, cfg: dict, run: RunDir) -> None:
    _, _, _, rec_idx = _read_windows_csv(run.need("windows.csv"))
    flags = _load_ifc_flags(run, rec_idx.size)
    hist = ifc_mod.run_lengths(flags, rec_idx)
    ifc_mod.write_histogram_csv(hist, run.file("ifc_histogram.csv"))


def cmd_confusion(args, cfg: dict, run: RunDir) -> None:
    _, labels, meta, flags = _ifc_view(run)
    table = conf.confusion_table(flags, labels, num_classes=meta["num_classes"])
    edges = conf.chord_edges(conf.read_fused_jsonl(run.need("fused.jsonl")))
    names = [f"class_{c}" for c in range(meta["num_classes"])]
    conf.write_confusion_csv(table, run.file("confusion_table.csv"))
    conf.write_chord_json(edges, names, run.file("chord.json"))


def cmd_mask(args, cfg: dict, run: RunDir) -> None:
    policy = _ifc_summary(args, cfg, run)["merge_policy"]
    bounds, _, meta, flags = _ifc_view(run)
    fused = conf.read_fused_jsonl(run.need("fused.jsonl"))
    mask = mask_mod.build_mask(flags, fused, bounds, meta["total_samples"], policy=policy)
    mask_mod.write_window_mask_csv(mask, bounds, run.file("mask_windows.csv"))
    mask_mod.write_sample_mask_csv(mask, run.file("mask_samples.csv"))
    mask_mod.write_mask_summary_json(mask, run.file("mask_summary.json"))


def cmd_plot(args, cfg: dict, run: RunDir) -> None:
    _, _, _, flags = _ifc_view(run)
    with open(run.need("ifc_histogram.csv"), "r", encoding="utf-8", newline="") as fh:
        bins = [tuple(int(v) for v in row) for row in list(csv.reader(fh))[1:]]
    chord = _read_meta(run.need("chord.json"))
    dataset = _rebuild_dataset(run)
    if dataset.num_windows != flags.size:
        raise CommandError("window table and overlap flags are out of step")
    means = dataset.blocks.mean(axis=1)
    with open(run.file("condensed.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["window_id"]
            + [f"mean_ch{c}" for c in range(dataset.num_channels)]
            + ["ifc_flag"]
        )
        for w in range(dataset.num_windows):
            writer.writerow(
                [w] + [repr(float(v)) for v in means[w]] + [int(flags[w])]
            )
    run.file("condensed.svg").write_text(
        svgplot.condensed_view_svg(means, flags), encoding="utf-8"
    )
    run.file("histogram.svg").write_text(svgplot.histogram_svg(bins), encoding="utf-8")
    run.file("chord.svg").write_text(
        svgplot.chord_svg(
            [(e["from"], e["to"], e["weight"]) for e in chord["edges"]], chord["classes"]
        ),
        encoding="utf-8",
    )


def cmd_report(args, cfg: dict, run: RunDir) -> None:
    summary = _ifc_summary(args, cfg, run)
    policy = summary["merge_policy"]
    bounds, labels, meta, flags = _ifc_view(run)
    fused = conf.read_fused_jsonl(run.need("fused.jsonl"))
    mask = mask_mod.build_mask(flags, fused, bounds, meta["total_samples"], policy=policy)
    table = conf.confusion_table(flags, labels, num_classes=meta["num_classes"])
    records = _load_records(run)[0]
    metrics = model_metrics(choose_configs(records)[1])
    payload = {
        "dataset_id": records.dataset[0].item(),
        "merge_policy": policy,
        "num_windows": int(len(labels)),
        "num_classes": int(meta["num_classes"]),
        # With two classes the gap rule has a single gap, so every flagged
        # window is necessarily major.
        "two_class_major_only": int(meta["num_classes"]) == 2,
        "overlap": {
            key: summary[key] for key in ("single_contributions", "common_ground", "ifc")
        },
        "mask": mask.distribution,
        "confusion": [
            {
                "class_id": row.class_id,
                "name": row.name,
                "dist_pct": row.distribution_pct,
                "rel_pct": row.relative_pct,
                "abs_pct": row.absolute_pct,
            }
            for row in table
        ],
        "model_metrics": {
            f"{d}/{m}/{c}": {
                "accuracy_mean": v.accuracy_mean,
                "accuracy_std": v.accuracy_std,
                "weighted_f1_mean": v.weighted_f1_mean,
                "weighted_f1_std": v.weighted_f1_std,
                "num_runs": v.num_runs,
            }
            for (d, m, c), v in sorted(metrics.items())
        },
    }
    write_json(payload, run.file("report.json"))


COMMANDS = {
    "ingest": cmd_ingest,
    "windows": cmd_windows,
    "split": cmd_split,
    "synth": cmd_synth,
    "train-baseline": cmd_train_baseline,
    "import-logs": cmd_import_logs,
    "ifc": cmd_ifc,
    "confusion": cmd_confusion,
    "histogram": cmd_histogram,
    "mask": cmd_mask,
    "plot": cmd_plot,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haraudit",
        description="Audit windowed time-series classification benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *flags) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with flag defaults")
        p.add_argument("--out", help=f"run directory (fallback: ${OUT_ENV})")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        return p

    intf = {"type": int}
    floatf = {"type": float}
    add("ingest", "parse recordings into the run directory",
        ("--recordings", {}), ("--sample-rate", dict(floatf, dest="sample_rate")))
    add("synth", "generate a synthetic corpus",
        ("--scenario", {}), ("--subjects", dict(intf)), ("--seed", dict(intf)))
    add("windows", "slice recordings into labelled windows",
        ("--recordings", {}), ("--window-size", dict(intf, dest="window_size")),
        ("--stride", dict(intf)), ("--label-policy", {"dest": "label_policy"}),
        ("--group-by", {"dest": "group_by", "choices": ["subject", "subject_session"]}),
        ("--sample-rate", dict(floatf, dest="sample_rate")))
    add("split", "plan grouped cross-validation folds",
        ("--max-k", dict(intf, dest="max_k")))
    add("train-baseline", "train the reference classifier per fold",
        ("--runs", dict(intf)), ("--step-size", dict(floatf, dest="step_size")),
        ("--epochs", dict(intf)), ("--dataset-id", {"dest": "dataset_id"}))
    policyf = {"dest": "merge_policy", "choices": list(MERGE_POLICIES)}
    add("import-logs", "validate and import an external prediction log",
        ("--logs", {}))
    add("ifc", "run the audit: IFC flags, overlap and fused distributions",
        ("--merge-policy", policyf))
    add("confusion", "tabulate confusion from the fused distributions")
    add("histogram", "bin the run lengths of flagged windows")
    add("mask", "emit the trinary clean/minor/major mask",
        ("--merge-policy", policyf))
    add("plot", "draw SVG views of the window means and audit exports")
    add("report", "bundle overlap, mask, and confusion summaries",
        ("--merge-policy", policyf))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config_file(getattr(args, "config", None))
        run = RunDir(_resolve_out(args, cfg))
    except CommandError as exc:
        print(f"haraudit: {exc}", file=sys.stderr)
        return 1
    try:
        COMMANDS[args.command](args, cfg, run)
        run.commit()
    except Exception as exc:
        run.discard()
        print(f"haraudit {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
