"""Command-line pipeline: ingest/synth -> windows -> split -> predictions ->
overlap, confusion, histogram, mask, plots, and a bundled report.

Every command reads its inputs from the run directory (and files named by
flags), writes its artifacts there, and records their lineage in
manifest.json. A command writes to temporary names and moves them into place
only when it succeeds, so a failed command leaves the run directory as it
found it.

``train-baseline`` and ``import-logs`` store the validated log as binary
columns (predictions.npy) beside its JSONL, and ``windows`` stores the
per-window channel means (window_means.npy), so neither ``ifc`` nor ``plot``
parses the log or the recordings again. ``ifc`` runs the whole audit once
(``pipeline.audit_records``) on those columns and persists it as
ifc_windows.csv, ifc_summary.json, fused.jsonl and models.json.
``confusion``, ``histogram``, ``mask`` and ``report`` are views of those
files, and ``plot`` draws the window means and the exports of ``histogram``
and ``confusion``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import confusion as conf
from . import ifc as ifc_mod
from . import mask as mask_mod
from . import svgplot
from ._io import open_text, write_csv, write_json
from .baseline import TrainConfig
from .pipeline import audit_records, baseline_prediction_records
from .predictions import (
    MERGE_POLICIES, PredictionTable, check_labels, read_columns, read_records, write_columns,
    write_records,
)
from .recordings import corpus_num_classes, parse_canonical, write_canonical
from .splits import MAX_FOLDS_DEFAULT, plan_folds, read_plan, write_plan
from .synth import default_scenario, generate_corpus, load_scenario, save_scenario
from .windowing import (
    GROUP_UNITS, LABEL_POLICIES, WindowConfig, WindowTable, chunk_windows, read_windows,
    slice_corpus, write_windows,
)

OUT_ENV = "HAR_AUDIT_OUT"


class CommandError(Exception):
    """User-facing failure: message printed to stderr, nonzero exit."""


class RunDir:
    """One command's view of the run directory: options, inputs, staged outputs.

    manifest.json maps each artifact to its SHA-256 (``artifacts``) and to a
    lineage record (``lineage``): the command that wrote it, the parameters
    that command resolved, and the SHA-256 of every run-directory input it
    read. Staleness, input checks and parameter checks all come from it.
    """

    def __init__(self, args, cfg: dict):
        out = args.out or cfg.get("out") or os.environ.get(OUT_ENV)
        if not out:
            raise CommandError(f"no output directory: pass --out or set {OUT_ENV}")
        self.out, self.args, self.cfg = Path(out), args, cfg
        self.out.mkdir(parents=True, exist_ok=True)
        for leftover in self.out.glob(".*.partial"):  # from a killed command
            leftover.unlink()
        path = self.out / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        self.artifacts = manifest.get("artifacts", {})
        self.lineage = manifest.get("lineage", {})
        self.staged: dict[str, Path] = {}
        self.params: dict = {}
        self.explicit: set[str] = set()
        self.inputs: dict[str, str] = {}
        self.hashes: dict[Path, str] = {}

    def sha256(self, path: Path) -> str:
        """A file's SHA-256, read in chunks and at most once per command."""
        if path not in self.hashes:
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            self.hashes[path] = digest.hexdigest()
        return self.hashes[path]

    def opt(self, key: str, default):
        """Command line beats config file beats ``default``; the value is recorded
        in the lineage. A config value is parsed as if typed after its flag."""
        value = getattr(self.args, key, None)
        if value is None and self.cfg.get(key) is not None:
            flag = "--" + key.replace("_", "-")
            parse = COMMANDS[self.args.command][2].get(flag, {}).get("type", str)
            try:
                value = parse(str(self.cfg[key]))
            except ValueError:
                raise CommandError(
                    f"config file value {json.dumps(self.cfg[key])} for {flag} is not "
                    f"a valid {parse.__name__}"
                ) from None
        if value is None:
            value = default
        else:
            self.explicit.add(key)
        self.params[key] = value
        return value

    def recipe(self, kind):
        """A recipe dataclass built from its fields' options, each defaulting to
        the field's default."""
        return kind(**{f.name: self.opt(f.name, f.default) for f in fields(kind)})

    def source(self, key: str, stage: str | None = None) -> Path | None:
        """A file from outside the run directory, recorded by content hash. With
        ``stage``, it is copied to become that artifact first, and the copy is
        hashed, so one hash serves the lineage and the manifest."""
        path = self.opt(key, None)
        if path is None:
            return None
        path = Path(path)
        if not path.is_file():
            raise CommandError(f"{key} file {path} does not exist")
        if stage is not None:
            shutil.copyfile(path, self.file(stage))
        self.params[key] = self.sha256(self.staged.get(stage, path))
        return path

    def file(self, name: str) -> Path:
        """A temporary path that becomes artifact ``name`` on commit."""
        path = self.out / f".{name}.partial"
        self.staged[name] = path
        return path

    def need(self, name: str) -> Path:
        """An input, refused when it has no lineage record, differs from the
        file its command wrote, or a file it was built from has changed since."""
        path = self.out / name
        producers = " or ".join(c for c, spec in COMMANDS.items() if name in spec[3])
        if not path.exists():
            raise CommandError(f"missing input {path}; run {producers} first")
        record = self.lineage.get(name)
        if record is None:
            raise CommandError(f"manifest.json records no lineage for {name}; rerun {producers}")
        if self.sha256(path) != self.artifacts.get(name):
            rerun = record["command"]
            raise CommandError(f"{name} differs from the file {rerun} wrote; rerun {rerun}")
        for source, digest in record["inputs"].items():
            if (self.out / source).exists() and self.sha256(self.out / source) != digest:
                raise CommandError(
                    f"{name} was built from another {source}; rerun {record['command']}"
                )
        self.inputs[name] = self.sha256(path)
        return path

    def discard(self) -> None:
        for path in self.staged.values():
            path.unlink(missing_ok=True)

    def commit(self) -> None:
        """Check the parameters against the inputs' producers, remove what the new
        files make stale, then move the staged files and the manifest into place."""
        for name in self.inputs:
            record = self.lineage[name]
            for key in sorted(self.explicit & record["params"].keys()):
                if record["params"][key] != self.params[key]:
                    raise CommandError(
                        f"--{key.replace('_', '-')} {self.params[key]} disagrees with "
                        f"{name}, written under {record['params'][key]}; rerun "
                        f"{record['command']} to change it"
                    )
        # A rewritten file makes stale what its previous producer wrote beside
        # it and, through the lineage, everything built from any of them.
        previous = {self.lineage[name]["command"] for name in self.staged if name in self.lineage}
        stale = set(self.staged)
        stale |= {name for name, r in self.lineage.items() if r["command"] in previous}
        while True:
            grown = stale | {n for n, r in self.lineage.items() if stale & r["inputs"].keys()}
            if grown == stale:
                break
            stale = grown
        for name in stale:
            self.artifacts.pop(name, None)
            self.lineage.pop(name, None)
        record = {
            "command": self.args.command,
            "params": dict(sorted(self.params.items())),
            "inputs": dict(sorted(self.inputs.items())),
        }
        for name, path in self.staged.items():
            self.artifacts[name] = self.sha256(path)
            self.lineage[name] = record
        write_json(
            {"artifacts": dict(sorted(self.artifacts.items())),
             "lineage": dict(sorted(self.lineage.items()))},
            self.file("manifest.json"),
        )
        for name in stale - set(self.staged):
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
    # Config files are shared across commands, so a key any command takes is allowed.
    known = {"out"} | {flag[2:].replace("-", "_") for spec in COMMANDS.values() for flag in spec[2]}
    unknown = sorted(cfg.keys() - known)
    if unknown:
        raise CommandError(f"config file {p} holds key {unknown[0]!r}, which no command takes")
    return cfg


# ---------------------------------------------------------------- artifacts

def _read_meta(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _windows(run: RunDir) -> tuple[WindowTable, dict]:
    """windows.csv as a table, and windows_meta.json."""
    return read_windows(run.need("windows.csv")), _read_meta(run.need("windows_meta.json"))


def _ifc_view(run: RunDir):
    """``_windows`` and the IFC flags, which must cover every window."""
    windows, meta = _windows(run)
    path = run.need("ifc_windows.csv")
    flags = ifc_mod.read_ifc_windows_csv(path)
    if flags.size != len(windows):
        raise CommandError(
            f"{path} holds {flags.size} windows but windows.csv holds {len(windows)}; rerun ifc"
        )
    return windows, meta, flags


def _load_records(
    read, path: Path, windows: WindowTable, meta: dict, name: Path | None = None
) -> PredictionTable:
    """Read a prediction log with ``read`` (``read_records`` or ``read_columns``),
    validated against the windows and their class count; errors name the log
    as ``name``, by default its path."""
    records = read(
        path, valid_window_ids=range(len(windows)), num_classes=meta["num_classes"]
    )
    if not len(records):
        raise CommandError(f"{name or path} holds no prediction records")
    return records


# ----------------------------------------------------------------- commands

def cmd_ingest(run: RunDir) -> None:
    source = run.source("recordings")
    if source is None:
        raise CommandError("ingest needs --recordings <csv>")
    recordings, repaired = parse_canonical(source)
    num_classes = corpus_num_classes(recordings)
    write_canonical(recordings, run.file("recordings.csv"))
    write_json(
        {
            "num_recordings": len(recordings),
            "num_samples": int(sum(r.num_samples for r in recordings)),
            "num_classes": num_classes,
            "repaired_cells": repaired,
        },
        run.file("ingest.json"),
    )


def cmd_synth(run: RunDir) -> None:
    scenario_path = run.source("scenario")
    spec = load_scenario(scenario_path) if scenario_path else default_scenario()
    seed = run.opt("seed", None)
    if seed is not None:
        spec = replace(spec, seed=seed)
    recordings, annotations = generate_corpus(spec, num_subjects=run.opt("subjects", 4))
    save_scenario(spec, run.file("scenario.json"))
    write_canonical(recordings, run.file("recordings.csv"))
    write_json(
        [{"subject": rec.subject_id, **asdict(span)}
         for rec, spans in zip(recordings, annotations) for span in spans],
        run.file("injections.json"),
    )


def cmd_windows(run: RunDir) -> None:
    recordings, _ = parse_canonical(run.need("recordings.csv"))
    config = run.recipe(WindowConfig)
    dataset = slice_corpus(recordings, config)
    write_windows(dataset.windows, run.file("windows.csv"))
    means = np.empty((dataset.num_windows, dataset.num_channels))
    for start, _, samples in dataset.chunks(np.arange(dataset.num_windows),
                                            chunk_windows(dataset)):
        means[start:start + len(samples)] = samples.mean(axis=1)
    with open(run.file("window_means.npy"), "wb") as fh:  # np.save(path) would add ".npy"
        np.save(fh, means, allow_pickle=False)
    write_json(
        {
            "num_windows": dataset.num_windows,
            "num_classes": dataset.num_classes,
            "total_samples": dataset.total_samples,
            **asdict(config),
            "recording_spans": [list(span) for span in dataset.recording_spans],
        },
        run.file("windows_meta.json"),
    )


def cmd_split(run: RunDir) -> None:
    windows = read_windows(run.need("windows.csv"))
    plan = plan_folds(windows, max_k=run.opt("max_k", MAX_FOLDS_DEFAULT))
    write_plan(plan, run.file("splits.json"))


def cmd_train_baseline(run: RunDir) -> None:
    # The recipe is checked before anything is read, so a refusal costs no parse.
    train_config = run.recipe(TrainConfig)
    runs = run.opt("runs", 1)
    if runs < 1:
        raise CommandError(f"runs must be at least 1, got {runs}")
    meta = _read_meta(run.need("windows_meta.json"))
    config = WindowConfig(**{f.name: meta[f.name] for f in fields(WindowConfig)})
    # No name holds the parsed recordings: the dataset's window views keep their
    # channels, and the rest is freed before training.
    dataset = slice_corpus(
        parse_canonical(run.need("recordings.csv"))[0], config, num_classes=meta["num_classes"]
    )
    plan = read_plan(run.need("splits.json"))
    records = baseline_prediction_records(
        dataset,
        plan,
        dataset_id=run.opt("dataset_id", "dataset"),
        runs=runs,
        config=train_config,
    )
    write_records(records, run.file("predictions.jsonl"))
    write_columns(records, run.file("predictions.npy"))


def cmd_import_logs(run: RunDir) -> None:
    logs = run.source("logs", stage="predictions.jsonl")
    if logs is None:
        raise CommandError("import-logs needs --logs <jsonl>")
    windows, meta = _windows(run)
    # The copy is validated and committed byte for byte, and its columns beside it.
    records = _load_records(read_records, run.staged["predictions.jsonl"], windows, meta, name=logs)
    check_labels(records, windows.label)
    write_columns(records, run.file("predictions.npy"))


def cmd_ifc(run: RunDir) -> None:
    run.need("predictions.jsonl")  # so a log edited since its columns were written is refused
    windows, meta = _windows(run)
    records = _load_records(read_columns, run.need("predictions.npy"), windows, meta)
    policy = run.opt("merge_policy", "majority")
    result = audit_records(
        records, windows.bounds, windows.label, meta["total_samples"],
        num_classes=meta["num_classes"], merge_policy=policy,
    )
    ifc_mod.write_ifc_windows_csv(
        result.ifc, windows.bounds, windows.label, run.file("ifc_windows.csv")
    )
    ifc_mod.write_ifc_summary_json(result.ifc, policy, run.file("ifc_summary.json"))
    conf.write_fused_jsonl(result.fused, run.file("fused.jsonl"))
    write_json(
        {
            "dataset_id": records.dataset,
            "chosen_configs": {
                f"{d}/{m}": c for (d, m), c in sorted(result.chosen_configs.items())
            },
            "model_metrics": {
                f"{d}/{m}/{c}": asdict(v) for (d, m, c), v in sorted(result.metrics.items())
            },
        },
        run.file("models.json"),
    )


def cmd_histogram(run: RunDir) -> None:
    windows, _, flags = _ifc_view(run)
    hist = ifc_mod.run_lengths(flags, windows.recording)
    ifc_mod.write_histogram_csv(hist, run.file("ifc_histogram.csv"))


def cmd_confusion(run: RunDir) -> None:
    windows, meta, flags = _ifc_view(run)
    table = conf.confusion_table(flags, windows.label, num_classes=meta["num_classes"])
    edges = conf.chord_edges(conf.read_fused_jsonl(run.need("fused.jsonl")))
    conf.write_confusion_csv(table, run.file("confusion_table.csv"))
    conf.write_chord_json(edges, [row.name for row in table], run.file("chord.json"))


def _ifc_mask(run: RunDir):
    """ifc_summary.json, the mask of ifc's flags, and ``_ifc_view``."""
    summary = _read_meta(run.need("ifc_summary.json"))
    # --merge-policy may only repeat the policy ifc ran under (checked on commit).
    run.opt("merge_policy", summary["merge_policy"])
    view = windows, meta, flags = _ifc_view(run)
    fused = conf.read_fused_jsonl(run.need("fused.jsonl"))
    mask = mask_mod.build_mask(flags, fused, windows.bounds, meta["total_samples"])
    return summary, mask, view


def cmd_mask(run: RunDir) -> None:
    summary, mask, (windows, _, _) = _ifc_mask(run)
    mask_mod.write_window_mask_csv(mask, windows.bounds, run.file("mask_windows.csv"))
    mask_mod.write_sample_mask_csv(mask, run.file("mask_samples.csv"))
    mask_mod.write_mask_summary_json(mask, summary["merge_policy"], run.file("mask_summary.json"))


def cmd_plot(run: RunDir) -> None:
    flags = _ifc_view(run)[-1]
    bins = ifc_mod.read_histogram_csv(run.need("ifc_histogram.csv"))
    chord = _read_meta(run.need("chord.json"))
    path = run.need("window_means.npy")
    means = np.load(path, allow_pickle=False)
    if means.ndim != 2 or len(means) != flags.size:
        raise CommandError(
            f"{path} holds means of shape {means.shape} but ifc_windows.csv holds "
            f"{flags.size} windows; rerun windows"
        )
    write_csv(
        ["window_id", *(f"mean_ch{c}" for c in range(means.shape[1])), "ifc_flag"],
        ([w, *map(repr, row), flag] for w, (row, flag)
         in enumerate(zip(means.tolist(), flags.astype(int).tolist()))),
        run.file("condensed.csv"),
    )
    edges = [(e["from"], e["to"], e["weight"]) for e in chord["edges"]]
    for name, svg in (
        ("condensed.svg", svgplot.condensed_view_svg(means, flags)),
        ("histogram.svg", svgplot.histogram_svg(bins)),
        ("chord.svg", svgplot.chord_svg(edges, chord["classes"])),
    ):
        with open_text(run.file(name), "w") as fh:
            fh.write(svg)


def cmd_report(run: RunDir) -> None:
    summary, mask, (windows, meta, flags) = _ifc_mask(run)
    table = conf.confusion_table(flags, windows.label, num_classes=meta["num_classes"])
    models = _read_meta(run.need("models.json"))
    payload = {
        "dataset_id": models["dataset_id"],
        "merge_policy": summary["merge_policy"],
        "num_windows": len(windows),
        "num_classes": int(meta["num_classes"]),
        # With two classes the gap rule has a single gap, so every flagged
        # window is necessarily major.
        "two_class_major_only": int(meta["num_classes"]) == 2,
        "overlap": {
            key: summary[key] for key in ("single_contributions", "common_ground", "ifc")
        },
        "mask": mask.distribution,
        "confusion": [asdict(row) for row in table],
        "model_metrics": models["model_metrics"],
    }
    write_json(payload, run.file("report.json"))


INT, FLOAT = {"type": int}, {"type": float}
POLICY = {"choices": list(MERGE_POLICIES)}
# name: (function, help, flags, artifacts); every command also takes --config and --out.
COMMANDS = {
    "ingest": (cmd_ingest, "parse recordings into the run directory",
               {"--recordings": {}}, ("recordings.csv", "ingest.json")),
    "synth": (cmd_synth, "generate a synthetic corpus",
              {"--scenario": {}, "--subjects": INT, "--seed": INT},
              ("scenario.json", "recordings.csv", "injections.json")),
    "windows": (cmd_windows, "slice recordings into labelled windows",
                {"--window-size": INT, "--stride": INT,
                 "--label-policy": {"choices": list(LABEL_POLICIES)},
                 "--group-by": {"choices": list(GROUP_UNITS)}},
                ("windows.csv", "windows_meta.json", "window_means.npy")),
    "split": (cmd_split, "plan grouped cross-validation folds", {"--max-k": INT},
              ("splits.json",)),
    "train-baseline": (cmd_train_baseline, "train the reference classifier per fold",
                       {"--runs": INT, "--step-size": FLOAT, "--epochs": INT,
                        "--dataset-id": {}}, ("predictions.jsonl", "predictions.npy")),
    "import-logs": (cmd_import_logs, "validate and import an external prediction log",
                    {"--logs": {}}, ("predictions.jsonl", "predictions.npy")),
    "ifc": (cmd_ifc, "run the audit: IFC flags, overlap, fused distributions, model metrics",
            {"--merge-policy": POLICY},
            ("ifc_windows.csv", "ifc_summary.json", "fused.jsonl", "models.json")),
    "confusion": (cmd_confusion, "tabulate confusion from the fused distributions", {},
                  ("confusion_table.csv", "chord.json")),
    "histogram": (cmd_histogram, "bin the run lengths of flagged windows", {},
                  ("ifc_histogram.csv",)),
    "mask": (cmd_mask, "emit the trinary clean/minor/major mask", {"--merge-policy": POLICY},
             ("mask_windows.csv", "mask_samples.csv", "mask_summary.json")),
    "plot": (cmd_plot, "draw SVG views of the window means and audit exports", {},
             ("condensed.csv", "condensed.svg", "histogram.svg", "chord.svg")),
    "report": (cmd_report, "bundle overlap, mask, confusion and model metrics",
               {"--merge-policy": POLICY}, ("report.json",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haraudit",
        description="Audit windowed time-series classification benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with flag defaults")
        p.add_argument("--out", help=f"run directory (fallback: ${OUT_ENV})")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run = None
    try:
        run = RunDir(args, _load_config_file(args.config))
        COMMANDS[args.command][0](run)
        run.commit()
    except Exception as exc:
        if run is not None:
            run.discard()
        print(f"haraudit {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
