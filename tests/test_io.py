"""Every reader and writer behaves the same through a path as through a stream."""

import dataclasses
import io
from types import SimpleNamespace

import numpy as np
import pytest

from haraudit.confusion import (
    chord_edges,
    confusion_table,
    read_fused_jsonl,
    write_chord_json,
    write_confusion_csv,
    write_fused_jsonl,
)
from haraudit.ifc import (
    read_histogram_csv,
    read_ifc_windows_csv,
    run_lengths,
    write_histogram_csv,
    write_ifc_summary_json,
    write_ifc_windows_csv,
)
from haraudit.mask import (
    write_mask_summary_json,
    write_sample_mask_csv,
    write_window_mask_csv,
)
from haraudit.pipeline import audit_records, baseline_prediction_records
from haraudit.predictions import read_records, write_records
from haraudit.recordings import parse_canonical, write_canonical
from haraudit.splits import plan_folds, read_plan, write_plan
from haraudit.synth import default_scenario, generate_corpus, load_scenario, save_scenario
from haraudit.windowing import WindowConfig, read_windows, slice_corpus, write_windows
from test_mask import read_sample_mask_csv, read_window_mask_csv


@pytest.fixture(scope="module")
def audit():
    recordings, _ = generate_corpus(default_scenario(), num_subjects=4)
    dataset = slice_corpus(recordings, WindowConfig())
    plan = plan_folds(dataset.windows)
    records = baseline_prediction_records(dataset, plan, runs=2)
    bounds = dataset.windows.bounds
    result = audit_records(
        records, bounds, dataset.windows.label, dataset.total_samples,
        num_classes=dataset.num_classes,
    )
    assert len(result.fused), "the scenario must flag some windows"
    return SimpleNamespace(
        recordings=recordings, plan=plan, records=records, bounds=bounds,
        windows=dataset.windows, result=result,
    )


# writer name -> (write(audit, dest), reader of what it wrote or None)
CASES = {
    "write_records": (lambda a, d: write_records(a.records, d), read_records),
    "write_canonical": (lambda a, d: write_canonical(a.recordings, d), parse_canonical),
    "write_plan": (lambda a, d: write_plan(a.plan, d), read_plan),
    "save_scenario": (lambda a, d: save_scenario(default_scenario(), d), load_scenario),
    "write_windows": (lambda a, d: write_windows(a.windows, d), read_windows),
    "write_ifc_windows_csv": (
        lambda a, d: write_ifc_windows_csv(a.result.ifc, a.bounds, a.windows.label, d),
        read_ifc_windows_csv,
    ),
    "write_ifc_summary_json": (
        lambda a, d: write_ifc_summary_json(a.result.ifc, "majority", d), None
    ),
    "write_histogram_csv": (
        lambda a, d: write_histogram_csv(run_lengths(a.result.ifc.ifc_flags), d),
        read_histogram_csv,
    ),
    "write_confusion_csv": (
        lambda a, d: write_confusion_csv(
            confusion_table(a.result.ifc.ifc_flags, a.windows.label, num_classes=3), d
        ),
        None,
    ),
    "write_chord_json": (
        lambda a, d: write_chord_json(chord_edges(a.result.fused), ["c0", "c1", "c2"], d), None
    ),
    "write_fused_jsonl": (lambda a, d: write_fused_jsonl(a.result.fused, d), read_fused_jsonl),
    "write_window_mask_csv": (
        lambda a, d: write_window_mask_csv(a.result.mask, a.bounds, d), read_window_mask_csv
    ),
    "write_sample_mask_csv": (
        lambda a, d: write_sample_mask_csv(a.result.mask, d), read_sample_mask_csv
    ),
    "write_mask_summary_json": (
        lambda a, d: write_mask_summary_json(a.result.mask, "majority", d), None
    ),
}


def plain(obj):
    """Comparable form of a reader's result (dataclasses and arrays unpacked)."""
    if dataclasses.is_dataclass(obj):
        return plain({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    if isinstance(obj, np.ndarray):
        return (str(obj.dtype), obj.shape, obj.tolist())
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


@pytest.mark.parametrize("name", sorted(CASES))
def test_path_and_stream_routes_agree(name, audit, tmp_path):
    write, read = CASES[name]
    path = tmp_path / name
    write(audit, path)
    stream = io.StringIO()
    write(audit, stream)
    text = stream.getvalue()  # the writer left the caller's stream open
    assert text
    assert path.read_bytes() == text.encode("utf-8")
    if read is not None:
        assert plain(read(str(path))) == plain(read(io.StringIO(text)))
