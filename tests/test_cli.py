import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from haraudit import cli, pipeline
from haraudit.cli import COMMANDS, main
from haraudit.predictions import write_records
from haraudit.synth import ScenarioSpec, default_scenario, save_scenario
from prediction_rows import table_of
from traced_memory import peak_bytes

PIPELINE = [
    ["synth"],
    ["windows"],
    ["split"],
    ["train-baseline", "--runs", "2", "--dataset-id", "synthetic"],
    ["ifc"],
    ["confusion"],
    ["histogram"],
    ["mask"],
    ["plot"],
    ["report"],
]


def run(out, argv):
    return main(argv + ["--out", str(out)])


def record_edit(out, name):
    """Write a hand-edited artifact's hash into manifest.json, so that the
    commands reading it get past the hash check to the checks after it."""
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["artifacts"][name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest))


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("audit")
    for argv in PIPELINE:
        assert run(out, argv) == 0, argv
    return out


class TestPipeline:
    def test_all_artifacts_present(self, full_run):
        expected = [
            "scenario.json", "recordings.csv", "injections.json", "windows.csv",
            "windows_meta.json", "splits.json", "predictions.jsonl",
            "ifc_windows.csv", "ifc_summary.json", "fused.jsonl", "models.json",
            "confusion_table.csv", "chord.json", "ifc_histogram.csv",
            "mask_windows.csv", "mask_samples.csv", "mask_summary.json",
            "condensed.csv", "condensed.svg", "histogram.svg", "chord.svg",
            "report.json", "manifest.json",
        ]
        for name in expected:
            assert (full_run / name).exists(), name

    def test_manifest_hashes_match_files(self, full_run):
        manifest = json.loads((full_run / "manifest.json").read_text())
        assert manifest["artifacts"]
        for name, digest in manifest["artifacts"].items():
            actual = hashlib.sha256((full_run / name).read_bytes()).hexdigest()
            assert actual == digest, name

    def test_report_is_consistent(self, full_run):
        report = json.loads((full_run / "report.json").read_text())
        overlap = report["overlap"]
        closure = (
            overlap["common_ground"]
            + sum(overlap["single_contributions"].values())
            + overlap["ifc"]
        )
        assert abs(closure - 100.0) <= 1e-9
        assert abs(report["mask"]["clean_pct"] - (100.0 - overlap["ifc"])) <= 1e-9
        assert report["dataset_id"] == "synthetic"
        assert "synthetic/baseline/gd_lr0.1_ep200" in report["model_metrics"]
        assert report["num_classes"] == 3
        assert report["two_class_major_only"] is False

    def test_mask_summary_reports_policy(self, full_run):
        summary = json.loads((full_run / "mask_summary.json").read_text())
        assert summary["policy"] == "majority"

    def test_ifc_csv_aligns_with_windows(self, full_run):
        windows = (full_run / "windows.csv").read_text().strip().splitlines()
        flags = (full_run / "ifc_windows.csv").read_text().strip().splitlines()
        assert len(windows) == len(flags)


class TestReruns:
    def test_identical_seed_gives_byte_identical_artifacts(self, tmp_path, full_run):
        out2 = tmp_path / "again"
        for argv in PIPELINE:
            assert run(out2, argv) == 0
        names = sorted(
            p.name for p in full_run.iterdir() if p.name != "manifest.json"
        )
        for name in names:
            a = (full_run / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"{name} differs between reruns"
        assert (full_run / "manifest.json").read_text() == (
            out2 / "manifest.json"
        ).read_text()


class TestErrors:
    @pytest.mark.parametrize("flag, value", [("--label-policy", "mode"), ("--group-by", "session")])
    def test_windows_flags_take_only_the_library_vocabularies(self, tmp_path, flag, value):
        out = tmp_path / "run"
        assert run(out, ["synth", "--subjects", "2"]) == 0
        before = snapshot(out)
        with pytest.raises(SystemExit) as exc:
            run(out, ["windows", flag, value])
        assert exc.value.code == 2
        assert snapshot(out) == before

    @pytest.mark.parametrize("key, value, message", [
        ("group_by", "session", "unknown group unit 'session'"),
        ("label_policy", "mode", "unknown label policy 'mode'"),
    ])
    def test_config_file_values_are_checked_by_the_library(
        self, tmp_path, capsys, key, value, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "run"
        assert run(out, ["synth", "--subjects", "2"]) == 0
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["windows", "--config", str(config)]) == 1
        assert message in capsys.readouterr().err
        assert snapshot(out) == before

    def test_ifc_without_predictions_names_the_missing_file(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["ifc", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "predictions.jsonl" in err

    def test_unknown_flag_exits_two(self, tmp_path):
        for argv in (["synth", "--bogus"], ["ingest", "--sample-rate", "50"],
                     ["windows", "--sample-rate", "50"]):
            with pytest.raises(SystemExit) as exc:
                run(tmp_path, argv)
            assert exc.value.code == 2, argv

    def test_unknown_command_exits_two(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--out", str(tmp_path)])

    def test_missing_out_fails_cleanly(self, monkeypatch, capsys):
        monkeypatch.delenv("HAR_AUDIT_OUT", raising=False)
        assert main(["synth"]) == 1
        assert "HAR_AUDIT_OUT" in capsys.readouterr().err

    def test_out_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAR_AUDIT_OUT", str(tmp_path / "envout"))
        assert main(["synth"]) == 0
        assert (tmp_path / "envout" / "recordings.csv").exists()

    def test_import_logs_rejects_bad_simplex(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(out, ["synth"]) == 0
        assert run(out, ["windows"]) == 0
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"dataset":"d","model":"m","config":"c","run":0,"fold":0,'
            '"window":0,"label":0,"probs":[0.6,0.5]}\n'
        )
        assert run(out, ["import-logs", "--logs", str(bad)]) == 1
        assert "record 0" in capsys.readouterr().err
        assert not (out / "predictions.jsonl").exists()  # partial output removed

    def test_failed_command_leaves_no_partial_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert run(out, ["synth"]) == 0
        # windows with an impossible stride fails after the run dir exists
        assert run(out, ["windows", "--stride", "0"]) == 1
        assert not (out / "windows.csv").exists()
        assert not (out / "windows_meta.json").exists()

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_train_baseline_needs_a_run(self, tmp_path, capsys, runs):
        # Before, this exited 1 with "not enough values to unpack".
        out = tmp_path / "run"
        for argv in (["synth", "--subjects", "2"], ["windows"], ["split"]):
            assert run(out, argv) == 0, argv
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["train-baseline", "--runs", runs]) == 1
        assert f"runs must be at least 1, got {runs}" in capsys.readouterr().err
        assert snapshot(out) == before

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, value, message", [
        ("step_size", "nan", "step_size must be finite and positive, got nan"),
        ("step_size", "inf", "step_size must be finite and positive, got inf"),
        ("step_size", "0", "step_size must be finite and positive, got 0.0"),
        ("step_size", "-0.5", "step_size must be finite and positive, got -0.5"),
        ("epochs", "0", "epochs must be at least 1, got 0"),
        ("epochs", "-3", "epochs must be at least 1, got -3"),
    ])
    def test_train_baseline_refuses_a_config_that_cannot_train(
        self, tmp_path, planned_run, capsys, source, key, value, message
    ):
        # Before, a NaN step wrote NaN probabilities and -3 epochs trained nothing.
        out = tmp_path / "run"
        shutil.copytree(planned_run, out)
        if source == "flag":
            flags = ["--" + key.replace("_", "-"), value]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: (float if key == "step_size" else int)(value)}))
            flags = ["--config", str(config)]
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["train-baseline", *flags]) == 1
        assert message in capsys.readouterr().err
        assert snapshot(out) == before

    @pytest.mark.parametrize("flags", [
        ["--step-size", "nan"], ["--epochs", "-3"], ["--runs", "0"],
    ])
    def test_train_baseline_refuses_its_recipe_before_parsing(
        self, tmp_path, planned_run, monkeypatch, flags
    ):
        # Before, each refusal came only after the recordings were parsed and sliced.
        out = tmp_path / "run"
        shutil.copytree(planned_run, out)
        calls = []

        def counted(*args):
            calls.append(args)
            return parse(*args)

        parse = cli.parse_canonical
        monkeypatch.setattr(cli, "parse_canonical", counted)
        before = snapshot(out)
        assert run(out, ["train-baseline", *flags]) == 1
        assert snapshot(out) == before
        assert len(calls) == 0
        assert run(out, ["train-baseline", "--epochs", "2"]) == 0
        assert len(calls) == 1


@pytest.fixture(scope="module")
def windowed_run(tmp_path_factory):
    """A run directory after ``synth --subjects 2`` and ``windows``."""
    out = tmp_path_factory.mktemp("windowed")
    for argv in (["synth", "--subjects", "2"], ["windows"]):
        assert run(out, argv) == 0, argv
    return out


@pytest.fixture(scope="module")
def planned_run(windowed_run, tmp_path_factory):
    """``windowed_run`` after ``split``."""
    out = tmp_path_factory.mktemp("planned") / "run"
    shutil.copytree(windowed_run, out)
    assert run(out, ["split"]) == 0
    return out


CANONICAL_HEADER = "subject_id,session_id,label,ax\n"
ONE_CLASS_RECORD = ('{"dataset":"d","model":"m","config":"c","run":0,"fold":0,'
                    '"window":0,"label":0,"probs":[1.0]}\n')
# id: (argv, files written beside the run directory, message); "{d}" is their directory.
REFUSALS = {
    "windows-config-bool": (["windows", "--config", "{d}/c.json"], {"c.json": '{"stride": true}'},
                            "config file value true for --stride is not a valid int"),
    "split-config-float": (["split", "--config", "{d}/c.json"], {"c.json": '{"max_k": 3.9}'},
                           "config file value 3.9 for --max-k is not a valid int"),
    "synth-config-float": (["synth", "--config", "{d}/c.json"], {"c.json": '{"seed": 4.5}'},
                           "config file value 4.5 for --seed is not a valid int"),
    # A config file may serve every command, but a key that no command takes is refused.
    "windows-config-misspelled": (
        ["windows", "--config", "{d}/c.json"], {"c.json": '{"windowsize": 100, "stride": 50}'},
        "config file {d}/c.json holds key 'windowsize', which no command takes"),
    "ingest-config-sample-rate": (
        ["ingest", "--config", "{d}/c.json"], {"c.json": '{"sample_rate": 0}'},
        "config file {d}/c.json holds key 'sample_rate', which no command takes"),
    "windows-config-sample-rate": (
        ["windows", "--config", "{d}/c.json"], {"c.json": '{"sample_rate": 0}'},
        "config file {d}/c.json holds key 'sample_rate', which no command takes"),
    "config-missing": (["windows", "--config", "{d}/c.json"], {},
                       "config file {d}/c.json does not exist"),
    "config-not-json": (["windows", "--config", "{d}/c.json"], {"c.json": "{"},
                        "config file {d}/c.json is not valid JSON"),
    "config-not-object": (["windows", "--config", "{d}/c.json"], {"c.json": "[1]"},
                          "config file {d}/c.json must hold a JSON object"),
    "recordings-missing": (["ingest", "--recordings", "{d}/r.csv"], {},
                           "recordings file {d}/r.csv does not exist"),
    "logs-missing": (["import-logs", "--logs", "{d}/l.jsonl"], {},
                     "logs file {d}/l.jsonl does not exist"),
    "scenario-missing": (["synth", "--scenario", "{d}/s.json"], {},
                         "scenario file {d}/s.json does not exist"),
    "ingest-without-recordings": (["ingest"], {}, "ingest needs --recordings <csv>"),
    "import-logs-without-logs": (["import-logs"], {}, "import-logs needs --logs <jsonl>"),
    "recordings-cell-count": (["ingest", "--recordings", "{d}/r.csv"],
                              {"r.csv": CANONICAL_HEADER + "s1,r1,0,1.0,2.0\n"},
                              "line 2: expected 4 cells, found 5"),
    "recordings-negative-label": (["ingest", "--recordings", "{d}/r.csv"],
                                  {"r.csv": CANONICAL_HEADER + "s1,r1,-1,1.0\n"},
                                  "line 2: label -1 is negative"),
    "recordings-header-only": (["ingest", "--recordings", "{d}/r.csv"], {"r.csv": CANONICAL_HEADER},
                               "file contains a header but no samples"),
    "recordings-one-class": (["ingest", "--recordings", "{d}/r.csv"],
                             {"r.csv": CANONICAL_HEADER + "s1,r1,0,1.0\ns2,r1,0,2.0\n"},
                             "corpus holds one class; an audit needs at least two"),
    "logs-one-class": (["import-logs", "--logs", "{d}/l.jsonl"], {"l.jsonl": ONE_CLASS_RECORD},
                       "probs must hold at least two classes"),
    "split-max-k": (["split", "--max-k", "1"], {}, "max_k must be at least 2"),
}


class TestRefusals:
    """Each refused input exits 1 with its message and leaves the run directory as it was."""

    @pytest.mark.parametrize("argv, files, message", REFUSALS.values(), ids=REFUSALS.keys())
    def test_a_refused_input_changes_nothing(
        self, tmp_path, windowed_run, capsys, argv, files, message
    ):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "run"
        shutil.copytree(windowed_run, out)
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, [arg.replace("{d}", str(tmp_path)) for arg in argv]) == 1
        assert message.replace("{d}", str(tmp_path)) in capsys.readouterr().err
        assert snapshot(out) == before

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s.update(num_classes=3.9), "scenario.num_classes must be an integer, got 3.9"),
        (lambda s: s.update(seed=True), "scenario.seed must be an integer, got true"),
        (lambda s: s["injections"][0].update(location=3000.7),
         "scenario.injections[0].location must be an integer, got 3000.7"),
        (lambda s: s.pop("seed"), "scenario lacks keys ['seed']"),
        (lambda s: s.update(noise=0.5), "scenario has unknown keys ['noise']"),
        (lambda s: s["injections"][0].update(location=-5),
         "injection needs location >= 0 and extent > 0"),
        (lambda s: s.update(num_classes=1, class_signatures=[[0.0, 0.0]]),
         "num_classes must be at least 2, got 1"),
        (lambda s: s.update(num_classes=0), "num_classes must be at least 2, got 0"),
        (lambda s: s.update(num_channels=0), "num_channels must be at least 1, got 0"),
        (lambda s: s.update(samples_per_segment=0), "samples_per_segment must be at least 1, got 0"),
        (lambda s: s.update(num_segments=0), "num_segments must be at least 1, got 0"),
        (lambda s: s.update(noise_std=-1.0), "noise_std must be at least 0, got -1.0"),
    ], ids=["float-int", "bool-int", "float-location", "missing", "unknown", "negative-location",
            "one-class", "no-class", "no-channel", "empty-segment", "no-segment", "negative-noise"])
    def test_a_scenario_file_must_match_the_scenario_fields(
        self, tmp_path, windowed_run, capsys, edit, message
    ):
        payload = default_scenario_payload(tmp_path)
        edit(payload)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(payload))
        out = tmp_path / "run"
        shutil.copytree(windowed_run, out)
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["synth", "--scenario", str(scenario)]) == 1
        assert message in capsys.readouterr().err
        assert snapshot(out) == before


def default_scenario_payload(tmp_path):
    path = tmp_path / "default_scenario.json"
    save_scenario(default_scenario(), path)
    return json.loads(path.read_text())


class TestScenarioFiles:
    def test_int_signatures_are_written_as_floats(self, tmp_path):
        payload = default_scenario_payload(tmp_path)
        payload["class_signatures"], payload["noise_std"] = [[0, 0], [2, -2], [-2, 2]], 1
        scenario = tmp_path / "ints.json"
        scenario.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert run(out, ["synth", "--scenario", str(scenario), "--subjects", "2"]) == 0
        payload["class_signatures"] = [[0.0, 0.0], [2.0, -2.0], [-2.0, 2.0]]
        payload["noise_std"] = 1.0
        assert (out / "scenario.json").read_text() == json.dumps(payload, indent=2) + "\n"

    def test_seed_flag_replaces_the_scenario_seed(self, tmp_path):
        out = tmp_path / "flag"
        assert run(out, ["synth", "--subjects", "2", "--seed", "7"]) == 0
        assert json.loads((out / "scenario.json").read_text())["seed"] == 7
        assert records_in(out)["scenario.json"]["params"]["seed"] == 7
        payload = default_scenario_payload(tmp_path)
        payload["seed"] = 7
        scenario = tmp_path / "seed7.json"
        scenario.write_text(json.dumps(payload))
        other = tmp_path / "file"
        assert run(other, ["synth", "--subjects", "2", "--scenario", str(scenario)]) == 0
        for name in ("scenario.json", "recordings.csv", "injections.json"):
            assert (out / name).read_bytes() == (other / name).read_bytes(), name


CLI_CODE = "import sys; from haraudit.cli import main; assert main(sys.argv[1:]) == 0"


def loads_numpy_ma(code, *argv):
    """Whether ``python -c code *argv``, run with src on the path, ends with
    numpy.ma imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH"))
        if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + "; print('numpy.ma' in sys.modules)", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (argv, proc.stderr)
    return proc.stdout.split()[-1] == "True"


@pytest.fixture
def numpy_without_ma():
    if loads_numpy_ma("import sys, numpy"):
        pytest.skip("this numpy loads numpy.ma on import")


def test_commands_before_the_audit_do_not_load_numpy_ma(tmp_path, numpy_without_ma):
    """In numpy 2, np.unique imports numpy.ma (about 16 ms and 1.3 MiB per
    process); ingest, windows, split and train-baseline have no need of it."""
    source, out = tmp_path / "source", str(tmp_path / "run")
    assert run(source, ["synth", "--subjects", "2"]) == 0
    for argv in (["ingest", "--recordings", str(source / "recordings.csv")],
                 ["windows"], ["split"], ["train-baseline"]):
        assert not loads_numpy_ma(CLI_CODE, *argv, "--out", out), argv


def test_audit_commands_do_not_load_numpy_ma(tmp_path, full_run, numpy_without_ma):
    """Nor do import-logs and the audit; fusion once called np.unique and
    np.setdiff1d, which import it, once per flagged window."""
    out = tmp_path / "run"
    shutil.copytree(full_run, out)
    logs = shutil.copyfile(out / "predictions.jsonl", tmp_path / "logs.jsonl")
    for argv in (["import-logs", "--logs", str(logs)], ["ifc"], ["confusion"],
                 ["histogram"], ["mask"], ["plot"], ["report"]):
        assert not loads_numpy_ma(CLI_CODE, *argv, "--out", str(out)), argv
    assert json.loads((out / "ifc_summary.json").read_text())["ifc"] > 0


def import_one_hot_log(tmp_path, out, covered, models=("m1",), misses=((),)):
    """Import a one-hot log over the windows in ``covered``: one run per entry of
    ``misses``, in which every model is correct except on that entry's windows."""
    meta = json.loads((out / "windows_meta.json").read_text())
    labels = [
        int(row.split(",")[3])
        for row in (out / "windows.csv").read_text().strip().splitlines()[1:]
    ]
    one_hot = np.eye(meta["num_classes"])
    records = table_of(
        dict(dataset="ext", model=model, config="c0", run=run_id, window=w, label=labels[w],
             probs=one_hot[(labels[w] + (w in missed)) % meta["num_classes"]])
        for model in models
        for run_id, missed in enumerate(misses)
        for w in covered
    )
    logs = tmp_path / "logs.jsonl"
    write_records(records, logs)
    assert run(out, ["import-logs", "--logs", str(logs)]) == 0


def test_a_two_class_audit_flags_only_major_windows(tmp_path):
    """With two classes the gap rule has one gap, so every flagged window is major."""
    scenario = tmp_path / "two_classes.json"
    save_scenario(
        ScenarioSpec(num_classes=2, num_segments=6, injections=default_scenario().injections),
        scenario,
    )
    out = tmp_path / "run"
    for argv in (["synth", "--scenario", str(scenario), "--subjects", "3"], ["windows"],
                 ["split"], ["train-baseline", "--runs", "2"], ["ifc"], ["mask"], ["report"]):
        assert run(out, argv) == 0, argv
    report = json.loads((out / "report.json").read_text())
    assert report["num_classes"] == 2
    assert report["two_class_major_only"] is True
    assert report["overlap"]["ifc"] > 0
    assert report["mask"]["minor_pct"] == 0.0
    assert report["mask"]["major_pct"] == report["overlap"]["ifc"]


class TestImportedLogs:
    def test_report_on_all_correct_logs(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(out, ["synth", "--subjects", "2"]) == 0
        assert run(out, ["windows"]) == 0
        n = json.loads((out / "windows_meta.json").read_text())["num_windows"]
        import_one_hot_log(tmp_path, out, range(n), models=("m1", "m2"))
        assert run(out, ["ifc"]) == 0
        assert run(out, ["report"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["overlap"]["ifc"] == 0.0
        assert report["mask"]["clean_pct"] == 100.0
        summary = json.loads((out / "ifc_summary.json").read_text())
        assert summary["ifc"] == 0.0 and summary["common_ground"] == 100.0


class TestOneAuditCore:
    def test_mask_and_report_follow_the_policy_ifc_used(self, tmp_path, capsys):
        out = tmp_path / "run"
        for argv in (
            ["synth"], ["windows"], ["split"], ["train-baseline", "--runs", "2"],
            ["ifc", "--merge-policy", "all"], ["confusion"],
            ["ifc", "--merge-policy", "any"], ["mask"], ["report"],
        ):
            assert run(out, argv) == 0, argv
        policies = [
            json.loads((out / name).read_text())[key]
            for name, key in (
                ("ifc_summary.json", "merge_policy"),
                ("mask_summary.json", "policy"),
                ("report.json", "merge_policy"),
            )
        ]
        assert policies == ["any", "any", "any"]
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(out, ["mask", "--merge-policy", "all"]) == 1
        assert "disagrees" in capsys.readouterr().err
        assert run(out, ["report", "--merge-policy", "majority"]) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_log_labels_must_match_the_window_table(self, tmp_path, capsys):
        out = tmp_path / "run"
        for argv in (["synth", "--subjects", "2"], ["windows"], ["split"], ["train-baseline"]):
            assert run(out, argv) == 0, argv
        lines = (out / "predictions.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        for record in records:
            if record["window"] == 5:
                record["label"] = (record["label"] + 1) % 3
        logs = tmp_path / "relabelled.jsonl"
        logs.write_text("".join(json.dumps(record) + "\n" for record in records))
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["import-logs", "--logs", str(logs)]) == 1
        first = next(i for i, record in enumerate(records) if record["window"] == 5)
        assert f"record {first}: label" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_a_log_with_a_second_dataset_is_refused(self, tmp_path, full_run, capsys):
        # The log again under dataset "zzz", probabilities rolled by one class.
        # ifc once merged the runs of both datasets as one model's.
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        lines = (out / "predictions.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        for record in records:
            record["dataset"], record["probs"] = "zzz", np.roll(record["probs"], 1).tolist()
        logs = tmp_path / "two_datasets.jsonl"
        logs.write_text("".join(line + "\n" for line in lines + list(map(json.dumps, records))))
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["import-logs", "--logs", str(logs)]) == 1
        assert (f"record {len(lines)}: dataset 'zzz' differs from the log's dataset "
                "'synthetic'") in capsys.readouterr().err
        assert snapshot(out) == before

    @pytest.mark.parametrize("text", ["", "\n \n\n"], ids=["empty", "blank-lines"])
    def test_a_log_without_records_is_refused(self, tmp_path, full_run, capsys, text):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        logs = tmp_path / "logs.jsonl"
        logs.write_text(text)
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["import-logs", "--logs", str(logs)]) == 1
        assert f"{logs} holds no prediction records" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_import_logs_keeps_the_bytes_it_validated(self, tmp_path, full_run):
        # The same log three times: as train-baseline wrote it, which is read
        # in bulk, and twice re-spelled, which is read line by line: keys
        # reversed with extra spaces, and keys shuffled with compact
        # separators. Each is stored as it is, and ifc reads all alike.
        canonical = full_run / "predictions.jsonl"
        records = [json.loads(line) for line in canonical.read_text().splitlines()]
        loose, compact = tmp_path / "loose.jsonl", tmp_path / "compact.jsonl"
        loose.write_text("".join(
            json.dumps(dict(reversed(r.items())), separators=(" ,  ", " :  ")) + "  \n"
            for r in records
        ))
        rng = random.Random(18)
        compact.write_text("".join(
            json.dumps({k: r[k] for k in rng.sample(list(r), len(r))}, separators=(",", ":"))
            + "\n" for r in records
        ))
        audits = []
        for name, logs in (("canonical", canonical), ("loose", loose), ("compact", compact)):
            out = tmp_path / name
            for argv in (["ingest", "--recordings", str(full_run / "recordings.csv")],
                         ["windows"], ["split"], ["import-logs", "--logs", str(logs)], ["ifc"]):
                assert run(out, argv) == 0, argv
            assert (out / "predictions.jsonl").read_bytes() == logs.read_bytes()
            audits.append({a: (out / a).read_bytes() for a in COMMANDS["ifc"][3]})
        assert audits[0] == audits[1] == audits[2]

    def test_import_logs_hashes_the_log_once(self, tmp_path, full_run, monkeypatch):
        # The lineage's `logs` digest and the manifest's predictions.jsonl
        # digest are one hash of the staged copy; the source was once hashed too.
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        logs = shutil.copyfile(out / "predictions.jsonl", tmp_path / "logs.jsonl")
        digest = hashlib.sha256(logs.read_bytes()).hexdigest()
        hashes, sha256 = [], hashlib.sha256
        monkeypatch.setattr(cli.hashlib, "sha256", lambda: hashes.append(sha256()) or hashes[-1])
        assert run(out, ["import-logs", "--logs", str(logs)]) == 0
        assert [h.hexdigest() for h in hashes].count(digest) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"]["predictions.jsonl"] == digest
        assert manifest["lineage"]["predictions.jsonl"]["params"]["logs"] == digest

    def test_sparse_log_fails_at_ifc(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(out, ["synth"]) == 0
        assert run(out, ["windows"]) == 0
        total = json.loads((out / "windows_meta.json").read_text())["num_windows"]
        covered = total // 2
        import_one_hot_log(tmp_path, out, range(covered))
        capsys.readouterr()
        assert run(out, ["ifc"]) == 1
        assert (
            f"log covers {covered} windows but the dataset defines {total} dense "
            "window ids" in capsys.readouterr().err
        )
        assert not (out / "ifc_windows.csv").exists()
        assert not (out / "ifc_summary.json").exists()
        assert run(out, ["report"]) == 1
        assert "ifc_summary.json" in capsys.readouterr().err

    def test_short_flag_table_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(out, ["synth", "--subjects", "2"]) == 0
        assert run(out, ["windows"]) == 0
        total = json.loads((out / "windows_meta.json").read_text())["num_windows"]
        import_one_hot_log(tmp_path, out, range(total))
        assert run(out, ["ifc"]) == 0
        flags = out / "ifc_windows.csv"
        rows = flags.read_text().splitlines(keepends=True)
        flags.write_text("".join(rows[: 1 + total // 2]))
        record_edit(out, "ifc_windows.csv")
        capsys.readouterr()
        for command, artifact in (("histogram", "ifc_histogram.csv"), ("plot", "condensed.csv")):
            assert run(out, [command]) == 1
            assert f"holds {total // 2} windows" in capsys.readouterr().err
            assert not (out / artifact).exists()


# Everything the commands that read ifc's outputs write.
IFC_VIEWS = (
    "confusion_table.csv", "chord.json", "ifc_histogram.csv", "mask_windows.csv",
    "mask_samples.csv", "mask_summary.json", "condensed.csv", "condensed.svg",
    "histogram.svg", "chord.svg", "report.json",
)


def snapshot(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def manifest_names(out):
    return set(json.loads((out / "manifest.json").read_text())["artifacts"])


class TestAuditRunsOnceAtIfc:
    def test_rerun_ifc_removes_the_views_it_made_stale(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(out, ["synth", "--subjects", "2"]) == 0
        assert run(out, ["windows"]) == 0
        n = json.loads((out / "windows_meta.json").read_text())["num_windows"]
        import_one_hot_log(tmp_path, out, range(n), misses=((), range(0, n, 3)))
        for argv in (["ifc", "--merge-policy", "any"], ["confusion"],
                     ["ifc", "--merge-policy", "all"]):
            assert run(out, argv) == 0, argv
        assert run(out, ["mask"]) == 0
        assert json.loads((out / "mask_summary.json").read_text())["policy"] == "all"
        assert not (out / "chord.json").exists()
        assert "chord.json" not in manifest_names(out)
        capsys.readouterr()
        assert run(out, ["plot"]) == 1
        assert "ifc_histogram.csv" in capsys.readouterr().err
        assert not (out / "condensed.csv").exists()
        assert run(out, ["confusion"]) == 0
        assert run(out, ["histogram"]) == 0
        assert run(out, ["plot"]) == 0
        assert json.loads((out / "chord.json").read_text())["edges"]

    def test_rerun_ifc_keeps_only_its_inputs_and_outputs(self, tmp_path, full_run):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        assert run(out, ["ifc"]) == 0
        assert set(snapshot(out)) == {
            "scenario.json", "recordings.csv", "injections.json", "windows.csv",
            "windows_meta.json", "window_means.npy", "splits.json", "predictions.jsonl",
            "predictions.npy", "ifc_windows.csv", "ifc_summary.json", "fused.jsonl",
            "models.json", "manifest.json",
        }
        assert manifest_names(out) == set(snapshot(out)) - {"manifest.json"}
        assert not set(IFC_VIEWS) & set(snapshot(out))

    def test_failed_ifc_leaves_the_run_directory_as_it_was(
        self, tmp_path, full_run, monkeypatch
    ):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        assert run(out, ["ifc"]) == 0
        before = snapshot(out)

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("haraudit.ifc.write_ifc_summary_json", fail)
        assert run(out, ["ifc", "--merge-policy", "all"]) == 1
        assert snapshot(out) == before

    def test_ifc_filters_the_log_to_the_chosen_configs_once(
        self, tmp_path, full_run, monkeypatch
    ):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        calls = []
        real = pipeline.filter_to_configs

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (pipeline, cli):
            if hasattr(module, "filter_to_configs"):
                monkeypatch.setattr(module, "filter_to_configs", counted)
        assert run(out, ["ifc"]) == 0
        assert len(calls) == 1
        assert (out / "models.json").read_bytes() == (full_run / "models.json").read_bytes()

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="before 3.11 the caller's stack holds a call's arguments")
    def test_ifc_frees_the_full_table_once_configs_are_chosen(self, tmp_path, full_run):
        """The baseline's one config keeps every record, so filter_to_configs
        copies the whole table. Traced, ifc peaked at 3.34 times
        predictions.npy while it held both tables to the end of the audit;
        with the full one freed, it peaks at 2.31 times, inside that copy."""
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        assert run(out, ["train-baseline", "--runs", "32"]) == 0
        table_bytes = (out / "predictions.npy").stat().st_size
        code, peak = peak_bytes(lambda: run(out, ["ifc"]))
        assert code == 0
        assert peak <= 2.75 * table_bytes, peak / table_bytes

    @pytest.mark.parametrize("name, command", [
        ("ifc_windows.csv", "histogram"), ("ifc_windows.csv", "confusion"),
        ("ifc_histogram.csv", "plot"),
    ])
    def test_an_export_with_a_wrong_header_is_refused(
        self, tmp_path, full_run, capsys, name, command
    ):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        path = out / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("window,flag\n" + "".join(lines[1:]))
        record_edit(out, name)
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, [command]) == 1
        assert f"{name} starts with window,flag, not the header" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_views_need_no_prediction_log(self, tmp_path, full_run):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        assert run(out, ["ifc"]) == 0
        (out / "predictions.jsonl").rename(tmp_path / "predictions.jsonl")
        for argv in (["confusion"], ["histogram"], ["mask"], ["plot"], ["report"]):
            assert run(out, argv) == 0, argv
        written = set(snapshot(out)) - {"manifest.json"}
        assert written == set(snapshot(full_run)) - {"manifest.json", "predictions.jsonl"}
        for name in written:
            assert (out / name).read_bytes() == (full_run / name).read_bytes(), name


def records_in(out):
    return json.loads((out / "manifest.json").read_text())["lineage"]


def swap_first_fold_ids(text):
    """splits.json with the ids of its first two folds swapped."""
    plan = json.loads(text)
    plan["folds"][0]["fold_id"], plan["folds"][1]["fold_id"] = 1, 0
    return json.dumps(plan)


def relabel_first_window(text):
    """windows.csv with the first window moved to the next of three classes."""
    rows = text.splitlines(keepends=True)
    cells = rows[1].split(",")
    cells[3] = str((int(cells[3]) + 1) % 3)
    rows[1] = ",".join(cells)
    return "".join(rows)


class TestLineage:
    def test_new_log_removes_the_report_built_from_the_old_one(self, tmp_path, full_run, capsys):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        assert run(out, ["train-baseline", "--epochs", "2"]) == 0
        assert set(snapshot(out)) == {
            "scenario.json", "recordings.csv", "injections.json", "windows.csv",
            "windows_meta.json", "window_means.npy", "splits.json", "predictions.jsonl",
            "predictions.npy", "manifest.json",
        }
        capsys.readouterr()
        assert run(out, ["report"]) == 1
        assert "ifc_summary.json" in capsys.readouterr().err
        assert run(out, ["ifc"]) == 0
        assert run(out, ["report"]) == 0
        report = json.loads((out / "report.json").read_text())
        summary = json.loads((out / "ifc_summary.json").read_text())
        assert list(report["model_metrics"]) == ["dataset/baseline/gd_lr0.1_ep2"]
        assert report["overlap"]["ifc"] == summary["ifc"]

    def test_new_labels_remove_the_flags_computed_for_the_old_ones(
        self, tmp_path, full_run, capsys
    ):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        assert run(out, ["windows", "--label-policy", "last_sample"]) == 0
        assert set(snapshot(out)) == {
            "scenario.json", "recordings.csv", "injections.json", "windows.csv",
            "windows_meta.json", "window_means.npy", "manifest.json",
        }
        assert manifest_names(out) == set(snapshot(out)) - {"manifest.json"}
        before = snapshot(out)
        capsys.readouterr()
        for command in ("confusion", "histogram", "mask"):
            assert run(out, [command]) == 1
            assert "missing input" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_ingest_and_synth_remove_what_the_other_wrote(self, tmp_path):
        source = tmp_path / "source"
        assert run(source, ["synth", "--subjects", "2"]) == 0
        out = tmp_path / "run"
        assert run(out, ["synth", "--subjects", "2"]) == 0
        assert run(out, ["ingest", "--recordings", str(source / "recordings.csv")]) == 0
        assert set(snapshot(out)) == {"recordings.csv", "ingest.json", "manifest.json"}
        assert run(out, ["synth", "--subjects", "2"]) == 0
        assert set(snapshot(out)) == {
            "recordings.csv", "scenario.json", "injections.json", "manifest.json"
        }

    @pytest.mark.parametrize("name, edit, command, producer", [
        ("splits.json", swap_first_fold_ids, "train-baseline", "split"),
        ("windows.csv", relabel_first_window, "split", "windows"),
    ])
    def test_an_input_edited_since_its_command_wrote_it_is_refused(
        self, tmp_path, full_run, capsys, name, edit, command, producer
    ):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        (out / name).write_text(edit((out / name).read_text()))
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, [command]) == 1
        assert (f"{name} differs from the file {producer} wrote; rerun {producer}"
                in capsys.readouterr().err)
        assert snapshot(out) == before

    @pytest.mark.parametrize("name, edit", [
        ("predictions.jsonl", lambda data: data.replace(b'"run": 0', b'"run": 7', 1)),
        ("predictions.npy", lambda data: data[:-8] + bytes(8)),
    ])
    def test_ifc_refuses_an_imported_log_or_its_columns_edited_since(
        self, tmp_path, full_run, capsys, name, edit
    ):
        # ifc reads the columns, and still vouches for the log they came from.
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        logs = shutil.copyfile(out / "predictions.jsonl", tmp_path / "logs.jsonl")
        assert run(out, ["import-logs", "--logs", str(logs)]) == 0
        (out / name).write_bytes(edit((out / name).read_bytes()))
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["ifc"]) == 1
        assert (f"{name} differs from the file import-logs wrote; rerun import-logs"
                in capsys.readouterr().err)
        assert snapshot(out) == before

    @pytest.mark.parametrize("keep_file, message", [
        (True, "manifest.json records no lineage for predictions.npy; rerun "),
        (False, "predictions.npy; run "),
    ])
    def test_ifc_names_the_producers_of_missing_columns(
        self, tmp_path, full_run, capsys, keep_file, message
    ):
        # As in a run directory whose log was written before the columns were.
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        manifest = json.loads((out / "manifest.json").read_text())
        for entries in manifest.values():
            del entries["predictions.npy"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        if not keep_file:
            (out / "predictions.npy").unlink()
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["ifc"]) == 1
        assert message + "train-baseline or import-logs" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_plot_refuses_window_means_out_of_step_with_the_flags(
        self, tmp_path, full_run, capsys
    ):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        means = np.load(out / "window_means.npy")
        with open(out / "window_means.npy", "wb") as fh:
            np.save(fh, means[1:])
        record_edit(out, "window_means.npy")
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["plot"]) == 1
        assert (f"holds means of shape {means[1:].shape} but ifc_windows.csv holds "
                f"{len(means)} windows" in capsys.readouterr().err)
        assert snapshot(out) == before

    @pytest.mark.parametrize("damage, message", [
        ("float32", "{path} holds float32 {shape} where 2-d float64 is due"),
        ("trailing-byte", "{path} holds bytes after its last column"),
        ("truncated", "unreadable {path}: "),
    ])
    def test_plot_refuses_a_damaged_window_means_file(
        self, tmp_path, full_run, capsys, damage, message
    ):
        # Before, plot took float32 means, and ignored a trailing byte.
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        path = out / "window_means.npy"
        means, data = np.load(path), path.read_bytes()
        if damage == "float32":
            with open(path, "wb") as fh:
                np.save(fh, means.astype(np.float32))
        else:
            path.write_bytes(data + b"\0" if damage == "trailing-byte" else data[:-1])
        record_edit(out, "window_means.npy")
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["plot"]) == 1
        assert message.format(path=path, shape=means.shape) in capsys.readouterr().err
        assert snapshot(out) == before

    def test_a_plan_that_would_test_a_fold_on_its_training_windows_is_refused(
        self, tmp_path, full_run, capsys
    ):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        (out / "splits.json").write_text(swap_first_fold_ids((out / "splits.json").read_text()))
        record_edit(out, "splits.json")
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["train-baseline"]) == 1
        assert "splits.json lists fold_id 1 at position 0" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_hand_edited_windows_table_is_refused(self, tmp_path, full_run, capsys):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        (out / "windows.csv").write_text(relabel_first_window((out / "windows.csv").read_text()))
        record_edit(out, "windows.csv")
        before = snapshot(out)
        assert run(out, ["confusion"]) == 1
        err = capsys.readouterr().err
        assert "ifc_windows.csv" in err and "windows.csv" in err
        assert snapshot(out) == before

    def test_manifest_records_outside_files_by_content(self, tmp_path):
        source = tmp_path / "source"
        assert run(source, ["synth", "--subjects", "2"]) == 0
        copy = tmp_path / "elsewhere" / "other_name.csv"
        copy.parent.mkdir()
        shutil.copy(source / "recordings.csv", copy)
        manifests = []
        for out, recordings in ((tmp_path / "a", source / "recordings.csv"),
                                (tmp_path / "b", copy)):
            assert run(out, ["ingest", "--recordings", str(recordings)]) == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert str(tmp_path) not in manifests[0].decode()

    def test_config_file_values_are_recorded_and_checked(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"subjects": 2, "window_size": "100", "merge_policy": "all"}')
        out = tmp_path / "run"
        for argv in (["synth"], ["windows"]):
            assert run(out, argv + ["--config", str(config)]) == 0, argv
        meta = json.loads((out / "windows_meta.json").read_text())
        assert (meta["window_size"], meta["stride"]) == (100, 100)
        assert records_in(out)["windows.csv"]["params"]["window_size"] == 100
        import_one_hot_log(tmp_path, out, range(meta["num_windows"]))
        assert run(out, ["ifc", "--config", str(config)]) == 0
        assert json.loads((out / "ifc_summary.json").read_text())["merge_policy"] == "all"
        assert run(out, ["mask"]) == 0
        config.write_text('{"merge_policy": "any"}')
        capsys.readouterr()
        assert run(out, ["report", "--config", str(config)]) == 1
        assert "--merge-policy any disagrees with ifc_summary.json" in capsys.readouterr().err

    def test_inputs_without_a_lineage_record_are_refused(self, tmp_path, full_run, capsys):
        out = tmp_path / "run"
        shutil.copytree(full_run, out)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["lineage"]  # as a manifest from before lineage records
        (out / "manifest.json").write_text(json.dumps(manifest))
        before = snapshot(out)
        capsys.readouterr()
        assert run(out, ["train-baseline", "--epochs", "2"]) == 1
        assert "no lineage for windows_meta.json; rerun windows" in capsys.readouterr().err
        for command in ("confusion", "mask"):
            assert run(out, [command]) == 1
            assert "no lineage for" in capsys.readouterr().err
        assert snapshot(out) == before
        assert run(out, ["ingest", "--recordings", str(full_run / "recordings.csv")]) == 0
        assert run(out, ["windows"]) == 0
        assert run(out, ["split"]) == 0
        capsys.readouterr()
        assert run(out, ["confusion"]) == 1
        assert "no lineage for ifc_windows.csv; rerun ifc" in capsys.readouterr().err

    def test_command_table_names_what_each_command_writes(self, full_run):
        written = {}
        for name, record in records_in(full_run).items():
            written.setdefault(record["command"], set()).add(name)
        for command, names in written.items():
            assert names == set(COMMANDS[command][3]), command

    def test_windows_reads_only_the_runs_recordings(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["windows", "--out", str(tmp_path), "--recordings", "other.csv"])
        assert exc.value.code == 2

    def test_commands_sweep_partial_files_a_killed_command_left(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".report.json.partial").write_text("{")
        assert run(out, ["synth", "--subjects", "2"]) == 0
        assert not (out / ".report.json.partial").exists()

    def test_every_artifact_records_its_inputs_as_they_are(self, full_run):
        lineage = records_in(full_run)
        assert set(lineage) == manifest_names(full_run)
        for name, record in lineage.items():
            for source, digest in record["inputs"].items():
                actual = hashlib.sha256((full_run / source).read_bytes()).hexdigest()
                assert actual == digest, (name, source)
        assert lineage["ifc_windows.csv"]["params"] == {"merge_policy": "majority"}
        assert set(lineage["report.json"]["inputs"]) == {
            "ifc_summary.json", "windows.csv", "windows_meta.json", "ifc_windows.csv",
            "fused.jsonl", "models.json",
        }


def readme_artifacts():
    """(artifact, command) pairs of README's artifact table, and every name in it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| artifact | written by | contents |")[1].split("\n\n")[0]
    pairs, names = set(), set()
    for row in table.splitlines()[2:]:
        artifacts, commands = (re.findall(r"`([^`]+)`", cell) for cell in row.split("|")[1:3])
        names.update(artifacts)
        pairs.update((a, c) for a in artifacts for c in commands)
    return pairs, names


def test_readme_table_matches_the_manifests(tmp_path, full_run):
    out = tmp_path / "ingested"
    for argv in (
        ["ingest", "--recordings", str(full_run / "recordings.csv")], ["windows"], ["split"],
        ["import-logs", "--logs", str(full_run / "predictions.jsonl")],
        ["ifc"], ["confusion"], ["histogram"], ["mask"], ["plot"], ["report"],
    ):
        assert run(out, argv) == 0, argv
    recorded = {
        (name, record["command"])
        for run_dir in (full_run, out)
        for name, record in records_in(run_dir).items()
    }
    pairs, names = readme_artifacts()
    assert pairs == recorded
    assert names == set(snapshot(full_run)) | set(snapshot(out))
