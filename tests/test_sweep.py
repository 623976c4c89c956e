"""The threshold sweep script, run on a small config and cross-checked
against the CLI commands that build, evaluate and baseline that config."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from conf_ensemble import generate_blobs, save_csv
from conf_ensemble.cli import EXIT_OK, main

from test_cli import BLOBS_BLOCK, experiment_doc

# calibration bins off the default of 15, so a sweep that ignores the
# config's setting shows up in the ECE checks
DOC = experiment_doc(metrics={"calibration_bins": 10, "histogram_bins": 10})
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_threshold_sweep.py"

_spec = importlib.util.spec_from_file_location(SCRIPT.stem, SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    (root / "experiment.json").write_text(json.dumps(DOC))
    blobs = {k: v for k, v in BLOBS_BLOCK.items() if k != "kind"}
    save_csv(generate_blobs(**blobs), root / "data.csv")
    return root


def run_sweep(workdir, name, *extra):
    out = workdir / name
    sweep.main(["--config", str(workdir / "experiment.json"), "--out", str(out), *extra])
    return json.loads((out / "sweep.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def swept(workdir):
    return run_sweep(workdir, "sweep")


def test_one_row_per_ensemble_threshold_and_consensus(swept):
    assert len(swept["results"]) == 32
    assert set(swept["subset_sizes"]) == {
        "2member-tt0.2", "2member-tt0.1", "2member-tt0.01", "3member-rebased",
    }
    assert swept["dataset"].endswith(f"-s{BLOBS_BLOCK['seed']}")


def test_full_chain_row_matches_build_and_evaluate(workdir, swept):
    ensemble, scored = workdir / "ensemble", workdir / "evaluated"
    assert main(["build", "--config", str(workdir / "experiment.json"),
                 "--out", str(ensemble)]) == EXIT_OK
    # no --runtime-thresholds/--consensus: the config's first runtime block
    assert main(["evaluate", "--ensemble", str(ensemble), "--data", str(workdir / "data.csv"),
                 "--calibration-bins", "10", "--out", str(scored)]) == EXIT_OK
    runtime = DOC["runtime"][0]
    row = next(r for r in swept["results"] if r["ensemble"] == "3member-rebased"
               and r["runtime_threshold"] == runtime["threshold"]
               and r["consensus"] == runtime["consensus"])
    evaluation = json.loads((scored / "evaluation.json").read_text(encoding="utf-8"))
    calibration = json.loads((scored / "calibration.json").read_text(encoding="utf-8"))
    assert row["accuracy"] == evaluation["accuracy"]
    assert row["ece"] == calibration["ece"]


def test_baseline_matches_baseline_command(workdir, swept):
    out = workdir / "baseline"
    assert main(["baseline", "--config", str(workdir / "experiment.json"),
                 "--out", str(out)]) == EXIT_OK
    baseline = json.loads((out / "baseline.json").read_text(encoding="utf-8"))
    assert swept["baseline"] == {"accuracy": baseline["accuracy"], "ece": baseline["ece"]}


def test_seed_replaces_the_blobs_seed(workdir, swept):
    reseeded = run_sweep(workdir, "sweep-s7", "--seed", "7")
    assert reseeded["dataset"] == swept["dataset"].replace(f"-s{BLOBS_BLOCK['seed']}", "-s7")


def test_seed_is_rejected_for_a_csv_dataset(workdir, capsys):
    doc = experiment_doc(dataset={"kind": "csv", "path": "data.csv"})
    config = workdir / "csv.json"
    config.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        sweep.main(["--config", str(config), "--seed", "7", "--out", str(workdir / "csv")])
    assert exc.value.code == 2
    assert "--seed needs a blobs dataset" in capsys.readouterr().err
    assert not (workdir / "csv").exists()
