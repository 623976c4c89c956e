"""The threshold sweep script, run on a small config and cross-checked
against the CLI commands that build and evaluate that config."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conf_ensemble import generate_blobs, save_csv
from conf_ensemble.cli import EXIT_CONFIG, EXIT_OK, main

from conftest import ROOT, SWEEP_SCRIPT, load_script
from test_cli import BLOBS_BLOCK, experiment_doc

DOC = experiment_doc()
sweep = load_script(SWEEP_SCRIPT)


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
                 "--out", str(scored)]) == EXIT_OK
    runtime = DOC["runtime"][0]
    row = next(r for r in swept["results"] if r["ensemble"] == "3member-rebased"
               and r["runtime_threshold"] == runtime["threshold"]
               and r["consensus"] == runtime["consensus"])
    evaluation = json.loads((scored / "evaluation.json").read_text(encoding="utf-8"))
    calibration = json.loads((scored / "calibration.json").read_text(encoding="utf-8"))
    assert row["accuracy"] == evaluation["accuracy"]
    assert row["ece"] == calibration["ece"]


def test_baseline_matches_baseline_command(workdir, swept):
    # The baseline is member 0 of the full chain, as `build` reports it.
    out = workdir / "full-chain"
    assert main(["build", "--config", str(workdir / "experiment.json"),
                 "--out", str(out)]) == EXIT_OK
    member0 = json.loads((out / "build_report.json").read_text(encoding="utf-8"))["members"][0]
    assert swept["baseline"] == {"accuracy": member0["accuracy"], "ece": member0["ece"]}


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


def test_library_error_exits_with_its_code_and_no_traceback(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, str(SWEEP_SCRIPT), "--seed", "-1", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == EXIT_CONFIG
    assert result.stderr == "error: bad dataset option: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()
