"""The threshold sweep script, run on a small config and cross-checked
against the CLI commands that build and evaluate that config."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from conf_ensemble import (
    ScoreMemo,
    build_ensemble,
    generate_blobs,
    load_dataset,
    load_experiment_config,
    save_csv,
    save_manifest,
)
from conf_ensemble import cascade
from conf_ensemble.cli import main, run_with_exit_codes
from conf_ensemble.errors import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_OK

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


def test_default_grid_values():
    # perfbench's SWEEP_RESULT_ROWS = 32 counts the rows these grids give.
    assert sweep.DEFAULT_TRAINING_THRESHOLD_GRID == (0.2, 0.1, 0.01)
    assert sweep.DEFAULT_RUNTIME_THRESHOLD_GRID == (0.4, 0.2, 0.1, 0.01)


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
    assert result.stderr == "error: dataset: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_failed_build_leaves_no_out(tmp_path, capsys):
    doc = json.loads(sweep.EXAMPLE_CONFIG.read_text(encoding="utf-8"))
    doc["build"]["training_thresholds"] = [0.5, 0.5]  # no U lies above 0.5
    config = tmp_path / "degenerate.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_with_exit_codes(sweep.main, ["--config", str(config),
                                            "--out", str(out)]) == EXIT_DEGENERATE
    assert "training subset at level 1 has 0 samples" in capsys.readouterr().err
    assert not out.exists()


def report_without_times(report):
    """report with each member's wall time zeroed; what is left is what
    build_report.json holds besides the times."""
    return replace(report, members=tuple(replace(m, train_seconds=0.0)
                                         for m in report.members))


def test_cached_builds_match_uncached_builds(workdir, tmp_path):
    cfg = load_experiment_config(workdir / "experiment.json")
    data = load_dataset(cfg.dataset)
    scored = ScoreMemo()
    for name, build in sweep.sweep_builds(cfg.build).items():
        cached, cached_report = build_ensemble(data, build, scored=scored)
        fresh, fresh_report = build_ensemble(data, build)
        weights = [save_manifest(m, tmp_path / name / kind) / "weights.bin"
                   for m, kind in ((cached, "cached"), (fresh, "fresh"))]
        assert weights[0].read_bytes() == weights[1].read_bytes()
        assert ([m.training_fingerprint for m in cached.members]
                == [m.training_fingerprint for m in fresh.members])
        assert report_without_times(cached_report) == report_without_times(fresh_report)
    # member 0 is shared by all four builds, level 1 by tt0.01 and the
    # rebased chain (the rules coincide there)
    assert len(scored.members) == 5
    assert all(model.training_fingerprint == key for key, model in scored.members.items())


def test_each_invocation_trains_each_distinct_member_once(workdir, fitted):
    first = run_sweep(workdir, "counted-1")
    assert len(fitted) == 5
    # A second invocation in the same process trains them all again: the
    # cache lives for one main() call only.
    assert run_sweep(workdir, "counted-2") == first
    assert len(fitted) == 10


def test_rows_match_memo_free_evaluations(workdir, swept):
    # The sweep shares one ScoreMemo; every row, accuracy and ECE included,
    # must be what a memo-free batch_evaluate of its ensemble gives.
    cfg = load_experiment_config(workdir / "experiment.json")
    data = load_dataset(cfg.dataset)
    scored = ScoreMemo()
    expected = []
    for name, build in sweep.sweep_builds(cfg.build).items():
        manifest, _ = build_ensemble(data, build, scored=scored)
        expected += sweep.evaluate_grid(name, manifest, data, None)
    assert swept["results"] == expected


def test_memo_runs_only_memo_free_passes(tmp_path, monkeypatch):
    """The example sweep at its seed, with and without the memo: the memo
    run makes one all-rows pass per distinct member, each one the
    memo-free run makes too, and the outputs are byte-identical, although
    the memo serves every cascade level from those passes."""
    passes = []
    real = cascade.member_prediction_arrays

    def spy(member, features):
        passes.append((hashlib.sha256(member.parameters.tobytes()).hexdigest(),
                       hashlib.sha256(features.tobytes()).hexdigest(), len(features)))
        return real(member, features)

    monkeypatch.setattr(cascade, "member_prediction_arrays", spy)
    sweep.main(["--out", str(tmp_path / "memo")])
    memo, passes[:] = list(passes), []
    monkeypatch.setattr(sweep, "ScoreMemo", lambda: None)
    sweep.main(["--out", str(tmp_path / "memo-free")])
    free = list(passes)

    assert (len(memo), sum(rows for *_, rows in memo)) == (5, 15_000)
    assert (len(free), sum(rows for *_, rows in free)) == (81, 144_732)
    assert set(memo) <= set(free)
    for name in ("sweep.json", "sweep.csv"):
        assert (tmp_path / "memo" / name).read_bytes() == \
            (tmp_path / "memo-free" / name).read_bytes()
