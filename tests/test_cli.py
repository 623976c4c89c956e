from __future__ import annotations

import csv
import json
import shutil

import pytest

from conf_ensemble import generate_blobs, save_csv
from conf_ensemble.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_STORAGE,
    main,
)
from conf_ensemble.persist import artifact_digests

BLOBS_BLOCK = {
    "kind": "blobs",
    "num_classes": 3,
    "per_class": 300,
    "dim": 3,
    "spread": 1.0,
    "overlap": 0.5,
    "seed": 17,
}


def experiment_doc(**overrides):
    doc = {
        "dataset": dict(BLOBS_BLOCK),
        "build": {
            "num_members": 3,
            "selection_rule": "rebased",
            "training_thresholds": [0.01, 0.01],
            "classifier": {"kind": "mlp", "hidden_units": 8, "seed": 2},
            "training": {
                "epochs": 10,
                "batch_size": 64,
                "learning_rate": 0.05,
                "weight_decay": 0.0001,
                "seed": 3,
            },
        },
        "runtime": [{"threshold": 0.2, "consensus": "most_confident"}],
        "metrics": {"calibration_bins": 15, "histogram_bins": 10},
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "experiment.json"
    config.write_text(json.dumps(experiment_doc()))
    data_csv = root / "data.csv"
    save_csv(generate_blobs(**{k: BLOBS_BLOCK[k] for k in
                               ("num_classes", "per_class", "dim", "spread",
                                "overlap", "seed")}), data_csv)
    return root


@pytest.fixture(scope="module")
def built_dir(workdir):
    out = workdir / "ensemble"
    assert main(["build", "--config", str(workdir / "experiment.json"),
                 "--out", str(out)]) == EXIT_OK
    return out


class TestBuildCommand:
    def test_artifacts_exist(self, built_dir):
        assert (built_dir / "manifest.json").is_file()
        assert (built_dir / "weights.bin").is_file()
        assert (built_dir / "build_report.json").is_file()
        assert (built_dir / "subsets" / "level_1.idx").is_file()
        assert (built_dir / "subsets" / "level_2.idx").is_file()

    def test_subset_files_are_newline_delimited_ints(self, built_dir):
        lines = (built_dir / "subsets" / "level_1.idx").read_text().splitlines()
        assert lines
        assert all(line.isdigit() for line in lines)

    def test_rerun_is_byte_identical(self, workdir, built_dir):
        again = workdir / "ensemble-again"
        assert main(["build", "--config", str(workdir / "experiment.json"),
                     "--out", str(again)]) == EXIT_OK
        assert artifact_digests(built_dir) == artifact_digests(again)

    def test_shorter_rebuild_removes_stale_subsets(self, workdir):
        out = workdir / "rebuilt"
        assert main(["build", "--config", str(workdir / "experiment.json"),
                     "--out", str(out)]) == EXIT_OK
        assert (out / "subsets" / "level_2.idx").is_file()
        doc = experiment_doc()
        doc["build"]["num_members"] = 2
        doc["build"]["training_thresholds"] = [0.01]
        config = workdir / "two-member.json"
        config.write_text(json.dumps(doc))
        assert main(["build", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in (out / "subsets").iterdir()) == ["level_1.idx"]

    def test_degenerate_threshold_exit_code(self, workdir, capsys):
        doc = experiment_doc()
        doc["build"]["num_members"] = 2
        doc["build"]["training_thresholds"] = [0.5]
        config = workdir / "degenerate.json"
        config.write_text(json.dumps(doc))
        code = main(["build", "--config", str(config),
                     "--out", str(workdir / "degen-out")])
        assert code == EXIT_DEGENERATE
        assert "level 1" in capsys.readouterr().err

    def test_bad_json_exit_code(self, workdir):
        config = workdir / "broken.json"
        config.write_text("{not json")
        assert main(["build", "--config", str(config),
                     "--out", str(workdir / "x")]) == EXIT_CONFIG

    def test_missing_config_is_storage_error(self, workdir):
        assert main(["build", "--config", str(workdir / "absent.json"),
                     "--out", str(workdir / "x")]) == EXIT_STORAGE

    def test_invalid_threshold_count(self, workdir):
        doc = experiment_doc()
        doc["build"]["training_thresholds"] = [0.1]
        config = workdir / "badcount.json"
        config.write_text(json.dumps(doc))
        assert main(["build", "--config", str(config),
                     "--out", str(workdir / "x")]) == EXIT_CONFIG


class TestEvaluateCommand:
    def test_writes_all_artifacts(self, workdir, built_dir):
        out = workdir / "eval"
        code = main(["evaluate", "--ensemble", str(built_dir),
                     "--data", str(workdir / "data.csv"),
                     "--runtime-thresholds", "0.2",
                     "--consensus", "most_confident",
                     "--out", str(out)])
        assert code == EXIT_OK
        for name in ("evaluation.json", "evaluation.csv",
                     "calibration.json", "utilization.json"):
            assert (out / name).is_file()
        util = json.loads((out / "utilization.json").read_text())
        assert util["num_samples"] == 900
        assert sum(util["level_counts"]) + util["consensus_count"] == 900

    def test_threshold_grid_sweep(self, workdir, built_dir):
        accuracies = {}
        for t in (0.4, 0.2, 0.1, 0.01):
            out = workdir / f"sweep-{t}"
            code = main(["evaluate", "--ensemble", str(built_dir),
                         "--data", str(workdir / "data.csv"),
                         "--runtime-thresholds", str(t),
                         "--out", str(out)])
            assert code == EXIT_OK
            doc = json.loads((out / "evaluation.json").read_text())
            accuracies[t] = doc["accuracy"]
        assert len(accuracies) == 4

    def test_consensus_flags_differ_only_on_consensus_rows(self, workdir, built_dir):
        rows = {}
        for consensus in ("last_member", "most_confident"):
            out = workdir / f"eval-{consensus}"
            assert main(["evaluate", "--ensemble", str(built_dir),
                         "--data", str(workdir / "data.csv"),
                         "--runtime-thresholds", "0.05",
                         "--consensus", consensus,
                         "--out", str(out)]) == EXIT_OK
            with open(out / "evaluation.csv", newline="") as fh:
                rows[consensus] = list(csv.DictReader(fh))
        for a, b in zip(rows["last_member"], rows["most_confident"]):
            assert a["answering_level"] == b["answering_level"]
            if a["answering_level"] != "consensus":
                assert a == b

    def test_dimension_mismatch_fails(self, workdir, built_dir):
        bad = workdir / "bad_dim.csv"
        save_csv(generate_blobs(num_classes=3, per_class=5, dim=7, spread=1.0,
                                overlap=0.0, seed=1), bad)
        code = main(["evaluate", "--ensemble", str(built_dir),
                     "--data", str(bad), "--out", str(workdir / "x")])
        assert code != EXIT_OK

    def test_json_dataset_block_source(self, workdir, built_dir):
        block = workdir / "data_block.json"
        block.write_text(json.dumps(BLOBS_BLOCK))
        out = workdir / "eval-json-src"
        assert main(["evaluate", "--ensemble", str(built_dir),
                     "--data", str(block), "--out", str(out)]) == EXIT_OK

    def test_unreadable_ensemble_dir(self, workdir):
        code = main(["evaluate", "--ensemble", str(workdir / "no-ensemble"),
                     "--data", str(workdir / "data.csv"),
                     "--out", str(workdir / "x")])
        assert code == EXIT_STORAGE


class TestHistogramsCommand:
    def test_writes_both_kinds_with_full_counts(self, workdir, built_dir):
        out = workdir / "hists"
        assert main(["histograms", "--ensemble", str(built_dir),
                     "--data", str(workdir / "data.csv"),
                     "--member", "0", "--out", str(out)]) == EXIT_OK
        totals = []
        for kind in ("uncertainty", "top_probability"):
            path = out / f"member0_{kind}_hist.csv"
            assert path.is_file()
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            totals.append(sum(int(r["correct"]) + int(r["incorrect"]) for r in rows))
        assert totals == [900, 900]

    def test_rerun_identical(self, workdir, built_dir):
        out1 = workdir / "hists-a"
        out2 = workdir / "hists-b"
        for out in (out1, out2):
            assert main(["histograms", "--ensemble", str(built_dir),
                         "--data", str(workdir / "data.csv"),
                         "--member", "1", "--out", str(out)]) == EXIT_OK
        for kind in ("uncertainty", "top_probability"):
            name = f"member1_{kind}_hist.csv"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_member_index(self, workdir, built_dir):
        code = main(["histograms", "--ensemble", str(built_dir),
                     "--data", str(workdir / "data.csv"),
                     "--member", "9", "--out", str(workdir / "x")])
        assert code == EXIT_CONFIG


class TestBaselineCommand:
    def test_matches_single_member_evaluation(self, workdir):
        doc = experiment_doc()
        doc["build"]["num_members"] = 1
        doc["build"]["training_thresholds"] = []
        doc["runtime"] = [{"threshold": 0.2}]
        config = workdir / "single.json"
        config.write_text(json.dumps(doc))

        base_out = workdir / "baseline"
        assert main(["baseline", "--config", str(config),
                     "--out", str(base_out)]) == EXIT_OK
        baseline = json.loads((base_out / "baseline.json").read_text())

        build_out = workdir / "single-ensemble"
        assert main(["build", "--config", str(config),
                     "--out", str(build_out)]) == EXIT_OK
        eval_out = workdir / "single-eval"
        assert main(["evaluate", "--ensemble", str(build_out),
                     "--data", str(workdir / "data.csv"),
                     "--runtime-thresholds", "0.3",
                     "--out", str(eval_out)]) == EXIT_OK
        evaluation = json.loads((eval_out / "evaluation.json").read_text())
        assert evaluation["accuracy"] == baseline["accuracy"]

    def test_malformed_data_csv(self, workdir, built_dir):
        bad = workdir / "malformed.csv"
        bad.write_text("f0,f1,f2,label\n1.0,2.0,oops,0\n")
        code = main(["evaluate", "--ensemble", str(built_dir),
                     "--data", str(bad), "--out", str(workdir / "x")])
        assert code == EXIT_DATA


class TestFileBoundaryErrors:
    """Undecodable or malformed files exit with their typed code, naming the file."""

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("config_not_utf8", EXIT_CONFIG),
            ("manifest_not_utf8", EXIT_STORAGE),
            ("csv_not_utf8", EXIT_DATA),
            ("data_json_malformed", EXIT_CONFIG),
        ],
    )
    def test_exit_code(self, workdir, built_dir, tmp_path, capsys, case, expected):
        ensemble, data = built_dir, workdir / "data.csv"
        if case == "config_not_utf8":
            bad = tmp_path / "experiment.json"
            bad.write_bytes(b'{"output_dir": "\xff\xfe"}')
            argv = ["build", "--config", str(bad), "--out", str(tmp_path / "out")]
        else:
            if case == "manifest_not_utf8":
                ensemble = tmp_path / "ensemble"
                shutil.copytree(built_dir, ensemble)
                bad = ensemble / "manifest.json"
                bad.write_bytes(b'{"format_version": "\xff\xfe"}')
            elif case == "csv_not_utf8":
                data = bad = tmp_path / "data.csv"
                bad.write_bytes(b"f0,f1,f2,label\n1.0,2.0,\xff,0\n")
            else:
                data = bad = tmp_path / "data.json"
                bad.write_text('{"kind": "blobs",')
            argv = ["evaluate", "--ensemble", str(ensemble), "--data", str(data),
                    "--out", str(tmp_path / "eval")]
        assert main(argv) == expected
        assert str(bad) in capsys.readouterr().err
