from __future__ import annotations

import csv
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from conf_ensemble import (
    ConfEnsembleError,
    DegenerateSubsetError,
    RuntimeConfig,
    batch_evaluate,
    cli,
    generate_blobs,
    load_csv,
    load_manifest,
    save_csv,
)
from conf_ensemble.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_STORAGE,
    main,
)

from conftest import (
    SWEEP_SCRIPT,
    load_script,
    set_leaf,
    write_bad_gzip_images,
    write_idx_images,
    write_idx_labels,
)
from oracles import artifact_digests, evaluation_csv_text, evaluation_json_text

README = Path(__file__).resolve().parent.parent / "README.md"

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

    def test_non_integer_member_count(self, workdir, capsys):
        doc = experiment_doc()
        doc["build"]["num_members"] = 2.5  # was silently truncated to 2
        doc["build"]["training_thresholds"] = [0.01]
        config = workdir / "fractional.json"
        config.write_text(json.dumps(doc))
        assert main(["build", "--config", str(config),
                     "--out", str(workdir / "x")]) == EXIT_CONFIG
        assert "num_members must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            {"training_thresholds": ["0.01", "0.01"]},
            {"training_thresholds": [0.01, None]},
            {"runtime": [{"threshold": "0.2"}]},
        ],
        ids=["string-training-thresholds", "null-training-threshold", "string-runtime"],
    )
    def test_non_number_thresholds(self, tmp_path, capsys, edit):
        doc = experiment_doc()
        if "runtime" in edit:
            doc.update(edit)
        else:
            doc["build"].update(edit)
        config = tmp_path / "strings.json"
        config.write_text(json.dumps(doc))
        assert main(["build", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "threshold must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"build.classifier.seed": -1}, "seed must be >= 0"),
            ({"build.training.seed": -1}, "seed must be >= 0"),
            ({"output_dir": 5}, "output_dir must be a string"),
            ({"build.min_subset_size": 0}, "unknown key build.min_subset_size"),
            ({"dataset.overlapp": 0.9}, "unknown key dataset.overlapp"),
            ({"metrics": {"calibration_bins": 15}}, "unknown key config.metrics"),
        ],
        ids=["classifier-seed", "training-seed", "output-dir", "min-subset-size",
             "unknown-key", "metrics-block"],
    )
    def test_config_rule_exits_before_building(self, tmp_path, capsys, edit, message):
        doc = experiment_doc(output_dir=str(tmp_path / "out"))
        for path, value in edit.items():
            set_leaf(doc, path.split("."), value)
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(doc))
        assert main(["build", "--config", str(config)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_threshold_count(self, workdir):
        doc = experiment_doc()
        doc["build"]["training_thresholds"] = [0.1]
        config = workdir / "badcount.json"
        config.write_text(json.dumps(doc))
        assert main(["build", "--config", str(config),
                     "--out", str(workdir / "x")]) == EXIT_CONFIG


@pytest.mark.parametrize("command, option", [(["evaluate"], "--calibration-bins"),
                                              (["histograms", "--member", "0"], "--bins")],
                         ids=["evaluate", "histograms"])
def test_bin_counts_are_not_options(workdir, built_dir, capsys, command, option):
    # Every report bins with the metrics module's fixed counts.
    with pytest.raises(SystemExit) as exc:
        main([*command, "--ensemble", str(built_dir), "--data", str(workdir / "data.csv"),
              option, "10", "--out", str(workdir / "x")])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {option} 10" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["evaluate"], ["histograms", "--member", "0"]],
                         ids=["evaluate", "histograms"])
def test_class_count_mismatch_fails(built_dir, tmp_path, capsys, command):
    block = tmp_path / "four_classes.json"
    block.write_text(json.dumps(dict(BLOBS_BLOCK, num_classes=4)))
    out = tmp_path / "out"
    assert main([*command, "--ensemble", str(built_dir), "--data", str(block),
                 "--out", str(out)]) == EXIT_CONFIG
    assert "dataset num_classes 4 != ensemble num_classes 3" in capsys.readouterr().err
    assert not out.exists()


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

    @pytest.mark.parametrize("consensus", ["last_member", "most_confident"])
    def test_per_sample_artifacts_match_the_oracle(self, workdir, built_dir, consensus):
        data_csv = workdir / "heldout.csv"
        save_csv(generate_blobs(num_classes=3, per_class=1000, dim=3, spread=1.0,
                                overlap=0.5, seed=18), data_csv)
        out = workdir / f"eval-oracle-{consensus}"
        assert main(["evaluate", "--ensemble", str(built_dir), "--data", str(data_csv),
                     "--runtime-thresholds", "0.1", "--consensus", consensus,
                     "--out", str(out)]) == EXIT_OK
        record = batch_evaluate(load_manifest(built_dir),
                                RuntimeConfig.for_members((0.1,), 3, consensus),
                                load_csv(data_csv, num_classes=3))
        assert set(record.level.tolist()) == {-1, 0, 1, 2}  # every kind of row
        assert (out / "evaluation.json").read_bytes() == \
            evaluation_json_text(record).encode("utf-8")
        assert (out / "evaluation.csv").read_bytes() == \
            evaluation_csv_text(record).encode("utf-8")

    @pytest.mark.parametrize("text", ["0.01,", ",0.01", "0.2,,0.1", " ", ""])
    def test_empty_threshold_field_fails(self, workdir, built_dir, tmp_path, capsys, text):
        assert main(["evaluate", "--ensemble", str(built_dir),
                     "--data", str(workdir / "data.csv"), "--runtime-thresholds", text,
                     "--out", str(tmp_path / "eval")]) == EXIT_CONFIG
        assert f"bad --runtime-thresholds {text!r}" in capsys.readouterr().err

    def test_runtime_thresholds_one_per_level(self, workdir, built_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", "--ensemble", str(built_dir),
                     "--data", str(workdir / "data.csv"), "--runtime-thresholds", "0.3,0.1,0",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "evaluation.json").read_text())
        assert doc["thresholds"] == [0.3, 0.1, 0.0]

    def test_runtime_threshold_count_checked(self, workdir, built_dir, tmp_path, capsys):
        assert main(["evaluate", "--ensemble", str(built_dir),
                     "--data", str(workdir / "data.csv"), "--runtime-thresholds", "0.2,0.1",
                     "--out", str(tmp_path / "eval")]) == EXIT_CONFIG
        assert "2 runtime thresholds for 3 members" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["csv", "json"])
    def test_non_finite_feature_is_a_data_error(self, built_dir, tmp_path, capsys, source):
        bad = tmp_path / "nan.csv"
        bad.write_text("f0,f1,f2,label\n1.0,2.0,3.0,0\n\n1.0,nan,3.0,1\n")
        data = bad
        if source == "json":
            data = tmp_path / "nan.json"
            data.write_text(json.dumps({"kind": "csv", "path": "nan.csv"}))
        assert main(["evaluate", "--ensemble", str(built_dir), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == EXIT_DATA
        assert f"{bad}: line 4: non-finite feature nan in column 'f1'" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["truncated", "corrupt", "not-gzip", "label"])
    def test_bad_idx_file_is_a_data_error(self, built_dir, tmp_path, capsys, fault):
        images, labels = tmp_path / "img.idx.gz", tmp_path / "lab.idx"
        if fault == "label":  # the ensemble has 3 classes
            write_idx_images(images, np.zeros((3, 4, 4), dtype=np.uint8), compress=True)
            write_idx_labels(labels, np.array([0, 3, 1], dtype=np.uint8))
            bad = labels
        else:
            write_bad_gzip_images(images, fault)
            write_idx_labels(labels, np.zeros(3, dtype=np.uint8))
            bad = images
        block = tmp_path / "idx.json"
        block.write_text(json.dumps({"kind": "idx", "images": images.name,
                                     "labels": labels.name}))
        assert main(["evaluate", "--ensemble", str(built_dir), "--data", str(block),
                     "--out", str(tmp_path / "eval")]) == EXIT_DATA
        assert f"error: {bad}: " in capsys.readouterr().err

    def test_dimension_mismatch_fails(self, workdir, built_dir):
        bad = workdir / "bad_dim.csv"
        save_csv(generate_blobs(num_classes=3, per_class=5, dim=7, spread=1.0,
                                overlap=0.0, seed=1), bad)
        code = main(["evaluate", "--ensemble", str(built_dir),
                     "--data", str(bad), "--out", str(workdir / "x")])
        assert code == EXIT_CONFIG

    def test_json_dataset_block_source(self, workdir, built_dir):
        block = workdir / "data_block.json"
        block.write_text(json.dumps(BLOBS_BLOCK))
        out = workdir / "eval-json-src"
        assert main(["evaluate", "--ensemble", str(built_dir),
                     "--data", str(block), "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize(
        "block",
        [dict(BLOBS_BLOCK, per_class=2.5), {"kind": "csv", "path": 5},
         dict(BLOBS_BLOCK, overlapp=0.9), {"kind": ["blobs"]}],
        ids=["fractional-per-class", "numeric-path", "unknown-option", "list-kind"],
    )
    def test_bad_json_dataset_option(self, built_dir, tmp_path, block):
        block_path = tmp_path / "data_block.json"
        block_path.write_text(json.dumps(block))
        assert main(["evaluate", "--ensemble", str(built_dir), "--data", str(block_path),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "thresholds", [["x", None], [0.9, -3], ["0.01", "0.01"]], ids=str
    )
    def test_stored_thresholds_must_be_numbers_in_range(
        self, workdir, built_dir, tmp_path, thresholds
    ):
        ensemble = tmp_path / "ensemble"
        shutil.copytree(built_dir, ensemble)
        manifest_path = ensemble / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["training_thresholds"] = thresholds
        manifest_path.write_text(json.dumps(doc))
        assert main(["evaluate", "--ensemble", str(ensemble),
                     "--data", str(workdir / "data.csv"),
                     "--out", str(tmp_path / "eval")]) == EXIT_STORAGE

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

    def test_dimension_mismatch_fails(self, workdir, built_dir):
        bad = workdir / "bad_dim_hist.csv"
        save_csv(generate_blobs(num_classes=3, per_class=5, dim=7, spread=1.0,
                                overlap=0.0, seed=1), bad)
        code = main(["histograms", "--ensemble", str(built_dir), "--data", str(bad),
                     "--member", "1", "--out", str(workdir / "x")])
        assert code == EXIT_CONFIG

    def test_bad_member_index(self, workdir, built_dir):
        code = main(["histograms", "--ensemble", str(built_dir),
                     "--data", str(workdir / "data.csv"),
                     "--member", "9", "--out", str(workdir / "x")])
        assert code == EXIT_CONFIG


class TestBaselineCommand:
    """The single-model baseline is member 0 of a build: a one-member build
    stores it, and every build report scores it."""

    @pytest.fixture
    def single_config(self, workdir):
        doc = experiment_doc()
        doc["build"]["num_members"] = 1
        doc["build"]["training_thresholds"] = []
        config = workdir / "single.json"
        config.write_text(json.dumps(doc))
        return config

    def test_matches_single_member_evaluation(self, workdir, single_config):
        build_out = workdir / "single-ensemble"
        assert main(["build", "--config", str(single_config),
                     "--out", str(build_out)]) == EXIT_OK
        report = json.loads((build_out / "build_report.json").read_text())
        eval_out = workdir / "single-eval"
        assert main(["evaluate", "--ensemble", str(build_out),
                     "--data", str(workdir / "data.csv"),
                     "--runtime-thresholds", "0.3",
                     "--out", str(eval_out)]) == EXIT_OK
        evaluation = json.loads((eval_out / "evaluation.json").read_text())
        assert evaluation["accuracy"] == report["members"][0]["accuracy"]

    def test_replaces_the_ensemble_in_its_directory(self, workdir, single_config):
        out = workdir / "build-then-single"
        assert main(["build", "--config", str(workdir / "experiment.json"),
                     "--out", str(out)]) == EXIT_OK
        assert main(["build", "--config", str(single_config), "--out", str(out)]) == EXIT_OK
        assert list((out / "subsets").glob("level_*.idx")) == []
        report = json.loads((out / "build_report.json").read_text())
        assert report["subset_sizes"] == [3 * BLOBS_BLOCK["per_class"]]

    def test_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "--config", "experiment.json"])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice: 'baseline'" in capsys.readouterr().err

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


def documented_exit_codes() -> dict[str, int]:
    """Error class name -> exit code, read from the README's exit-code table."""
    codes = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| `(\d)` \|[^|]*\|([^|]*)\|$", line)
        if row:
            for name in re.findall(r"`(\w+)`", row.group(2)):
                codes[name] = int(row.group(1))
    return codes


@pytest.mark.parametrize(
    "error_class", ConfEnsembleError.__subclasses__(), ids=lambda cls: cls.__name__
)
def test_every_error_class_exits_with_its_documented_code(error_class, monkeypatch, tmp_path):
    codes = documented_exit_codes()
    assert error_class.__name__ in codes, "error class missing from the README's exit-code table"
    if error_class is DegenerateSubsetError:
        error = DegenerateSubsetError(level=1, size=0, minimum=10)
    else:
        error = error_class("injected")

    def raise_error(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "load_experiment_config", raise_error)
    argv = ["build", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
    assert main(argv) == codes[error_class.__name__]

    # The sweep script's entry point maps errors the same way.
    sweep = load_script(SWEEP_SCRIPT)
    monkeypatch.setattr(sweep, "load_experiment_config", raise_error)
    argv = ["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "sweep")]
    assert cli.run_with_exit_codes(sweep.main, argv) == codes[error_class.__name__]
