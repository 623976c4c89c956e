from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conf_ensemble import (
    ClassifierSpec,
    ConfEnsembleError,
    DatasetParseError,
    DegenerateSubsetError,
    RuntimeConfig,
    TrainingDivergedError,
    batch_evaluate,
    cli,
    generate_blobs,
    init_model,
    load_csv,
    load_dataset,
    load_experiment_config,
    load_manifest,
    save_csv,
)
from conf_ensemble.cli import main
from conf_ensemble.errors import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DEGENERATE,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_STORAGE,
)

from conftest import (
    JSON_SCALARS,
    SWEEP_SCRIPT,
    idx_files,
    load_script,
    objective,
    set_leaf,
    write_bad_gzip_images,
    write_idx_images,
    write_idx_labels,
    write_overflowing_idx_images,
)
from oracles import artifact_digests, evaluation_csv_text, evaluation_json_text

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLE_CONFIG = README.parent / "configs" / "example_blobs.json"

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
        assert not (workdir / "degen-out").exists()

    @pytest.mark.parametrize("warnings_as_errors", [False, True],
                             ids=["default-warnings", "warnings-as-errors"])
    def test_diverged_fit_exit_code(self, workdir, capsys, warnings_as_errors):
        doc = experiment_doc()
        doc["build"]["training"]["learning_rate"] = 1e6
        config = workdir / "diverging.json"
        config.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error" if warnings_as_errors else "always")
            code = main(["build", "--config", str(config),
                         "--out", str(workdir / "diverged-out")])
        assert code == EXIT_DIVERGED
        assert caught == []  # numpy raised inside fit rather than warning
        err = capsys.readouterr().err
        assert re.search(r"^error: training diverged at level 0, epoch \d+: ", err, re.M)
        assert not (workdir / "diverged-out").exists()

    def test_final_loss_above_initial_exit_code(self, workdir, capsys):
        # At lr 50 the example's member 1 goes from 1.193 at initialisation
        # to 19.08: nothing overflows, but it ends worse than it started.
        doc = json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
        doc["build"]["training"]["learning_rate"] = 50
        config = workdir / "overshooting.json"
        config.write_text(json.dumps(doc))
        code = main(["build", "--config", str(config), "--out", str(workdir / "overshot")])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err == (
            "error: training diverged at level 1, epoch 30: "
            "final loss 19.08 exceeds initial loss 1.193\n")
        assert not (workdir / "overshot").exists()

    def test_example_members_end_below_their_initial_loss(self, workdir):
        out = workdir / "example"
        assert main(["build", "--config", str(EXAMPLE_CONFIG), "--out", str(out)]) == EXIT_OK
        cfg = load_experiment_config(EXAMPLE_CONFIG)
        data = load_dataset(cfg.dataset)
        report = json.loads((out / "build_report.json").read_text(encoding="utf-8"))
        pools = [data.all_indices()] + [
            np.loadtxt(out / "subsets" / f"level_{k}.idx", dtype=np.int64) for k in (1, 2)]
        losses = []
        for level, (pool, member) in enumerate(zip(pools, report["members"])):
            recipe = cfg.build.classifier
            spec = ClassifierSpec(recipe.kind, data.feature_dim, data.num_classes,
                                  recipe.hidden_units, recipe.seed + level)
            initial = objective(spec, init_model(spec).parameters, data.features[pool],
                                data.labels[pool], cfg.build.training.weight_decay)
            losses.append((round(initial, 3), round(member["final_loss"], 3)))
        assert losses == [(1.398, 0.137), (1.331, 0.287), (1.307, 0.243)]

    def test_out_is_required(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--config", str(workdir / "experiment.json")])
        assert exc.value.code == EXIT_CONFIG
        assert "the following arguments are required: --out" in capsys.readouterr().err

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
            ({"build.classifier.seed": -1}, "build.classifier: seed must be >= 0, got -1"),
            ({"build.training.seed": -1}, "build.training: seed must be >= 0, got -1"),
            ({"output_dir": "out"}, "unknown key config.output_dir"),
            ({"build.min_subset_size": 0}, "unknown key build.min_subset_size"),
            ({"dataset.overlapp": 0.9}, "unknown key dataset.overlapp"),
            ({"metrics": {"calibration_bins": 15}}, "unknown key config.metrics"),
            # A value its owner rejects names the block it sits in.
            ({"build.num_members": 2.5}, "build: num_members must be an integer, got 2.5"),
            ({"build.num_members": 0}, "build: num_members must be >= 1, got 0"),
            ({"build.training.epochs": 2.5},
             "build.training: epochs must be an integer, got 2.5"),
            ({"build.classifier.kind": "forest"},
             "build.classifier: unknown classifier kind 'forest'"),
            ({"build.selection_rule": "bagging"}, "build: unknown selection rule 'bagging'"),
            ({"dataset.per_class": 0}, "dataset: per_class must be >= 1, got 0"),
            ({"runtime.0.threshold": 0.7}, "runtime: runtime threshold 0.7 outside [0, 0.5]"),
        ],
        ids=["classifier-seed", "training-seed", "output-dir", "min-subset-size",
             "unknown-key", "metrics-block", "num-members", "zero-members", "epochs",
             "classifier-kind", "selection-rule", "per-class", "runtime-threshold"],
    )
    def test_config_rule_exits_before_building(self, tmp_path, capsys, edit, message):
        doc = experiment_doc()
        for path, value in edit.items():
            set_leaf(doc, [int(k) if k.isdigit() else k for k in path.split(".")], value)
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(doc))
        assert main(["build", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
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


@pytest.mark.parametrize("source, mismatch, message", [
    ("csv", {"dim": 7}, "dataset feature_dim 7 != model input_dim 3"),
    ("json", {"dim": 7}, "dataset feature_dim 7 != model input_dim 3"),
    ("json", {"num_classes": 4}, "dataset num_classes 4 != model num_classes 3"),
], ids=["csv-width", "json-width", "json-classes"])
@pytest.mark.parametrize("command", [["evaluate"], ["histograms", "--member", "1"]],
                         ids=["evaluate", "histograms"])
def test_data_that_does_not_fit_exits_before_out(built_dir, tmp_path, capsys, command,
                                                 source, mismatch, message):
    """Each command checks the --data dataset against the ensemble's
    members, a CSV or a JSON block alike, before it creates --out.  (A CSV
    takes the ensemble's class count, so a label beyond it is a data error.)"""
    block = dict(BLOBS_BLOCK, per_class=5, **mismatch)
    data = tmp_path / "data.json"
    data.write_text(json.dumps(block))
    if source == "csv":
        data = tmp_path / "data.csv"
        save_csv(generate_blobs(**{k: v for k, v in block.items() if k != "kind"}), data)
    out = tmp_path / "out"
    assert main([*command, "--ensemble", str(built_dir), "--data", str(data),
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["evaluate"], ["histograms", "--member", "1"]],
                         ids=["evaluate", "histograms"])
def test_data_of_an_unknown_kind_exits_before_out(built_dir, tmp_path, capsys, command):
    data = tmp_path / "x.txt"
    data.write_text("f0,f1,f2,label\n1.0,2.0,3.0,0\n")
    out = tmp_path / "out"
    assert main([*command, "--ensemble", str(built_dir), "--data", str(data),
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: --data must be a .csv file or a .json dataset block, got {data}\n")
    assert not out.exists()


@pytest.mark.parametrize("fault, message", [
    ("x" * 200_000 + ",2.0,3.0,0", "line 3: field larger than field limit (131072)"),
    ("1.0,2.0,3.0,99999999999999999999", "line 3: label 99999999999999999999 "),
], ids=["field-limit", "label-beyond-int64"])
@pytest.mark.parametrize("command", ["build", "evaluate"])
def test_csv_beyond_the_parser_limits_is_a_data_error(built_dir, tmp_path, capsys, command,
                                                      fault, message):
    """A cell past the csv module's field limit, or a label past int64,
    exits 3 naming its line, whether a config or --data names the CSV."""
    bad = tmp_path / "bad.csv"
    bad.write_text(f"f0,f1,f2,label\n1.0,2.0,3.0,0\n{fault}\n")
    if command == "build":
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(experiment_doc(dataset={"kind": "csv", "path": bad.name})))
        argv = ["build", "--config", str(config)]
    else:
        argv = ["evaluate", "--ensemble", str(built_dir), "--data", str(bad)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["csv", "idx"])
def test_declared_class_count_below_two_is_a_config_error(tmp_path, capsys, kind):
    """A csv or idx dataset block declaring "num_classes" 1, 0 or -3 exits
    2, as a blobs block does, even when every label is 0: the declared
    count is checked before any row is read."""
    if kind == "csv":
        (tmp_path / "zeros.csv").write_text("f0,label\n" + "1.0,0\n" * 20)
        block = {"kind": "csv", "path": "zeros.csv"}
    else:
        write_idx_images(tmp_path / "img.idx", np.zeros((20, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab.idx", np.zeros(20, dtype=np.uint8))
        block = {"kind": "idx", "images": "img.idx", "labels": "lab.idx"}
    config = tmp_path / "experiment.json"
    for count in (1, 0, -3):
        config.write_text(json.dumps(experiment_doc(dataset={**block, "num_classes": count})))
        assert main(["build", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: dataset: num_classes must be >= 2, got {count}\n")
        assert not (tmp_path / "out").exists()


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
                                RuntimeConfig.for_members((0.1,), 3, consensus=consensus),
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

    @pytest.mark.parametrize("fault", ["truncated", "corrupt", "not-gzip", "label",
                                       "size-overflow", "no-pixels"])
    def test_bad_idx_file_is_a_data_error(self, built_dir, tmp_path, capsys, fault):
        images, labels = tmp_path / "img.idx.gz", tmp_path / "lab.idx"
        if fault == "no-pixels":  # images of 0 x 3 pixels: feature width 0
            write_idx_images(images, np.zeros((30, 0, 3), dtype=np.uint8), compress=True)
            write_idx_labels(labels, np.zeros(30, dtype=np.uint8))
            bad = images
        elif fault == "label":  # the ensemble has 3 classes
            write_idx_images(images, np.zeros((3, 4, 4), dtype=np.uint8), compress=True)
            write_idx_labels(labels, np.array([0, 3, 1], dtype=np.uint8))
            bad = labels
        elif fault == "size-overflow":  # one label per image
            write_overflowing_idx_images(images)
            write_idx_labels(labels, np.zeros(2**16, dtype=np.uint8))
            bad = images
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


class TestArtifactSchemas:
    """The exact keys of each JSON artifact.  Each is its record's fields,
    so a field added to a record shows up here as a deliberate edit."""

    HISTOGRAM = {"bin_edges", "correct_counts", "incorrect_counts", "score_kind"}

    def test_build_report(self, built_dir):
        report = json.loads((built_dir / "build_report.json").read_text(encoding="utf-8"))
        assert set(report) == {"dataset_digest", "dataset_id", "members", "selection_rule",
                               "subset_sizes"}
        for member in report["members"]:
            assert set(member) == {"accuracy", "ece", "final_loss", "index_digest", "level",
                                   "loss_history", "probability_histogram", "subset_size",
                                   "train_seconds", "uncertainty_histogram"}
            assert len(member["loss_history"]) == experiment_doc()["build"]["training"]["epochs"]
            assert member["loss_history"][-1] == member["final_loss"]
            assert set(member["uncertainty_histogram"]) == self.HISTOGRAM
            assert set(member["probability_histogram"]) == self.HISTOGRAM

    def test_calibration(self, workdir, built_dir, tmp_path):
        assert main(["evaluate", "--ensemble", str(built_dir),
                     "--data", str(workdir / "data.csv"), "--out", str(tmp_path)]) == EXIT_OK
        calibration = json.loads((tmp_path / "calibration.json").read_text(encoding="utf-8"))
        assert set(calibration) == {"bins", "ece", "num_bins"}
        assert len(calibration["bins"]) == calibration["num_bins"] == 15
        for entry in calibration["bins"]:
            assert set(entry) == {"count", "fraction_correct", "mean_confidence", "weight"}

    def test_manifest(self, built_dir):
        manifest = json.loads((built_dir / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest) == {"dataset_digest", "dataset_id", "default_runtime",
                                 "format_version", "members", "selection_rule",
                                 "training_thresholds", "weights_digest", "weights_file"}
        assert set(manifest["default_runtime"]) == {"consensus", "thresholds"}
        for member in manifest["members"]:
            assert set(member) == {"hidden_units", "input_dim", "kind", "level", "num_classes",
                                   "param_count", "seed", "training_fingerprint"}


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


def tree(root: Path) -> list[str]:
    """Every file and directory under root, as sorted relative paths."""
    return sorted(path.relative_to(root).as_posix() for path in root.rglob("*"))


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
        out, fresh = workdir / "build-then-single", workdir / "single-fresh"
        assert main(["build", "--config", str(workdir / "experiment.json"),
                     "--out", str(out)]) == EXIT_OK
        assert main(["build", "--config", str(single_config), "--out", str(out)]) == EXIT_OK
        assert main(["build", "--config", str(single_config), "--out", str(fresh)]) == EXIT_OK
        # No empty subsets/ is left behind: the tree is a fresh build's.
        assert tree(out) == tree(fresh)
        report = json.loads((out / "build_report.json").read_text())
        assert report["subset_sizes"] == [3 * BLOBS_BLOCK["per_class"]]

    def test_keeps_other_files_in_subsets(self, workdir, single_config):
        out = workdir / "build-then-single-kept"
        assert main(["build", "--config", str(workdir / "experiment.json"),
                     "--out", str(out)]) == EXIT_OK
        (out / "subsets" / "notes.txt").write_text("mine")
        assert main(["build", "--config", str(single_config), "--out", str(out)]) == EXIT_OK
        assert sorted(path.name for path in (out / "subsets").iterdir()) == ["notes.txt"]

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
            bad.write_bytes(b'{"dataset": "\xff\xfe"}')
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


@pytest.mark.parametrize("path, expected", [("config", EXIT_CONFIG), ("data", EXIT_CONFIG),
                                            ("manifest", EXIT_STORAGE)])
def test_deeply_nested_json_is_a_typed_error(workdir, built_dir, tmp_path, capsys,
                                             path, expected):
    """JSON nested too deep for the parser exits with the file's code and
    one error line, not a RecursionError traceback."""
    nested = "[" * 200_000
    ensemble, data = built_dir, workdir / "data.csv"
    if path == "config":
        bad = tmp_path / "experiment.json"
        argv = ["build", "--config", str(bad), "--out", str(tmp_path / "out")]
    else:
        if path == "manifest":
            ensemble = tmp_path / "ensemble"
            shutil.copytree(built_dir, ensemble)
            bad = ensemble / "manifest.json"
        else:
            data = bad = tmp_path / "data.json"
        argv = ["evaluate", "--ensemble", str(ensemble), "--data", str(data),
                "--out", str(tmp_path / "eval")]
    bad.write_text(nested, encoding="utf-8")
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert "recursion" in err


CSV_ROWS = [b"0.1,0.2,0.3,1", b"1,2,3,0", b"-1,1e3,0.5,2", b'"1",2, 3 ,0']
CSV_PIECES = [b"0", b"1", b"2", b"0.5", b"-1", b"1e3", b"nan", b"x", b",", b'"', b" ",
              b"\n", b"\r\n", b"\xff", b"\xc3", b"\r"]


@st.composite
def csv_files(draw):
    """A CSV of up to 20 rows for the 3-feature, 3-class ensemble, after a
    header or not, with up to two pieces of a small alphabet inserted
    anywhere: numbers, commas, quotes, line ends and bytes that are not
    UTF-8."""
    header = draw(st.sampled_from([b"", b"f0,f1,f2,label\n"]))
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    content = header + b"".join(
        row + end for row in draw(st.lists(st.sampled_from(CSV_ROWS), max_size=20)))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(content)))
        content = content[:at] + draw(st.sampled_from(CSV_PIECES)) + content[at:]
    return content


@st.composite
def data_files(draw):
    """The (name, content) files of one evaluate --data, the file it names
    first: a CSV, or a JSON block naming a CSV (with a num_classes of any
    JSON type, or none) or an IDX pair of at most 4 samples."""
    kind = draw(st.sampled_from(["csv", "csv block", "idx block"]))
    if kind == "csv":
        return [("data.csv", draw(csv_files()))]
    if kind == "csv block":
        block = {"kind": "csv", "path": "rows.csv"}
        if draw(st.booleans()):
            block["num_classes"] = draw(JSON_SCALARS)
        files = [("rows.csv", draw(csv_files()))]
    else:
        (images, image_suffix), (labels, label_suffix) = draw(idx_files())
        block = {"kind": "idx", "images": "img.idx" + image_suffix,
                 "labels": "lab.idx" + label_suffix}
        files = [(block["images"], images), (block["labels"], labels)]
    return [("data.json", json.dumps(block).encode("utf-8"))] + files


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("evaluate-property")


@settings(max_examples=100, deadline=None)
@given(files=data_files())
def test_evaluate_of_generated_data_exits_with_a_documented_code(built_dir, fuzz_dir, files):
    """Whatever --data holds, evaluate succeeds or fails with a config,
    data or storage error: one ``error:`` line on stderr, and no --out."""
    directory = fuzz_dir / "example"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    for name, content in files:
        (directory / name).write_bytes(content)
    out = directory / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["evaluate", "--ensemble", str(built_dir),
                     "--data", str(directory / files[0][0]), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_STORAGE)
    if code == EXIT_OK:
        assert stderr.getvalue() == ""
        assert (out / "evaluation.csv").is_file()
    else:
        assert re.fullmatch(r"error: .*\n", stderr.getvalue())
        assert not out.exists()


def documented_exit_codes() -> dict[str, int]:
    """Error class name -> exit code, read from the README's exit-code table."""
    codes = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| `(\d)` \|[^|]*\|([^|]*)\|$", line)
        if row:
            for name in re.findall(r"`(\w+)`", row.group(2)):
                codes[name] = int(row.group(1))
    return codes


def error_classes(cls=ConfEnsembleError):
    """cls and every subclass of it, recursively."""
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


@pytest.mark.parametrize("error_class", list(error_classes()), ids=lambda cls: cls.__name__)
def test_every_error_class_exits_with_its_documented_code(error_class, monkeypatch, tmp_path):
    codes = documented_exit_codes()
    assert error_class.__name__ in codes, "error class missing from the README's exit-code table"
    assert error_class.exit_code == codes[error_class.__name__]
    if error_class is DegenerateSubsetError:
        error = DegenerateSubsetError(level=1, size=0, minimum=10)
    elif error_class is TrainingDivergedError:
        error = TrainingDivergedError(epoch=1, detail="injected", level=0)
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


def test_a_subclass_exits_with_its_parents_code(monkeypatch, tmp_path, capsys):
    class TruncatedRowError(DatasetParseError):
        pass

    def raise_error(*args, **kwargs):
        raise TruncatedRowError("injected")

    monkeypatch.setattr(cli, "load_experiment_config", raise_error)
    argv = ["build", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == "error: injected\n"
