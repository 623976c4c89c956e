from __future__ import annotations

import json

import pytest

from conf_ensemble import (
    ConfigError,
    DEFAULT_RUNTIME_THRESHOLD_GRID,
    DEFAULT_TRAINING_THRESHOLD_GRID,
    load_dataset,
    load_experiment_config,
)
from conf_ensemble.config import DatasetSource, parse_runtime_block


def minimal_doc():
    return {
        "dataset": {"kind": "blobs", "num_classes": 3, "per_class": 20,
                    "dim": 2, "spread": 1.0, "overlap": 0.3, "seed": 4},
        "build": {
            "num_members": 2,
            "training_thresholds": [0.1],
            "classifier": {"kind": "linear", "seed": 1},
            "training": {"epochs": 2, "learning_rate": 0.05},
        },
    }


def write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestExperimentConfig:
    def test_minimal_parses_with_defaults(self, tmp_path):
        cfg = load_experiment_config(write(tmp_path, minimal_doc()))
        assert cfg.num_members == 2
        assert cfg.selection_rule == "nested"
        assert cfg.training.learning_rate == 0.05
        assert cfg.training.lr_decay_gamma == 0.3
        assert cfg.training.lr_decay_every_epochs == 15
        assert cfg.training.weight_decay == 0.01
        assert cfg.calibration_bins == 15
        assert cfg.min_subset_size is None

    def test_resolves_classifier_dims_from_dataset(self, tmp_path):
        cfg = load_experiment_config(write(tmp_path, minimal_doc()))
        data = load_dataset(cfg.dataset)
        spec = cfg.classifier_spec_for(data)
        assert spec.input_dim == 2
        assert spec.num_classes == 3

    def test_runtime_scalar_broadcast(self, tmp_path):
        doc = minimal_doc()
        doc["runtime"] = [{"threshold": 0.2, "consensus": "last_member"}]
        cfg = load_experiment_config(write(tmp_path, doc))
        assert cfg.runtime_sweep[0].thresholds == (0.2, 0.2)
        assert cfg.runtime_sweep[0].consensus == "last_member"

    def test_runtime_explicit_list(self, tmp_path):
        doc = minimal_doc()
        doc["runtime"] = [{"thresholds": [0.4, 0.1]}]
        cfg = load_experiment_config(write(tmp_path, doc))
        assert cfg.runtime_sweep[0].thresholds == (0.4, 0.1)
        assert cfg.runtime_sweep[0].consensus == "most_confident"

    def test_runtime_count_checked(self, tmp_path):
        doc = minimal_doc()
        doc["runtime"] = [{"thresholds": [0.4, 0.1, 0.2]}]
        with pytest.raises(ConfigError):
            load_experiment_config(write(tmp_path, doc))

    def test_threshold_count_checked(self, tmp_path):
        doc = minimal_doc()
        doc["build"]["training_thresholds"] = [0.1, 0.2]
        with pytest.raises(ConfigError):
            load_experiment_config(write(tmp_path, doc))

    def test_threshold_range_checked(self, tmp_path):
        doc = minimal_doc()
        doc["build"]["training_thresholds"] = [0.9]
        with pytest.raises(ConfigError):
            load_experiment_config(write(tmp_path, doc))

    def test_unknown_selection_rule(self, tmp_path):
        doc = minimal_doc()
        doc["build"]["selection_rule"] = "stacking"
        with pytest.raises(ConfigError):
            load_experiment_config(write(tmp_path, doc))

    def test_unknown_classifier_kind(self, tmp_path):
        doc = minimal_doc()
        doc["build"]["classifier"]["kind"] = "forest"
        with pytest.raises(ConfigError):
            load_experiment_config(write(tmp_path, doc))

    def test_bad_training_field(self, tmp_path):
        doc = minimal_doc()
        doc["build"]["training"]["optimizer"] = "adam"
        with pytest.raises(ConfigError):
            load_experiment_config(write(tmp_path, doc))

    def test_non_integer_epochs(self, tmp_path):
        doc = minimal_doc()
        doc["build"]["training"]["epochs"] = 2.5
        with pytest.raises(ConfigError, match="epochs"):
            load_experiment_config(write(tmp_path, doc))

    def test_missing_block(self, tmp_path):
        doc = minimal_doc()
        del doc["build"]
        with pytest.raises(ConfigError, match="build"):
            load_experiment_config(write(tmp_path, doc))

    def test_csv_path_resolved_relative_to_config(self, tmp_path):
        from conf_ensemble import generate_blobs, save_csv

        save_csv(generate_blobs(num_classes=2, per_class=5, dim=2, spread=1.0,
                                overlap=0.0, seed=1), tmp_path / "d.csv")
        doc = minimal_doc()
        doc["dataset"] = {"kind": "csv", "path": "d.csv", "num_classes": 2}
        cfg = load_experiment_config(write(tmp_path, doc))
        data = load_dataset(cfg.dataset)
        assert len(data) == 10

    def test_default_grid_values(self):
        assert DEFAULT_TRAINING_THRESHOLD_GRID == (0.2, 0.1, 0.01)
        assert DEFAULT_RUNTIME_THRESHOLD_GRID == (0.4, 0.2, 0.1, 0.01)

    def test_shipped_example_config_parses(self):
        from pathlib import Path

        example = Path(__file__).resolve().parent.parent / "configs" / "example_blobs.json"
        cfg = load_experiment_config(example)
        assert cfg.num_members == 3
        assert cfg.selection_rule == "rebased"
        assert len(cfg.runtime_sweep) == 2


class TestDatasetSource:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            DatasetSource(kind="parquet")

    def test_missing_required_option(self):
        with pytest.raises(ConfigError, match="num_classes"):
            load_dataset(DatasetSource(kind="blobs", options={}))
        with pytest.raises(ConfigError, match="path"):
            load_dataset(DatasetSource(kind="csv", options={}))

    def test_blobs_deterministic(self):
        source = DatasetSource(kind="blobs", options=dict(
            num_classes=2, per_class=10, dim=2, spread=1.0, overlap=0.1, seed=3))
        assert load_dataset(source).digest() == load_dataset(source).digest()


class TestRuntimeBlock:
    def test_needs_some_threshold(self):
        with pytest.raises(ConfigError):
            parse_runtime_block({"consensus": "last_member"}, 2)
