from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conf_ensemble import (
    ConfigError,
    RuntimeConfig,
    build_ensemble,
    load_dataset,
    load_experiment_config,
)
from conf_ensemble.config import DatasetSource, parse_runtime_block

from conftest import JSON_VALUES, SWEEP_SCRIPT, json_leaves, load_script, set_leaf

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example_blobs.json"


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


# (dataset block replacing minimal_doc's or None, where the key goes, its
# path in the error message): one unknown key per kind of block.
UNKNOWN_KEYS = [
    (None, ("runtimes",), "config.runtimes"),
    (None, ("dataset", "overlapp"), "dataset.overlapp"),
    ({"kind": "csv", "path": "d.csv"}, ("dataset", "dim"), "dataset.dim"),
    ({"kind": "idx", "images": "i", "labels": "l"}, ("dataset", "path"), "dataset.path"),
    (None, ("build", "num_member"), "build.num_member"),
    (None, ("build", "classifier", "hidden"), "build.classifier.hidden"),
    (None, ("runtime", 0, "treshold"), "runtime.treshold"),
    (None, ("runtime", 0, "thresholds"), "runtime.thresholds"),
    (None, ("build", "min_subset_size"), "build.min_subset_size"),
    (None, ("build", "training", "optimiser"), "build.training.optimiser"),
    (None, ("metrics",), "config.metrics"),
    (None, ("output_dir",), "config.output_dir"),
]


def write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestExperimentConfig:
    def test_minimal_parses_with_defaults(self, tmp_path):
        cfg = load_experiment_config(write(tmp_path, minimal_doc()))
        assert cfg.build.num_members == 2
        assert cfg.build.selection_rule == "nested"
        assert cfg.build.hidden_units is None
        assert cfg.build.classifier_seed == 1
        assert cfg.build.train_config.learning_rate == 0.05
        assert cfg.build.train_config.lr_decay_gamma == 0.3
        assert cfg.build.train_config.lr_decay_every_epochs == 15
        assert cfg.build.train_config.weight_decay == 0.01

    def test_resolves_classifier_dims_from_dataset(self, tmp_path):
        cfg = load_experiment_config(write(tmp_path, minimal_doc()))
        single = replace(cfg.build, num_members=1, training_thresholds=())
        manifest, _ = build_ensemble(load_dataset(cfg.dataset), single)
        spec = manifest.members[0].spec
        assert (spec.kind, spec.input_dim, spec.num_classes, spec.seed) == ("linear", 2, 3, 1)

    def test_runtime_scalar_broadcast(self, tmp_path):
        doc = minimal_doc()
        doc["runtime"] = [{"threshold": 0.2, "consensus": "last_member"}]
        cfg = load_experiment_config(write(tmp_path, doc))
        assert cfg.runtime.thresholds == (0.2, 0.2)
        assert cfg.runtime.consensus == "last_member"

    def test_runtime_explicit_list(self, tmp_path):
        doc = minimal_doc()
        doc["runtime"] = [{"threshold": [0.4, 0.1]}]
        cfg = load_experiment_config(write(tmp_path, doc))
        assert cfg.runtime.thresholds == (0.4, 0.1)
        assert cfg.runtime.consensus == "most_confident"

    def test_runtime_count_checked(self, tmp_path):
        doc = minimal_doc()
        doc["runtime"] = [{"threshold": [0.4, 0.1, 0.2]}]
        with pytest.raises(ConfigError):
            load_experiment_config(write(tmp_path, doc))

    @pytest.mark.parametrize("consensus", ["majority", None, ["last_member"]])
    def test_runtime_consensus_checked_by_runtime_config(self, tmp_path, consensus):
        doc = minimal_doc()
        doc["runtime"] = [{"threshold": 0.2, "consensus": consensus}]
        with pytest.raises(ConfigError, match=re.escape(f"unknown consensus {consensus!r}")):
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

    def test_non_integer_epochs(self, tmp_path):
        doc = minimal_doc()
        doc["build"]["training"]["epochs"] = 2.5
        with pytest.raises(ConfigError, match="epochs"):
            load_experiment_config(write(tmp_path, doc))

    @pytest.mark.parametrize(
        "path, value",
        [
            ("build.num_members", 2.5),
            ("build.num_members", "2"),
            ("build.num_members", True),
            ("build.classifier.hidden_units", 16.9),
            ("build.classifier.seed", 2.7),
        ],
    )
    def test_integer_fields_reject_non_integers(self, tmp_path, path, value):
        doc = minimal_doc()
        set_leaf(doc, path.split("."), value)
        with pytest.raises(ConfigError, match=f"{path} must be an integer"):
            load_experiment_config(write(tmp_path, doc))

    @pytest.mark.parametrize("path", ["build.classifier.seed", "build.training.seed"])
    def test_negative_seed_fails_at_load(self, tmp_path, path):
        doc = minimal_doc()
        set_leaf(doc, path.split("."), -1)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            load_experiment_config(write(tmp_path, doc))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("build.training_thresholds", ["0.1"], "training threshold must be a finite number"),
            ("build.training_thresholds", [None], "training threshold must be a finite number"),
            ("build.training.learning_rate", float("nan"), "learning_rate must be a finite number"),
            ("build.training.lr_decay_gamma", True, "lr_decay_gamma must be a finite number"),
            ("build.training.weight_decay", "0.01", "weight_decay must be a finite number"),
            ("runtime", [{"threshold": "0.2"}], "runtime threshold must be a finite number"),
            ("runtime", [{"threshold": ["0.4", 0.1]}], "runtime threshold must be a finite number"),
            pytest.param("build.training.learning_rate", 10**400, "learning_rate must be a finite number",
                         id="build.training.learning_rate-overflowing-int"),
        ],
    )
    def test_number_fields_reject_non_numbers(self, tmp_path, path, value, message):
        doc = minimal_doc()
        set_leaf(doc, path.split("."), value)
        with pytest.raises(ConfigError, match=message):
            load_experiment_config(write(tmp_path, doc))

    @pytest.mark.parametrize("path", ["dataset", "build", "build.classifier", "build.training"],
                             ids=lambda path: path.split(".")[-1])
    def test_block_of_the_wrong_type(self, tmp_path, path):
        doc = minimal_doc()
        set_leaf(doc, path.split("."), ["num_members"])
        with pytest.raises(ConfigError, match=f"^{path} block must be an object$"):
            load_experiment_config(write(tmp_path, doc))

    def test_runtime_that_is_not_a_list(self, tmp_path):
        doc = minimal_doc()
        doc["runtime"] = {"threshold": 0.2}
        with pytest.raises(ConfigError, match="^runtime must be a list of at most one block$"):
            load_experiment_config(write(tmp_path, doc))

    def test_mlp_without_hidden_units_fails_at_load(self, tmp_path):
        doc = minimal_doc()
        doc["build"]["classifier"] = {"kind": "mlp"}
        with pytest.raises(ConfigError, match="mlp requires hidden_units >= 1"):
            load_experiment_config(write(tmp_path, doc))

    def test_no_runtime_block_leaves_the_default_to_the_builder(self, tmp_path):
        assert load_experiment_config(write(tmp_path, minimal_doc())).runtime is None

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

    def test_shipped_example_config_parses(self):
        cfg = load_experiment_config(EXAMPLE_CONFIG)
        assert cfg.build.num_members == 3
        assert cfg.build.selection_rule == "rebased"
        assert cfg.runtime == RuntimeConfig.for_members((0.2,), 3, consensus="most_confident")

        # The raw shape perfbench/run.py reads from this file.
        doc = json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
        runtime = doc["runtime"]
        assert isinstance(runtime, list)
        # A number in the sweep's grid, so that the sweep has a row to compare.
        grid = load_script(SWEEP_SCRIPT).DEFAULT_RUNTIME_THRESHOLD_GRID
        assert runtime[0]["threshold"] in grid
        assert runtime[0]["consensus"] in ("last_member", "most_confident")
        dataset = doc["dataset"]
        assert dataset["kind"] == "blobs"
        for option in ("num_classes", "per_class", "dim", "spread", "overlap"):
            assert option in dataset, option
        assert doc["build"]["num_members"] == 3
        assert doc["build"]["selection_rule"] == "rebased"

    def test_two_runtime_blocks_fail_at_load(self, tmp_path):
        doc = minimal_doc()
        doc["runtime"] = [{"threshold": 0.2}, {"threshold": 0.2, "consensus": "last_member"}]
        with pytest.raises(ConfigError, match="^runtime must be a list of at most one block$"):
            load_experiment_config(write(tmp_path, doc))

    @pytest.mark.parametrize(
        "dataset, leaf, path", UNKNOWN_KEYS, ids=[path for _, _, path in UNKNOWN_KEYS]
    )
    def test_unknown_key_fails_at_load(self, tmp_path, dataset, leaf, path):
        doc = minimal_doc()
        doc["runtime"] = [{"threshold": 0.2}]
        doc["dataset"] = dataset or doc["dataset"]
        set_leaf(doc, leaf, 1)
        with pytest.raises(ConfigError, match=f"^unknown key {path}$"):
            load_experiment_config(write(tmp_path, doc))


class TestDatasetSource:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            DatasetSource(kind="parquet")

    def test_missing_required_option(self):
        with pytest.raises(ConfigError, match="num_classes"):
            load_dataset(DatasetSource(kind="blobs", options={}))
        with pytest.raises(ConfigError, match="path"):
            load_dataset(DatasetSource(kind="csv", options={}))

    @pytest.mark.parametrize(
        "options",
        [
            dict(per_class=2.5, dim=2.9),
            dict(per_class="4"),
            dict(dim=True),
            dict(overlap=True),
            dict(seed=2.7),
            dict(spread=float("nan")),
        ],
    )
    def test_blobs_options_are_not_truncated(self, options):
        block = dict(num_classes=3, per_class=2, dim=2, spread=1.0, overlap=0.0, seed=1)
        block.update(options)
        with pytest.raises(ConfigError, match="must be"):
            load_dataset(DatasetSource(kind="blobs", options=block))

    def test_negative_blobs_seed(self):
        source = DatasetSource(kind="blobs", options=dict(num_classes=2, per_class=2, seed=-1))
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            load_dataset(source)

    def test_declared_num_classes_must_be_an_integer(self, tmp_path):
        source = DatasetSource(kind="csv", options={"path": str(tmp_path / "d.csv"),
                                                    "num_classes": 2.5})
        with pytest.raises(ConfigError, match="dataset.num_classes must be an integer"):
            load_dataset(source)

    def test_blobs_deterministic(self):
        source = DatasetSource(kind="blobs", options=dict(
            num_classes=2, per_class=10, dim=2, spread=1.0, overlap=0.1, seed=3))
        assert load_dataset(source).digest() == load_dataset(source).digest()


class TestRuntimeBlock:
    def test_needs_some_threshold(self):
        with pytest.raises(ConfigError):
            parse_runtime_block({"consensus": "last_member"}, 2)


EXAMPLE_LEAVES = list(json_leaves(json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))))


@pytest.fixture(scope="module")
def leaf_config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("leaf") / "config.json"


class TestEveryLeaf:
    """Whatever value one field of the shipped config holds, loading it and
    its dataset either succeeds or raises ConfigError."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(EXAMPLE_LEAVES), JSON_VALUES)
    def test_load_succeeds_or_raises_config_error(self, leaf_config_path, leaf, value):
        doc = json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
        set_leaf(doc, leaf, value)
        leaf_config_path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_dataset(load_experiment_config(leaf_config_path).dataset)
        except ConfigError:
            pass
