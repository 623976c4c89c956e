"""Experiment configuration: a single JSON file drives a whole run.

Layout (paths resolved relative to the config file):

    {
      "dataset":  {"kind": "blobs" | "csv" | "idx", ...options},
      "build":    {"num_members", "selection_rule", "training_thresholds",
                   "classifier": {"kind", "hidden_units"?, "seed"?},
                   "training": {...TrainConfig fields},
                   "min_subset_size"?},
      "runtime":  [{"threshold": x | "thresholds": [...], "consensus"?}, ...],
      "metrics":  {"calibration_bins"?, "histogram_bins"?},
      "output_dir"?: "..."
    }

This module only converts JSON into the library's types.  Every number
goes through require_int or require_float, here or in the type that owns
it, so a string, boolean, NaN or Infinity is a ConfigError.  The rules are
the types' own: check_schedule, check_architecture, TrainConfig and
RuntimeConfig run at load, before any dataset is read.

The classifier's input_dim / num_classes are taken from the dataset, so
configs stay portable across datasets of the same shape.  A scalar
"threshold" in a runtime block is broadcast across all members.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .builder import BuildConfig
from .cascade import CONSENSUS_MOST_CONFIDENT, RuntimeConfig
from .classifiers import ClassifierSpec, TrainConfig, check_architecture
from .datasets import Dataset, generate_blobs, load_csv, load_idx
from .errors import (
    ConfEnsembleError,
    ConfigError,
    InvalidInputError,
    require_int,
    require_seed,
)
from .manifest import SELECTION_NESTED, check_schedule
from .metrics import DEFAULT_CALIBRATION_BINS, DEFAULT_HISTOGRAM_BINS

# Default threshold grids; the sweep script walks these.  The acceptance
# suite keeps its own copies (TRAINING_GRID, RUNTIME_GRID).
DEFAULT_TRAINING_THRESHOLD_GRID = (0.2, 0.1, 0.01)
DEFAULT_RUNTIME_THRESHOLD_GRID = (0.4, 0.2, 0.1, 0.01)

_DATASET_KINDS = ("blobs", "csv", "idx")


@dataclass(frozen=True)
class DatasetSource:
    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _DATASET_KINDS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")


def load_dataset(source: DatasetSource, num_classes: int | None = None) -> Dataset:
    """Materialize a dataset source block.  num_classes, when given,
    overrides inference for file-backed sources.  The loaders convert
    their own options; a bad one is a ConfigError."""
    opts = source.options
    try:
        if source.kind == "blobs":
            return generate_blobs(
                num_classes=opts["num_classes"],
                per_class=opts["per_class"],
                dim=opts.get("dim", 2),
                spread=opts.get("spread", 1.0),
                overlap=opts.get("overlap", 0.0),
                seed=opts.get("seed", 0),
            )
        declared = opts.get("num_classes", num_classes)
        if declared is not None:
            declared = require_int("dataset.num_classes", declared)
        if source.kind == "csv":
            return load_csv(opts["path"], num_classes=declared)
        return load_idx(opts["images"], opts["labels"], num_classes=declared)
    except KeyError as exc:
        raise ConfigError(f"dataset block for {source.kind!r} needs option {exc}") from exc
    except (TypeError, ValueError, InvalidInputError) as exc:
        raise ConfigError(f"bad dataset option: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSource
    num_members: int
    selection_rule: str
    training_thresholds: tuple[float, ...]
    classifier_kind: str
    classifier_hidden_units: int | None
    classifier_seed: int
    training: TrainConfig
    min_subset_size: int | None = None
    runtime_sweep: tuple[RuntimeConfig, ...] = ()
    calibration_bins: int = DEFAULT_CALIBRATION_BINS
    histogram_bins: int = DEFAULT_HISTOGRAM_BINS
    output_dir: str | None = None

    def classifier_spec_for(self, data: Dataset) -> ClassifierSpec:
        return ClassifierSpec(
            kind=self.classifier_kind,
            input_dim=data.feature_dim,
            num_classes=data.num_classes,
            hidden_units=self.classifier_hidden_units,
            seed=self.classifier_seed,
        )

    def build_config_for(self, data: Dataset) -> BuildConfig:
        return BuildConfig(
            num_members=self.num_members,
            training_thresholds=self.training_thresholds,
            classifier_spec=self.classifier_spec_for(data),
            train_config=self.training,
            selection_rule=self.selection_rule,
            min_subset_size=self.min_subset_size,
        )

    def default_runtime(self) -> RuntimeConfig | None:
        """The first runtime block; None leaves the choice to build_ensemble."""
        return self.runtime_sweep[0] if self.runtime_sweep else None


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing {where}.{key}")
    return block[key]


def _resolve_path(value: str, base: Path | None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"dataset paths must be strings, got {value!r}")
    p = Path(value)
    if base is not None and not p.is_absolute():
        p = base / p
    return str(p)


def parse_dataset_block(block: dict, base: Path | None = None) -> DatasetSource:
    if not isinstance(block, dict):
        raise ConfigError("dataset block must be an object")
    kind = _require(block, "kind", "dataset")
    opts = {k: v for k, v in block.items() if k != "kind"}
    if kind == "csv" and "path" in opts:
        opts["path"] = _resolve_path(opts["path"], base)
    if kind == "idx":
        for key in ("images", "labels"):
            if key in opts:
                opts[key] = _resolve_path(opts[key], base)
    return DatasetSource(kind=kind, options=opts)


def parse_runtime_block(block: dict, num_members: int) -> RuntimeConfig:
    if not isinstance(block, dict):
        raise ConfigError("runtime block must be an object")
    if "thresholds" in block:
        thresholds = block["thresholds"]
    elif "threshold" in block:
        thresholds = (block["threshold"],) * num_members
    else:
        raise ConfigError("runtime block needs 'threshold' or 'thresholds'")
    rcfg = RuntimeConfig(
        thresholds=thresholds, consensus=block.get("consensus", CONSENSUS_MOST_CONFIDENT)
    )
    rcfg.validate_for(num_members)
    return rcfg


def parse_experiment_config(doc: dict, base: Path | None = None) -> ExperimentConfig:
    """Convert a parsed config document; any rule it breaks is a ConfigError."""
    try:
        dataset = parse_dataset_block(_require(doc, "dataset", "config"), base)
        build = _require(doc, "build", "config")
        num_members = require_int("build.num_members", _require(build, "num_members", "build"))
        selection_rule = build.get("selection_rule", SELECTION_NESTED)
        thresholds = check_schedule(
            num_members, selection_rule, _require(build, "training_thresholds", "build")
        )
        classifier = _require(build, "classifier", "build")
        kind = _require(classifier, "kind", "build.classifier")
        hidden = classifier.get("hidden_units")
        if hidden is not None:
            hidden = require_int("build.classifier.hidden_units", hidden)
        check_architecture(kind, hidden)
        metrics_block = doc.get("metrics", {})
        output_dir = doc.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
        return ExperimentConfig(
            dataset=dataset,
            num_members=num_members,
            selection_rule=selection_rule,
            training_thresholds=thresholds,
            classifier_kind=kind,
            classifier_hidden_units=hidden,
            classifier_seed=require_seed("build.classifier.seed", classifier.get("seed", 0)),
            training=TrainConfig(**build.get("training", {})),
            min_subset_size=(
                require_int("build.min_subset_size", build["min_subset_size"])
                if "min_subset_size" in build
                else None
            ),
            runtime_sweep=tuple(
                parse_runtime_block(b, num_members) for b in doc.get("runtime", [])
            ),
            calibration_bins=require_int(
                "metrics.calibration_bins",
                metrics_block.get("calibration_bins", DEFAULT_CALIBRATION_BINS),
            ),
            histogram_bins=require_int(
                "metrics.histogram_bins",
                metrics_block.get("histogram_bins", DEFAULT_HISTOGRAM_BINS),
            ),
            output_dir=output_dir,
        )
    except ConfigError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ConfEnsembleError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def read_json(path: Path):
    """Parse a JSON file; undecodable bytes or bad syntax raise ConfigError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_experiment_config(doc, base=path.parent)
