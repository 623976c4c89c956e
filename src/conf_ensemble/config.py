"""Experiment configuration: a single JSON file drives a whole run.

Layout (all blocks validated up front, paths resolved relative to the
config file):

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
from .classifiers import KIND_LINEAR, KIND_MLP, ClassifierSpec, TrainConfig
from .datasets import Dataset, generate_blobs, load_csv, load_idx
from .errors import ConfEnsembleError, ConfigError
from .manifest import SELECTION_RULES
from .metrics import DEFAULT_CALIBRATION_BINS, DEFAULT_HISTOGRAM_BINS

# Default threshold grids; the sweep script and the acceptance suite
# walk these.
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
    overrides inference for file-backed sources."""
    opts = dict(source.options)
    try:
        if source.kind == "blobs":
            return generate_blobs(
                num_classes=int(opts["num_classes"]),
                per_class=int(opts["per_class"]),
                dim=int(opts.get("dim", 2)),
                spread=float(opts.get("spread", 1.0)),
                overlap=float(opts.get("overlap", 0.0)),
                seed=int(opts.get("seed", 0)),
            )
        declared = opts.get("num_classes", num_classes)
        declared = int(declared) if declared is not None else None
        if source.kind == "csv":
            return load_csv(opts["path"], num_classes=declared)
        return load_idx(opts["images"], opts["labels"], num_classes=declared)
    except KeyError as exc:
        raise ConfigError(f"dataset block for {source.kind!r} needs option {exc}") from exc
    except (TypeError, ValueError) as exc:
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

    def default_runtime(self) -> RuntimeConfig:
        if self.runtime_sweep:
            return self.runtime_sweep[0]
        return RuntimeConfig.homogeneous(
            DEFAULT_RUNTIME_THRESHOLD_GRID[1], self.num_members
        )


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing {where}.{key}")
    return block[key]


def _resolve_path(value: str, base: Path | None) -> str:
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
    consensus = block.get("consensus", CONSENSUS_MOST_CONFIDENT)
    if "thresholds" in block:
        thresholds = tuple(float(t) for t in block["thresholds"])
    elif "threshold" in block:
        thresholds = (float(block["threshold"]),) * num_members
    else:
        raise ConfigError("runtime block needs 'threshold' or 'thresholds'")
    if len(thresholds) != num_members:
        raise ConfigError(
            f"runtime block has {len(thresholds)} thresholds for {num_members} members"
        )
    return RuntimeConfig(thresholds=thresholds, consensus=consensus)


def parse_experiment_config(doc: dict, base: Path | None = None) -> ExperimentConfig:
    try:
        dataset = parse_dataset_block(_require(doc, "dataset", "config"), base)
        build = _require(doc, "build", "config")
        num_members = int(_require(build, "num_members", "build"))
        classifier = _require(build, "classifier", "build")
        training_block = build.get("training", {})
        metrics_block = doc.get("metrics", {})

        hidden = classifier.get("hidden_units")
        cfg = ExperimentConfig(
            dataset=dataset,
            num_members=num_members,
            selection_rule=build.get("selection_rule", "nested"),
            training_thresholds=tuple(
                float(t) for t in _require(build, "training_thresholds", "build")
            ),
            classifier_kind=_require(classifier, "kind", "build.classifier"),
            classifier_hidden_units=int(hidden) if hidden is not None else None,
            classifier_seed=int(classifier.get("seed", 0)),
            training=TrainConfig(**training_block),
            min_subset_size=(
                int(build["min_subset_size"]) if "min_subset_size" in build else None
            ),
            runtime_sweep=tuple(
                parse_runtime_block(b, num_members) for b in doc.get("runtime", [])
            ),
            calibration_bins=int(
                metrics_block.get("calibration_bins", DEFAULT_CALIBRATION_BINS)
            ),
            histogram_bins=int(
                metrics_block.get("histogram_bins", DEFAULT_HISTOGRAM_BINS)
            ),
            output_dir=doc.get("output_dir"),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, ConfEnsembleError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc

    # Fail now, not at build time, on inconsistent blocks.
    if len(cfg.training_thresholds) != num_members - 1:
        raise ConfigError(
            f"build.training_thresholds needs {num_members - 1} values, "
            f"got {len(cfg.training_thresholds)}"
        )
    if cfg.selection_rule not in SELECTION_RULES:
        raise ConfigError(f"unknown selection rule {cfg.selection_rule!r}")
    if cfg.classifier_kind not in (KIND_LINEAR, KIND_MLP):
        raise ConfigError(f"unknown classifier kind {cfg.classifier_kind!r}")
    for t in cfg.training_thresholds:
        if not 0.0 <= t <= 0.5:
            raise ConfigError(f"training threshold {t} outside [0, 0.5]")
    return cfg


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
