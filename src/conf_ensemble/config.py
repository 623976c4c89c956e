"""Experiment configuration: a single JSON file drives a whole run.

Layout (paths resolved relative to the config file):

    {
      "dataset":  {"kind": "blobs" | "csv" | "idx", ...options},
      "build":    {"num_members", "selection_rule", "training_thresholds",
                   "classifier": {"kind", "hidden_units"?, "seed"?},
                   "training": {...TrainConfig fields},
                   "min_subset_size"?},
      "runtime":  [{"threshold": x | "thresholds": [...], "consensus"?}, ...],
      "output_dir"?: "..."
    }

This module only converts JSON into the library's types, and rejects a
key the layout does not name.  Every number goes through require_int,
require_seed or require_float, here or in the type that owns it, so a
string, boolean, NaN or Infinity is a ConfigError.  The rules are the
types' own: BuildConfig, TrainConfig and RuntimeConfig run at load, before
any dataset is read.  Bin counts are not configured: every report uses the
metrics module's defaults.

The build block becomes a BuildConfig, which names no dataset: members
take their input dimension and class count from the data they are built
on.  The first runtime block becomes the stored manifest's default; later
ones are validated only.  A scalar "threshold" is broadcast across all
members.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .builder import BuildConfig
from .cascade import CONSENSUS_MOST_CONFIDENT, RuntimeConfig
from .classifiers import TrainConfig
from .datasets import Dataset, generate_blobs, load_csv, load_idx
from .errors import (
    ConfEnsembleError,
    ConfigError,
    InvalidInputError,
    require_int,
    require_seed,
)
from .manifest import SELECTION_NESTED

# Default threshold grids; the sweep script walks these.  The acceptance
# suite keeps its own copies (TRAINING_GRID, RUNTIME_GRID).
DEFAULT_TRAINING_THRESHOLD_GRID = (0.2, 0.1, 0.01)
DEFAULT_RUNTIME_THRESHOLD_GRID = (0.4, 0.2, 0.1, 0.01)

# The keys each block may hold; a dataset block's depend on its kind.
_DATASET_OPTIONS = {
    "blobs": ("num_classes", "per_class", "dim", "spread", "overlap", "seed"),
    "csv": ("path", "num_classes"),
    "idx": ("images", "labels", "num_classes"),
}
_TOP_KEYS = ("dataset", "build", "runtime", "output_dir")
_BUILD_KEYS = ("num_members", "selection_rule", "training_thresholds", "classifier",
               "training", "min_subset_size")
_CLASSIFIER_KEYS = ("kind", "hidden_units", "seed")
_RUNTIME_KEYS = ("threshold", "thresholds", "consensus")


def _known_keys(block, allowed, where: str) -> dict:
    """block, once it is an object whose every key is in allowed; where is
    the block's path in the config, for the error message."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} block must be an object")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key {where}.{key}")
    return block


@dataclass(frozen=True)
class DatasetSource:
    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _DATASET_OPTIONS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        _known_keys(self.options, _DATASET_OPTIONS[self.kind], "dataset")


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
    build: BuildConfig
    runtime: RuntimeConfig | None = None  # None leaves the choice to build_ensemble
    output_dir: str | None = None


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
    _known_keys(block, _RUNTIME_KEYS, "runtime")
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
        _known_keys(doc, _TOP_KEYS, "config")
        dataset = parse_dataset_block(_require(doc, "dataset", "config"), base)
        build = _known_keys(_require(doc, "build", "config"), _BUILD_KEYS, "build")
        classifier = _known_keys(
            _require(build, "classifier", "build"), _CLASSIFIER_KEYS, "build.classifier"
        )
        training = _known_keys(
            build.get("training", {}), {f.name for f in fields(TrainConfig)}, "build.training"
        )
        hidden = classifier.get("hidden_units")
        build_cfg = BuildConfig(
            num_members=require_int("build.num_members", _require(build, "num_members", "build")),
            training_thresholds=_require(build, "training_thresholds", "build"),
            classifier_kind=_require(classifier, "kind", "build.classifier"),
            train_config=TrainConfig(**training),
            hidden_units=(
                None if hidden is None else require_int("build.classifier.hidden_units", hidden)
            ),
            classifier_seed=require_seed("build.classifier.seed", classifier.get("seed", 0)),
            selection_rule=build.get("selection_rule", SELECTION_NESTED),
            min_subset_size=(
                require_int("build.min_subset_size", build["min_subset_size"])
                if "min_subset_size" in build
                else None
            ),
        )
        runtime = doc.get("runtime", [])
        if not isinstance(runtime, list):
            raise ConfigError("runtime must be a list of blocks")
        runtimes = [parse_runtime_block(b, build_cfg.num_members) for b in runtime]
        output_dir = doc.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
        return ExperimentConfig(
            dataset=dataset,
            build=build_cfg,
            runtime=runtimes[0] if runtimes else None,
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
    return parse_experiment_config(read_json(path), base=path.parent)
