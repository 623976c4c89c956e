"""Experiment configuration: a single JSON file drives a whole run.

Layout (paths resolved relative to the config file):

    {
      "dataset":  {"kind": "blobs" | "csv" | "idx", ...options},
      "build":    {"num_members", "selection_rule", "training_thresholds",
                   "classifier": {"kind", "hidden_units"?, "seed"?},
                   "training": {...TrainConfig fields}},
      "runtime"?: [{"threshold": x | [x per member], ...RuntimeConfig fields}]
    }

The output directory is not part of the config: it is the CLI's --out.

This module only converts JSON into the library's types.  persist's
read_json reads the file and its known_keys rejects a key the layout does
not name, as they do for a manifest.  Every number goes through
require_int, require_seed or require_float, here or in the type that owns
it, so a string, boolean, NaN or Infinity is a ConfigError.  The rules
are the types' own: BuildConfig, TrainConfig and RuntimeConfig run at
load, before any dataset is read.  Bin counts are not configured: they
are the metrics module's constants.  Neither are threshold grids: the
sweep script (scripts/run_threshold_sweep.py) holds the grids it walks.

The build block becomes a BuildConfig, which names no dataset: members
take their input dimension and class count from the data they are built
on, and a pool below max(2 * num_classes, 10) samples stops the build.
The runtime list holds at most one block, the stored manifest's default;
its "threshold" is one number for every member or a list of one each, and
its other keys are RuntimeConfig's other fields, defaulting as declared.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .builder import SELECTION_NESTED, BuildConfig
from .cascade import RuntimeConfig
from .classifiers import TrainConfig
from .datasets import Dataset, generate_blobs, load_csv, load_idx
from .errors import (
    ConfEnsembleError,
    ConfigError,
    InvalidInputError,
    require_int,
    require_seed,
)
from .persist import known_keys, read_json

# The keys each block may hold; a dataset block's depend on its kind.
_DATASET_OPTIONS = {
    "blobs": ("num_classes", "per_class", "dim", "spread", "overlap", "seed"),
    "csv": ("path", "num_classes"),
    "idx": ("images", "labels", "num_classes"),
}
_TOP_KEYS = ("dataset", "build", "runtime")
_BUILD_KEYS = ("num_members", "selection_rule", "training_thresholds", "classifier",
               "training")
_CLASSIFIER_KEYS = ("kind", "hidden_units", "seed")


@dataclass(frozen=True)
class DatasetSource:
    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _DATASET_OPTIONS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        known_keys(self.options, _DATASET_OPTIONS[self.kind], "dataset", ConfigError)


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
    options = {f.name for f in fields(RuntimeConfig)} - {"thresholds"}
    known_keys(block, options | {"threshold"}, "runtime", ConfigError)
    threshold = _require(block, "threshold", "runtime")
    return RuntimeConfig.for_members(threshold if isinstance(threshold, list) else (threshold,),
                                     num_members, **{k: block[k] for k in options & block.keys()})


def parse_experiment_config(doc: dict, base: Path | None = None) -> ExperimentConfig:
    """Convert a parsed config document; any rule it breaks is a ConfigError."""
    try:
        known_keys(doc, _TOP_KEYS, "config", ConfigError)
        dataset = parse_dataset_block(_require(doc, "dataset", "config"), base)
        build = known_keys(_require(doc, "build", "config"), _BUILD_KEYS, "build",
                           ConfigError)
        classifier = known_keys(_require(build, "classifier", "build"), _CLASSIFIER_KEYS,
                                "build.classifier", ConfigError)
        training = known_keys(build.get("training", {}), {f.name for f in fields(TrainConfig)},
                              "build.training", ConfigError)
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
        )
        runtime = doc.get("runtime", [])
        if not isinstance(runtime, list) or len(runtime) > 1:
            raise ConfigError("runtime must be a list of at most one block")
        return ExperimentConfig(
            dataset=dataset,
            build=build_cfg,
            runtime=parse_runtime_block(runtime[0], build_cfg.num_members) if runtime else None,
        )
    except ConfigError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ConfEnsembleError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    return parse_experiment_config(read_json(path, ConfigError), base=path.parent)
