"""Experiment configuration: a single JSON file drives a whole run.

Layout (paths resolved relative to the config file):

    {
      "dataset":  {"kind": "blobs" | "csv" | "idx", ...its loader's parameters},
      "build":    {...BuildConfig's fields,
                   "classifier": {...ClassifierRecipe's fields},
                   "training": {...TrainConfig's fields}},
      "runtime"?: [{"threshold": x | [x per member], ...RuntimeConfig's other fields}]
    }

The output directory is not part of the config: it is the CLI's --out.

One reader, _read, turns every block but the runtime list into its owner:
the block's keys are the owner's parameters (a record's fields, or a
dataset kind's loader), a key left out takes the owner's default, and a
field whose type is a record is a block read the same way.  persist's
known_keys rejects any other key, as it does in a manifest.  A value the
owner rejects is a ConfigError "<path>: <owner's message>", path being
the block's dotted path (build.training, say); a malformed dataset file
stays a DatasetParseError.  The build and runtime owners run at load,
before any dataset is read.  Bin counts and threshold grids are not
configured: they are the metrics module's and the sweep script's
(scripts/run_threshold_sweep.py) constants.

The build block becomes a BuildConfig, which names no dataset: members
take their input dimension and class count from the data they are built
on, and a pool below max(2 * num_classes, 10) samples stops the build.
The runtime list holds at most one block, the stored manifest's default;
its "threshold" is one number for every member or a list of one each.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

from .builder import BuildConfig
from .cascade import RuntimeConfig
from .datasets import Dataset, generate_blobs, load_csv, load_idx
from .errors import ConfigError, InvalidInputError
from .persist import known_keys, read_json

# The loader each dataset kind's block is read into.  A file kind's
# options are its files, plus the num_classes load_dataset may fill in.
_FILE_LOADERS = {"csv": load_csv, "idx": load_idx}
_LOADERS = {"blobs": generate_blobs, **_FILE_LOADERS}


def _read(block, path: str, owner):
    """owner called with block's entries as its parameters; path is the
    block's dotted path in its document.  A parameter whose type is a
    dataclass is itself a block, read the same way."""
    params = inspect.signature(owner).parameters
    known_keys(block, params, path, ConfigError)
    types = get_type_hints(owner)
    args = {}
    for name, param in params.items():
        if name in block:
            value = block[name]
            nested = is_dataclass(types.get(name))
            args[name] = _read(value, f"{path}.{name}", types[name]) if nested else value
        elif param.default is param.empty:
            raise ConfigError(f"missing {path}.{name}")
    return _call(path, owner, **args)


def _call(where: str, owner, /, *args, **kwargs):
    """owner(*args, **kwargs), a value it rejects being a ConfigError naming
    where, the dotted path of the values' block.  where and owner are
    positional-only, so that kwargs may hold any parameter name."""
    try:
        return owner(*args, **kwargs)
    except (InvalidInputError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class DatasetSource:
    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _LOADERS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        loader = _LOADERS[self.kind]
        known_keys(self.options, inspect.signature(loader).parameters, "dataset", ConfigError)


def load_dataset(source: DatasetSource, num_classes: int | None = None) -> Dataset:
    """Materialize a dataset source block.  num_classes, when given, is
    the class count of a file-backed source whose block declares none."""
    options = source.options
    if source.kind in _FILE_LOADERS and num_classes is not None:
        options = {"num_classes": num_classes, **options}
    return _read(options, "dataset", _LOADERS[source.kind])


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSource
    build: BuildConfig
    runtime: RuntimeConfig | None = None  # None leaves the choice to build_ensemble


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing {where}.{key}")
    return block[key]


def _resolve_path(name: str, value, base: Path | None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"dataset: {name} must be a string, got {value!r}")
    p = Path(value)
    if base is not None and not p.is_absolute():
        p = base / p
    return str(p)


def parse_dataset_block(block: dict, base: Path | None = None) -> DatasetSource:
    if not isinstance(block, dict):
        raise ConfigError("dataset block must be an object")
    kind = _require(block, "kind", "dataset")
    source = DatasetSource(kind=kind, options={k: v for k, v in block.items() if k != "kind"})
    if kind not in _FILE_LOADERS:
        return source
    files = {name: _resolve_path(name, value, base)
             for name, value in source.options.items() if name != "num_classes"}
    return replace(source, options={**source.options, **files})


def parse_runtime_block(block: dict, num_members: int) -> RuntimeConfig:
    options = {f.name for f in fields(RuntimeConfig)} - {"thresholds"}
    known_keys(block, options | {"threshold"}, "runtime", ConfigError)
    threshold = _require(block, "threshold", "runtime")
    return _call("runtime", RuntimeConfig.for_members,
                 threshold if isinstance(threshold, list) else (threshold,), num_members,
                 **{k: block[k] for k in options & block.keys()})


def parse_experiment_config(doc: dict, base: Path | None = None) -> ExperimentConfig:
    """Convert a parsed config document; any rule it breaks is a ConfigError."""
    known_keys(doc, [f.name for f in fields(ExperimentConfig)], "config", ConfigError)
    dataset = parse_dataset_block(_require(doc, "dataset", "config"), base)
    build = _read(_require(doc, "build", "config"), "build", BuildConfig)
    runtime = doc.get("runtime", [])
    if not isinstance(runtime, list) or len(runtime) > 1:
        raise ConfigError("runtime must be a list of at most one block")
    return ExperimentConfig(
        dataset=dataset,
        build=build,
        runtime=parse_runtime_block(runtime[0], build.num_members) if runtime else None,
    )


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    return parse_experiment_config(read_json(path, ConfigError), base=path.parent)
