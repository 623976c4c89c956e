"""Command-line driver.

Subcommands:
    build       train an ensemble from a config file and store it
    evaluate    run the cascade over a dataset, write metrics artifacts
    histograms  dump one member's uncertainty/probability histograms

The single-model reference is member 0 of a built chain: build_report.json
records each member's accuracy and ECE on the build dataset.

Exit codes partition the failure classes so sweeps can script against
them: 0 ok, 2 config, 3 data, 4 degenerate training subset, 5 storage,
1 anything unexpected.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .builder import build_ensemble, indices_file_content
from .cascade import (
    CONSENSUS_CHOICES,
    RuntimeConfig,
    batch_evaluate,
    member_prediction_arrays,
)
from .config import load_dataset, load_experiment_config, parse_dataset_block, read_json
from .datasets import Dataset, load_csv
from .errors import (
    ConfigError,
    DatasetParseError,
    DegenerateSubsetError,
    EmptyTrainingSetError,
    InvalidInputError,
    InvalidViewError,
    ManifestDigestError,
    ManifestVersionError,
)
from .metrics import (
    SCORE_KIND_TOP_PROBABILITY,
    SCORE_KIND_UNCERTAINTY,
    expected_calibration_error,
    score_histogram,
)
# perfbench times the CLI's JSON writes by patching cli._write_json.
from .persist import load_manifest, save_manifest, write_json as _write_json

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4
EXIT_STORAGE = 5

# Library error class -> process exit code (see the module docstring).
EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    InvalidInputError: EXIT_CONFIG,
    DatasetParseError: EXIT_DATA,
    InvalidViewError: EXIT_DATA,
    EmptyTrainingSetError: EXIT_DATA,
    DegenerateSubsetError: EXIT_DEGENERATE,
    ManifestVersionError: EXIT_STORAGE,
    ManifestDigestError: EXIT_STORAGE,
    OSError: EXIT_STORAGE,
}


def _resolve_out(args_out: str | None, config_out: str | None) -> Path:
    out = args_out or config_out
    if out is None:
        raise ConfigError("no output directory: pass --out or set output_dir in the config")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_eval_data(src: str, num_classes: int) -> Dataset:
    """The --data file as a dataset of the ensemble's num_classes."""
    path = Path(src)
    if path.suffix == ".csv":
        data = load_csv(path, num_classes=num_classes)
    elif path.suffix == ".json":
        source = parse_dataset_block(read_json(path), base=path.parent)
        data = load_dataset(source, num_classes=num_classes)
    else:
        raise ConfigError(f"--data must be a .csv file or a .json dataset block, got {src}")
    if data.num_classes != num_classes:
        raise InvalidInputError(
            f"dataset num_classes {data.num_classes} != ensemble num_classes {num_classes}"
        )
    return data


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --runtime-thresholds {text!r}: {exc}") from exc


def _save_ensemble(manifest, report, out: Path) -> None:
    """Store a built ensemble: manifest and weights, build report, and the
    training pool of each level >= 1.  Pool files an earlier, longer chain
    left in out are removed."""
    save_manifest(manifest, out)
    _write_json(out / "build_report.json", report.to_json_dict())
    subset_dir = out / "subsets"
    for stale in subset_dir.glob("level_*.idx"):
        stale.unlink()
    if manifest.num_members > 1:
        subset_dir.mkdir(exist_ok=True)
        for record in report.members[1:]:
            (subset_dir / f"level_{record.level}.idx").write_text(
                indices_file_content(record.subset_indices), encoding="utf-8"
            )


def cmd_build(args) -> int:
    cfg = load_experiment_config(args.config)
    out = _resolve_out(args.out, cfg.output_dir)
    data = load_dataset(cfg.dataset)
    manifest, report = build_ensemble(data, cfg.build, default_runtime=cfg.runtime)
    _save_ensemble(manifest, report, out)
    for record in report.members:
        print(
            f"member {record.level}: trained on {record.subset_size} samples, "
            f"final loss {record.final_loss:.6f} ({record.train_seconds:.2f}s)"
        )
    print(f"wrote ensemble to {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    manifest = load_manifest(args.ensemble)
    data = _load_eval_data(args.data, manifest.members[0].spec.num_classes)
    default = manifest.default_runtime
    given = args.runtime_thresholds
    thresholds = default.thresholds if given is None else _parse_thresholds(given)
    rcfg = RuntimeConfig.for_members(thresholds, manifest.num_members,
                                     args.consensus or default.consensus)
    out = _resolve_out(args.out, None)
    record = batch_evaluate(manifest, rcfg, data)
    calibration = expected_calibration_error(record.chosen_top, record.correct)
    record.write_json(out / "evaluation.json")
    record.write_csv(out / "evaluation.csv")
    _write_json(out / "calibration.json", calibration.to_json_dict())
    _write_json(out / "utilization.json", record.utilization_summary())
    print(
        f"accuracy {record.accuracy:.4f}, ece {calibration.ece:.4f}, "
        f"consensus on {record.consensus_count}/{record.num_samples} samples"
    )
    return EXIT_OK


def cmd_histograms(args) -> int:
    manifest = load_manifest(args.ensemble)
    if not 0 <= args.member < manifest.num_members:
        raise ConfigError(
            f"--member {args.member} out of range for {manifest.num_members} members"
        )
    data = _load_eval_data(args.data, manifest.members[0].spec.num_classes)
    cls, top, unc = member_prediction_arrays(manifest.members[args.member], data.features)
    correct = cls == data.labels
    out = _resolve_out(args.out, None)
    for kind, scores in (
        (SCORE_KIND_UNCERTAINTY, unc),
        (SCORE_KIND_TOP_PROBABILITY, top),
    ):
        hist = score_histogram(scores, correct, kind=kind)
        hist.write_csv(out / f"member{args.member}_{kind}_hist.csv")
    print(f"wrote histograms for member {args.member} to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conf-ensemble",
        description="Confidence-gated sequential ensembles: build, cascade, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="train an ensemble from a config file")
    p_build.add_argument("--config", required=True)
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_build)

    p_eval = sub.add_parser("evaluate", help="run the cascade over a dataset")
    p_eval.add_argument("--ensemble", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--runtime-thresholds", default=None,
                        help="comma list, or one value broadcast to all members")
    p_eval.add_argument("--consensus", choices=CONSENSUS_CHOICES, default=None)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_hist = sub.add_parser("histograms", help="dump one member's score histograms")
    p_hist.add_argument("--ensemble", required=True)
    p_hist.add_argument("--data", required=True)
    p_hist.add_argument("--member", type=int, required=True)
    p_hist.add_argument("--out", required=True)
    p_hist.set_defaults(func=cmd_histograms)

    return parser


def run_with_exit_codes(command, *args) -> int:
    """command(*args), whose return value is the exit code; an error class
    in EXIT_CODES is printed as ``error: ...`` and exits with its code,
    anything else propagates (exit 1 with a traceback)."""
    try:
        return command(*args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_with_exit_codes(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
