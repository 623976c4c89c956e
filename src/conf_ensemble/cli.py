"""Command-line driver.

Subcommands:
    build       train an ensemble from a config file and store it
    evaluate    run the cascade over a dataset, write metrics artifacts
    histograms  dump one member's uncertainty/probability histograms

The single-model reference is member 0 of a built chain: build_report.json
records each member's accuracy and ECE on the build dataset.

Exit codes partition the failure classes so sweeps can script against
them: 0 ok, 2 config, 3 data, 4 degenerate training subset, 5 storage,
6 diverged training, 1 anything unexpected.  Each error class carries its
code (errors.py); run_with_exit_codes only reads it.  Every subcommand
writes to its required --out directory, and creates it only once the
result it will hold exists: a command that fails before then leaves no
--out behind.
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
from .classifiers import ClassifierSpec
from .config import load_dataset, load_experiment_config, parse_dataset_block
from .datasets import Dataset, load_csv
from .errors import EXIT_OK, EXIT_STORAGE, ConfEnsembleError, ConfigError
from .metrics import (
    SCORE_KIND_TOP_PROBABILITY,
    SCORE_KIND_UNCERTAINTY,
    expected_calibration_error,
    score_histogram,
)
# perfbench times the CLI's JSON writes by patching cli._write_json.
from .persist import load_manifest, read_json, save_manifest, write_json as _write_json


def _resolve_out(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_eval_data(src: str, spec: ClassifierSpec) -> Dataset:
    """The --data file as a dataset that fits spec (spec.check_data)."""
    path = Path(src)
    if path.suffix == ".csv":
        data = load_csv(path, num_classes=spec.num_classes)
    elif path.suffix == ".json":
        source = parse_dataset_block(read_json(path, ConfigError), base=path.parent)
        data = load_dataset(source, num_classes=spec.num_classes)
    else:
        raise ConfigError(f"--data must be a .csv file or a .json dataset block, got {src}")
    spec.check_data(data)
    return data


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --runtime-thresholds {text!r}: {exc}") from exc


def _save_ensemble(manifest, report, out: Path) -> None:
    """Store a built ensemble: manifest and weights, build report, and the
    training pool of each level >= 1.  Pool files an earlier, longer chain
    left in out are removed, and so is subsets/ when a one-member chain
    leaves it empty; no other file is touched."""
    save_manifest(manifest, out)
    _write_json(out / "build_report.json", report.to_json_dict())
    subset_dir = out / "subsets"
    for stale in subset_dir.glob("level_*.idx"):
        stale.unlink()
    for record in report.members[1:]:
        subset_dir.mkdir(exist_ok=True)
        (subset_dir / f"level_{record.level}.idx").write_text(
            indices_file_content(record.subset_indices), encoding="utf-8"
        )
    if subset_dir.is_dir() and not any(subset_dir.iterdir()):
        subset_dir.rmdir()


def cmd_build(args) -> int:
    cfg = load_experiment_config(args.config)
    data = load_dataset(cfg.dataset)
    manifest, report = build_ensemble(data, cfg.build, default_runtime=cfg.runtime)
    out = _resolve_out(args.out)
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
    data = _load_eval_data(args.data, manifest.members[0].spec)
    default = manifest.default_runtime
    given = args.runtime_thresholds
    thresholds = default.thresholds if given is None else _parse_thresholds(given)
    rcfg = RuntimeConfig.for_members(thresholds, manifest.num_members,
                                     consensus=args.consensus or default.consensus)
    record = batch_evaluate(manifest, rcfg, data)
    out = _resolve_out(args.out)
    calibration = expected_calibration_error(record.chosen_top, record.correct)
    record.write_json(out / "evaluation.json")
    record.write_csv(out / "evaluation.csv")
    _write_json(out / "calibration.json", calibration)
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
    member = manifest.members[args.member]
    data = _load_eval_data(args.data, member.spec)
    cls, top, unc = member_prediction_arrays(member, data.features)
    correct = cls == data.labels
    out = _resolve_out(args.out)
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
    p_build.add_argument("--out", required=True)
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
    """command(*args), whose return value is the exit code.  A library
    error is printed as ``error: ...`` and exits with its class's
    exit_code, an OSError with EXIT_STORAGE; anything else propagates
    (exit 1 with a traceback)."""
    try:
        return command(*args)
    except (ConfEnsembleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, ConfEnsembleError) else EXIT_STORAGE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_with_exit_codes(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
