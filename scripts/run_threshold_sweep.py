#!/usr/bin/env python3
"""Threshold-grid experiment driven by an experiment config.

Builds the config's own ensemble (the full chain) plus one two-member
ensemble per training threshold in the grid, all from the config's
dataset, classifier, trainer and selection rule (at two members the
rules pick the same pool).  Then sweeps the runtime-threshold grid with
both consensus heuristics.  Builds and evaluations share one ScoreMemo.
Its members are keyed by training fingerprint, so a member common to
several builds (member 0 always) is trained once.  It holds one score per
member and row of the dataset's features, and scores are batch-invariant,
so each member scores the dataset once: a member's all-rows pass serves
its build report and every level of every evaluation that consults it
(the example makes 5 forward passes over 15,000 rows).
The single-model baseline is member 0 of the full chain, as its build
report scores it.  Emits a summary CSV/JSON and prints a table.
A library error exits with the code its error class carries, as in the
CLI (conf_ensemble.cli.run_with_exit_codes).

Usage:
    python scripts/run_threshold_sweep.py --out runs/sweep
    python scripts/run_threshold_sweep.py --config my.json --seed 7 --out runs/sweep-s7
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from conf_ensemble import (
    CONSENSUS_LAST_MEMBER,
    CONSENSUS_MOST_CONFIDENT,
    RuntimeConfig,
    ScoreMemo,
    batch_evaluate,
    build_ensemble,
    expected_calibration_error,
    load_dataset,
    load_experiment_config,
    write_json,
)
from conf_ensemble.cli import run_with_exit_codes

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example_blobs.json"

# The grids the sweep walks: one two-member build per training
# threshold, and every ensemble evaluated at each runtime threshold.
DEFAULT_TRAINING_THRESHOLD_GRID = (0.2, 0.1, 0.01)
DEFAULT_RUNTIME_THRESHOLD_GRID = (0.4, 0.2, 0.1, 0.01)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(EXAMPLE_CONFIG), help="experiment config")
    parser.add_argument("--out", default="runs/sweep", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="replaces the seed of the config's blobs dataset")
    return parser


def sweep_builds(full):
    """The ensembles to compare, by name: one two-member chain per
    training threshold in the grid, then the full chain ``full``."""
    builds = {
        f"2member-tt{threshold:g}": replace(full, num_members=2,
                                            training_thresholds=(threshold,))
        for threshold in DEFAULT_TRAINING_THRESHOLD_GRID
    }
    builds[f"{full.num_members}member-{full.selection_rule}"] = full
    return builds


def evaluate_grid(name, manifest, data, scored):
    rows = []
    for threshold in DEFAULT_RUNTIME_THRESHOLD_GRID:
        for consensus in (CONSENSUS_LAST_MEMBER, CONSENSUS_MOST_CONFIDENT):
            rcfg = RuntimeConfig.for_members(
                (threshold,), manifest.num_members, consensus=consensus
            )
            record = batch_evaluate(manifest, rcfg, data, scored)
            report = expected_calibration_error(record.chosen_top, record.correct)
            rows.append(
                {
                    "ensemble": name,
                    "members": manifest.num_members,
                    "runtime_threshold": threshold,
                    "consensus": consensus,
                    "accuracy": record.accuracy,
                    "ece": report.ece,
                    "level0_fraction": record.level_fractions[0],
                    "consensus_fraction": record.consensus_fraction,
                }
            )
    return rows


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = load_experiment_config(args.config)
    source = cfg.dataset
    if args.seed is not None:
        if source.kind != "blobs":
            parser.error(f"--seed needs a blobs dataset; {args.config} has {source.kind!r}")
        source = replace(source, options={**source.options, "seed": args.seed})
    data = load_dataset(source)

    builds = sweep_builds(cfg.build)
    full_name = list(builds)[-1]

    rows: list[dict] = []
    subset_sizes: dict[str, list[int]] = {}
    reports = {}
    scored = ScoreMemo()
    for name, build in builds.items():
        manifest, reports[name] = build_ensemble(data, build, scored=scored)
        subset_sizes[name] = list(reports[name].subset_sizes())
        rows += evaluate_grid(name, manifest, data, scored)

    member0 = reports[full_name].members[0]
    baseline = {"accuracy": member0.accuracy, "ece": member0.ece}

    out = Path(args.out)  # created once every build has succeeded
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    write_json(
        out / "sweep.json",
        {"dataset": data.id, "baseline": baseline, "subset_sizes": subset_sizes, "results": rows},
    )

    print(f"dataset {data.id}: {len(data)} samples")
    print(f"baseline: accuracy {baseline['accuracy']:.4f}, ece {baseline['ece']:.4f}")
    for name, sizes in subset_sizes.items():
        print(f"{name}: training pools {sizes}")
    header = f"{'ensemble':18} {'T_r':>5} {'consensus':15} {'acc':>7} {'ece':>7} {'lvl0%':>6}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['ensemble']:18} {row['runtime_threshold']:>5} "
            f"{row['consensus']:15} {row['accuracy']:7.4f} {row['ece']:7.4f} "
            f"{100 * row['level0_fraction']:6.1f}"
        )
    print(f"wrote {out / 'sweep.csv'} and {out / 'sweep.json'}")


if __name__ == "__main__":
    sys.exit(run_with_exit_codes(main))
