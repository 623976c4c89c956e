#!/usr/bin/env python3
"""Threshold-grid experiment on synthetic overlapping blobs.

Builds the two-member ensembles across the training-threshold grid, plus
the three-member ensemble with rebased selection at (0.01, 0.01), then
sweeps the runtime-threshold grid with both consensus heuristics and a
single-model baseline.  Emits a summary CSV/JSON and prints a table.

Usage:
    python scripts/run_threshold_sweep.py --out runs/sweep
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path

from conf_ensemble import (
    DEFAULT_RUNTIME_THRESHOLD_GRID,
    DEFAULT_TRAINING_THRESHOLD_GRID,
    BuildConfig,
    ClassifierSpec,
    RuntimeConfig,
    TrainConfig,
    batch_evaluate,
    build_ensemble,
    expected_calibration_error,
    generate_blobs,
    member_prediction_arrays,
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/sweep", help="output directory")
    parser.add_argument("--per-class", type=int, default=1000)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--overlap", type=float, default=0.55)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--hidden-units", type=int, default=16)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--learning-rate", type=float, default=0.05)
    return parser.parse_args()


def evaluate_grid(name, manifest, data, rows):
    for threshold in DEFAULT_RUNTIME_THRESHOLD_GRID:
        for consensus in ("last_member", "most_confident"):
            rcfg = RuntimeConfig.homogeneous(
                threshold, manifest.num_members, consensus=consensus
            )
            record = batch_evaluate(manifest, rcfg, data)
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


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    data = generate_blobs(
        num_classes=3,
        per_class=args.per_class,
        dim=args.dim,
        spread=1.0,
        overlap=args.overlap,
        seed=args.seed,
    )
    spec = ClassifierSpec(
        kind="mlp",
        input_dim=data.feature_dim,
        num_classes=data.num_classes,
        hidden_units=args.hidden_units,
        seed=1,
    )
    train = TrainConfig(
        epochs=args.epochs,
        batch_size=64,
        learning_rate=args.learning_rate,
        weight_decay=1e-4,
        seed=9,
    )

    rows: list[dict] = []
    subset_sizes: dict[str, list[int]] = {}

    for threshold in DEFAULT_TRAINING_THRESHOLD_GRID:
        name = f"2member-tt{threshold:g}"
        cfg = BuildConfig(
            num_members=2,
            training_thresholds=(threshold,),
            classifier_spec=spec,
            train_config=train,
        )
        manifest, report = build_ensemble(data, cfg)
        subset_sizes[name] = list(report.subset_sizes())
        evaluate_grid(name, manifest, data, rows)

    cfg3 = BuildConfig(
        num_members=3,
        training_thresholds=(0.01, 0.01),
        classifier_spec=spec,
        train_config=train,
        selection_rule="rebased",
    )
    manifest3, report3 = build_ensemble(data, cfg3)
    subset_sizes["3member-rebased"] = list(report3.subset_sizes())
    evaluate_grid("3member-rebased", manifest3, data, rows)

    cls0, top0, _ = member_prediction_arrays(manifest3.members[0], data.features)
    correct0 = cls0 == data.labels
    baseline = {
        "accuracy": float(correct0.mean()),
        "ece": expected_calibration_error(top0, correct0).ece,
    }

    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    with open(out / "sweep.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "dataset": data.id,
                "baseline": baseline,
                "subset_sizes": subset_sizes,
                "results": rows,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")

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
    main()
