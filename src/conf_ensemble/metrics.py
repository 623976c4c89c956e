"""Expected Calibration Error and score histograms.

ECE uses equal-width bins over [0, 1] with a right-closed last bin.  For
bin i holding count_i of n samples, with o_i the fraction of correct
predictions in the bin and e_i the mean top probability, the score is

    ece = sum_i (count_i / n) * |o_i - e_i|

so empty bins contribute nothing and ece always lies in [0, 1].
score_histogram shares the same binning function, so a sample lands in
the same bin in both views.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, require_int

DEFAULT_CALIBRATION_BINS = 15
DEFAULT_HISTOGRAM_BINS = 20

SCORE_KIND_UNCERTAINTY = "uncertainty"
SCORE_KIND_TOP_PROBABILITY = "top_probability"
_SCORE_RANGES = {
    SCORE_KIND_UNCERTAINTY: (0.0, 0.5),
    SCORE_KIND_TOP_PROBABILITY: (0.0, 1.0),
}


def check_bins(name: str, value) -> int:
    """value as a bin count: an integer >= 1."""
    bins = require_int(name, value)
    if bins < 1:
        raise InvalidInputError(f"{name} must be >= 1, got {bins}")
    return bins


def bin_indices(values: np.ndarray, lo: float, hi: float, num_bins: int) -> np.ndarray:
    """Equal-width bin index per value; last bin right-closed."""
    width = (hi - lo) / num_bins
    idx = np.floor((values - lo) / width).astype(np.int64)
    return np.clip(idx, 0, num_bins - 1)


@dataclass(frozen=True)
class CalibrationReport:
    num_bins: int
    bin_counts: tuple[int, ...]
    bin_mean_confidence: tuple[float, ...]  # e_i; 0.0 for empty bins
    bin_fraction_correct: tuple[float, ...]  # o_i; 0.0 for empty bins
    bin_weights: tuple[float, ...]  # P(i) = count / total
    ece: float

    def to_json_dict(self) -> dict:
        return {
            "num_bins": self.num_bins,
            "ece": self.ece,
            "bins": [
                {
                    "count": c,
                    "mean_confidence": e,
                    "fraction_correct": o,
                    "weight": w,
                }
                for c, e, o, w in zip(
                    self.bin_counts,
                    self.bin_mean_confidence,
                    self.bin_fraction_correct,
                    self.bin_weights,
                )
            ],
        }


def expected_calibration_error(
    top_probs: Sequence[float],
    correct: Sequence[bool],
    num_bins: int = DEFAULT_CALIBRATION_BINS,
) -> CalibrationReport:
    """Bin-weighted gap between mean confidence and accuracy."""
    num_bins = check_bins("num_bins", num_bins)
    probs = np.asarray(top_probs, dtype=np.float64)
    hits = np.asarray(correct, dtype=bool)
    if probs.ndim != 1 or probs.shape != hits.shape:
        raise InvalidInputError("top_probs and correct must be equal-length vectors")
    if probs.size == 0:
        raise InvalidInputError("need at least one prediction")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):  # NaN fails too
        raise InvalidInputError("top_probs must lie in [0, 1]")

    idx = bin_indices(probs, 0.0, 1.0, num_bins)
    total = probs.size
    counts, means, fracs, weights = [], [], [], []
    ece = 0.0
    for b in range(num_bins):
        mask = idx == b
        count = int(mask.sum())
        counts.append(count)
        if count == 0:
            means.append(0.0)
            fracs.append(0.0)
            weights.append(0.0)
            continue
        e_i = float(probs[mask].mean())
        o_i = float(hits[mask].mean())
        w_i = count / total
        means.append(e_i)
        fracs.append(o_i)
        weights.append(w_i)
        ece += w_i * abs(o_i - e_i)

    return CalibrationReport(
        num_bins=num_bins,
        bin_counts=tuple(counts),
        bin_mean_confidence=tuple(means),
        bin_fraction_correct=tuple(fracs),
        bin_weights=tuple(weights),
        ece=ece,
    )


@dataclass(frozen=True)
class ScoreHistogram:
    """Per-bin counts of correct and incorrect predictions."""

    score_kind: str
    bin_edges: tuple[float, ...]
    correct_counts: tuple[int, ...]
    incorrect_counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.correct_counts) + sum(self.incorrect_counts)

    def rows(self) -> list[tuple[float, float, int, int]]:
        return [
            (self.bin_edges[i], self.bin_edges[i + 1],
             self.correct_counts[i], self.incorrect_counts[i])
            for i in range(len(self.correct_counts))
        ]

    def write_csv(self, path) -> None:
        with open(Path(path), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_left", "bin_right", "correct", "incorrect"])
            for left, right, good, bad in self.rows():
                writer.writerow([repr(left), repr(right), good, bad])

    def to_json_dict(self) -> dict:
        return {
            "score_kind": self.score_kind,
            "bin_edges": list(self.bin_edges),
            "correct_counts": list(self.correct_counts),
            "incorrect_counts": list(self.incorrect_counts),
        }


def score_histogram(
    scores: Sequence[float],
    correct: Sequence[bool],
    kind: str = SCORE_KIND_UNCERTAINTY,
    bins: int = DEFAULT_HISTOGRAM_BINS,
) -> ScoreHistogram:
    """Histogram of scores split by correctness.

    kind fixes the score range: uncertainty lives in [0, 0.5],
    top_probability in [0, 1].
    """
    if kind not in _SCORE_RANGES:
        raise InvalidInputError(f"unknown score kind {kind!r}")
    bins = check_bins("bins", bins)
    vals = np.asarray(scores, dtype=np.float64)
    hits = np.asarray(correct, dtype=bool)
    if vals.ndim != 1 or vals.shape != hits.shape:
        raise InvalidInputError("scores and correct must be equal-length vectors")
    lo, hi = _SCORE_RANGES[kind]
    bad = np.flatnonzero(~((vals >= lo) & (vals <= hi)))  # NaN is out of range too
    if bad.size:
        raise InvalidInputError(
            f"scores value {vals[bad[0]]} at index {int(bad[0])} is outside [{lo}, {hi}]"
        )

    idx = bin_indices(vals, lo, hi, bins)
    good_counts = np.bincount(idx[hits], minlength=bins)
    bad_counts = np.bincount(idx[~hits], minlength=bins)
    edges = np.linspace(lo, hi, bins + 1)
    return ScoreHistogram(
        score_kind=kind,
        bin_edges=tuple(float(e) for e in edges),
        correct_counts=tuple(int(c) for c in good_counts),
        incorrect_counts=tuple(int(c) for c in bad_counts),
    )
