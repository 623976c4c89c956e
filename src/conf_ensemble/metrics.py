"""Expected Calibration Error and score histograms, at fixed bin counts.

SCORE_RANGES is the one statement of each score's range; the cascade's
threshold check reads it too.  ECE uses CALIBRATION_BINS equal-width
bins over the top-probability range with a right-closed last bin.  For
bin i holding count_i of n samples, with o_i the fraction of correct
predictions in the bin and e_i the mean top probability, the score is

    ece = sum_i (count_i / n) * |o_i - e_i|

so empty bins contribute nothing and ece always lies in [0, 1].
score_histogram uses HISTOGRAM_BINS bins of the same kind: both views
check their inputs and place a sample with _binned.  A report is
written to JSON as its dataclass fields (persist.write_json).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .datasets import write_rows
from .errors import InvalidInputError

CALIBRATION_BINS = 15
HISTOGRAM_BINS = 20

SCORE_KIND_UNCERTAINTY = "uncertainty"
SCORE_KIND_TOP_PROBABILITY = "top_probability"
SCORE_RANGES = {
    SCORE_KIND_UNCERTAINTY: (0.0, 0.5),
    SCORE_KIND_TOP_PROBABILITY: (0.0, 1.0),
}


def bin_indices(values: np.ndarray, lo: float, hi: float, num_bins: int) -> np.ndarray:
    """Equal-width bin index per value; last bin right-closed."""
    width = (hi - lo) / num_bins
    idx = np.floor((values - lo) / width).astype(np.int64)
    return np.clip(idx, 0, num_bins - 1)


def _binned(name: str, scores, correct, kind: str, num_bins: int):
    """(scores, correct, bin index per score) once scores and correct are
    equal-length vectors and every score lies in SCORE_RANGES[kind]; the
    one input check of both reports."""
    vals = np.asarray(scores, dtype=np.float64)
    hits = np.asarray(correct, dtype=bool)
    if vals.ndim != 1 or vals.shape != hits.shape:
        raise InvalidInputError(f"{name} and correct must be equal-length vectors")
    lo, hi = SCORE_RANGES[kind]
    bad = np.flatnonzero(~((vals >= lo) & (vals <= hi)))  # NaN is out of range too
    if bad.size:
        raise InvalidInputError(
            f"{name} value {vals[bad[0]]} at index {int(bad[0])} is outside [{lo:g}, {hi:g}]"
        )
    return vals, hits, bin_indices(vals, lo, hi, num_bins)


@dataclass(frozen=True)
class CalibrationBin:
    count: int
    mean_confidence: float  # e_i; 0.0 for an empty bin
    fraction_correct: float  # o_i; 0.0 for an empty bin
    weight: float  # P(i) = count / total


@dataclass(frozen=True)
class CalibrationReport:
    num_bins: int
    bins: tuple[CalibrationBin, ...]
    ece: float


def expected_calibration_error(
    top_probs: Sequence[float], correct: Sequence[bool]
) -> CalibrationReport:
    """Bin-weighted gap between mean confidence and accuracy."""
    probs, hits, idx = _binned("top_probs", top_probs, correct, SCORE_KIND_TOP_PROBABILITY,
                               CALIBRATION_BINS)
    if probs.size == 0:
        raise InvalidInputError("need at least one prediction")
    bins = []
    ece = 0.0
    for b in range(CALIBRATION_BINS):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            bins.append(CalibrationBin(0, 0.0, 0.0, 0.0))
            continue
        e_i = float(probs[mask].mean())
        o_i = float(hits[mask].mean())
        w_i = count / probs.size
        bins.append(CalibrationBin(count, e_i, o_i, w_i))
        ece += w_i * abs(o_i - e_i)

    return CalibrationReport(num_bins=CALIBRATION_BINS, bins=tuple(bins), ece=ece)


@dataclass(frozen=True)
class ScoreHistogram:
    """Per-bin counts of correct and incorrect predictions."""

    score_kind: str
    bin_edges: tuple[float, ...]
    correct_counts: tuple[int, ...]
    incorrect_counts: tuple[int, ...]

    def write_csv(self, path) -> None:
        """A header, then per bin the repr of its edges and its two counts,
        streamed by datasets.write_rows with \\r\\n row ends, as csv.writer would."""
        edges = np.array(self.bin_edges)
        with open(Path(path), "w", newline="", encoding="utf-8") as fh:
            fh.write("bin_left,bin_right,correct,incorrect\r\n")
            write_rows(fh, np.full(len(self.correct_counts), "%r,%r,%d,%d\r\n", dtype=object),
                       (edges[:-1], edges[1:], np.array(self.correct_counts),
                        np.array(self.incorrect_counts)))


def score_histogram(
    scores: Sequence[float],
    correct: Sequence[bool],
    kind: str = SCORE_KIND_UNCERTAINTY,
) -> ScoreHistogram:
    """Histogram of scores split by correctness.

    kind fixes the score range, SCORE_RANGES[kind].
    """
    if kind not in SCORE_RANGES:
        raise InvalidInputError(f"unknown score kind {kind!r}")
    _, hits, idx = _binned("scores", scores, correct, kind, HISTOGRAM_BINS)
    good_counts = np.bincount(idx[hits], minlength=HISTOGRAM_BINS)
    bad_counts = np.bincount(idx[~hits], minlength=HISTOGRAM_BINS)
    edges = np.linspace(*SCORE_RANGES[kind], HISTOGRAM_BINS + 1)
    return ScoreHistogram(
        score_kind=kind,
        bin_edges=tuple(float(e) for e in edges),
        correct_counts=tuple(int(c) for c in good_counts),
        incorrect_counts=tuple(int(c) for c in bad_counts),
    )
