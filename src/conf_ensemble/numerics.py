"""Score arithmetic: softmax and the uncertainty metric.

The uncertainty of a probability vector is the shortest distance of its
top score p to either end of [0, 1], i.e. min(p, 1 - p).  It lives in
[0, 0.5]; 0.5 means maximally unconfident (top score exactly 0.5), values
near 0 mean the model put its top score very close to 0 or 1.

All functions here are pure and operate on plain numpy arrays; callers
may invoke them from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

PROB_SUM_TOL = 1e-9


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise InvalidInputError(f"{name} needs at least 2 classes, got {arr.shape[0]}")
    return arr


def softmax(logits) -> np.ndarray:
    """Map raw scores to a probability vector.

    Shifts by the max logit before exponentiation so that arbitrarily
    large inputs do not overflow.
    """
    arr = _as_vector(logits, "logits")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("logits contain non-finite entries")
    shifted = arr - arr.max()
    exps = np.exp(shifted)
    return exps / exps.sum()


def softmax_batch(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for an (n, N) logit matrix."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"expected a 2-d logit matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("logits contain non-finite entries")
    shifted = arr - arr.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def uncertainty(probs) -> float:
    """min(p, 1 - p) for top score p; in [0, 0.5], 0.5 = maximally unconfident.
    probs must be finite entries in [0, 1] summing to 1."""
    arr = _as_vector(probs, "probabilities")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("probabilities contain non-finite entries")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise InvalidInputError("probabilities must lie in [0, 1]")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InvalidInputError(f"probabilities sum to {total}, expected 1 ± {PROB_SUM_TOL}")
    p = float(arr.max())
    return min(p, 1.0 - p)


@dataclass(frozen=True)
class Prediction:
    """One classifier's answer for one sample."""

    class_index: int
    top_probability: float
    uncertainty: float

