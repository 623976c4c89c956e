"""Score arithmetic: softmax, edge distances, and the uncertainty metric.

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


def validate_logits(logits) -> np.ndarray:
    """Return logits as a float64 vector, rejecting NaN/inf and short vectors."""
    arr = _as_vector(logits, "logits")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("logits contain non-finite entries")
    return arr


def validate_probabilities(probs) -> np.ndarray:
    """Return probs as a float64 vector, enforcing [0, 1] entries summing to 1."""
    arr = _as_vector(probs, "probabilities")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("probabilities contain non-finite entries")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise InvalidInputError("probabilities must lie in [0, 1]")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InvalidInputError(f"probabilities sum to {total}, expected 1 ± {PROB_SUM_TOL}")
    return arr


def softmax(logits) -> np.ndarray:
    """Map raw scores to a probability vector.

    Shifts by the max logit before exponentiation so that arbitrarily
    large inputs do not overflow.
    """
    arr = validate_logits(logits)
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


def distance_to_zero(probs) -> float:
    """Distance of the top score to 0: just the max entry."""
    return float(validate_probabilities(probs).max())


def distance_to_one(probs) -> float:
    """Distance of the top score to 1: one minus the max entry."""
    return 1.0 - float(validate_probabilities(probs).max())


def uncertainty(probs) -> float:
    """min(p, 1 - p) for top score p; in [0, 0.5], 0.5 = maximally unconfident."""
    p = float(validate_probabilities(probs).max())
    return min(p, 1.0 - p)


def argmax_class(probs) -> int:
    """Index of the top score; ties broken by lowest index for reproducibility."""
    return int(np.argmax(validate_probabilities(probs)))


@dataclass(frozen=True)
class Prediction:
    """One classifier's answer for one sample."""

    class_index: int
    top_probability: float
    uncertainty: float

    @classmethod
    def from_probabilities(cls, probs) -> "Prediction":
        arr = validate_probabilities(probs)
        idx = int(np.argmax(arr))
        p = float(arr[idx])
        return cls(class_index=idx, top_probability=p, uncertainty=min(p, 1.0 - p))
