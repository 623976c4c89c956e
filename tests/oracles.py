"""Reference implementations the tests check the library against.

Each is written from its definition, one sample at a time, with no input
validation and no use of the library's private helpers, so an oracle
cannot share a bug with the batch kernel it checks.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np


def softmax(logits) -> np.ndarray:
    """exp(x_i) / sum_j exp(x_j) for one logit vector, computed after
    shifting by the max logit so that large logits do not overflow."""
    x = np.asarray(logits, dtype=np.float64)
    exps = np.exp(x - x.max())
    return exps / exps.sum()


def uncertainty(probs) -> float:
    """min(p, 1 - p) for the top probability p of one probability vector."""
    p = float(np.max(probs))
    return min(p, 1.0 - p)


def cross_entropy_loss(probs, label: int) -> float:
    """-log p[label], with p floored at 1e-12 so the loss stays finite."""
    return -math.log(max(float(probs[label]), 1e-12))


def predict_logits(model, features) -> np.ndarray:
    """Logits for one feature vector: the dense layers of
    spec.layer_shapes() in order, each read from the flat parameter vector
    as a row-major (fan_in, fan_out) weight matrix followed by a fan_out
    bias, with tanh between layers."""
    h = np.asarray(features, dtype=np.float64)
    shapes = model.spec.layer_shapes()
    offset = 0
    for k, (fan_in, fan_out) in enumerate(shapes):
        w = model.parameters[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = model.parameters[offset : offset + fan_out]
        offset += fan_out
        h = h @ w + b
        if k < len(shapes) - 1:
            h = np.tanh(h)
    return h


def manifests_equal(a, b) -> bool:
    """Structural equality of two ensembles, weights compared bit for bit."""

    def key(m):
        return (m.selection_rule, m.training_thresholds, m.default_runtime,
                m.dataset_id, m.dataset_digest, len(m.members))

    return key(a) == key(b) and all(
        ma.spec == mb.spec
        and ma.training_fingerprint == mb.training_fingerprint
        and ma.parameters.tobytes() == mb.parameters.tobytes()
        for ma, mb in zip(a.members, b.members)
    )


def artifact_digests(directory) -> dict[str, str]:
    """sha256 of each file a stored ensemble consists of."""
    directory = Path(directory)
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in ("manifest.json", "weights.bin")
    }
