"""Reference implementations the tests check the library against.

Each is written from its definition, one sample at a time, with no input
validation and no use of the library's private helpers, so an oracle
cannot share a bug with the batch kernel it checks.  The exception is
reference_fit: a batch SGD loop that unpacks the parameters on every call
and computes loss and gradient together, which fit must match bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path
from typing import NamedTuple

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


# Plain mini-batch SGD: every call unpacks the parameter vector afresh and
# computes the batch loss and the gradient together, keeping only one.

def _layer_views(spec, params) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, bias) views into params, in spec.layer_shapes() order."""
    views, offset = [], 0
    for fan_in, fan_out in spec.layer_shapes():
        bias = offset + fan_in * fan_out
        views.append((params[offset:bias].reshape(fan_in, fan_out),
                      params[bias : bias + fan_out]))
        offset = bias + fan_out
    return views


def _objective_and_gradient(spec, params, X, y, weight_decay):
    """Mean cross-entropy plus 0.5 * weight_decay * ||params||^2, and its
    gradient by backpropagation through the tanh layers."""
    n = X.shape[0]
    rows = np.arange(n)
    layers = _layer_views(spec, params)
    inputs = [X]
    for w, b in layers[:-1]:
        inputs.append(np.tanh(inputs[-1] @ w + b))
    w, b = layers[-1]
    logits = inputs[-1] @ w + b

    delta = np.exp(logits - logits.max(axis=1, keepdims=True))
    delta /= delta.sum(axis=1, keepdims=True)
    picked = np.maximum(delta[rows, y], 1e-12)
    loss = -float(np.mean(np.log(picked)))
    delta[rows, y] -= 1.0
    delta /= n

    grad = np.empty_like(params)
    g_layers = _layer_views(spec, grad)
    for k in range(len(layers) - 1, -1, -1):
        h = inputs[k]
        gw, gb = g_layers[k]
        gw[...] = h.T @ delta
        gb[...] = delta.sum(axis=0)
        if k:
            delta = (delta @ layers[k][0].T) * (1.0 - h**2)

    if weight_decay:
        loss += 0.5 * weight_decay * float(params @ params)
        grad += weight_decay * params
    return loss, grad


def reference_fit(model, data, cfg) -> tuple[np.ndarray, tuple[float, ...]]:
    """The parameters and per-epoch loss history of mini-batch SGD from
    model on data: batch order from cfg.seed, the learning rate times
    lr_decay_gamma every lr_decay_every_epochs epochs, the loss over the
    whole data after each epoch.  No divergence checks."""
    X, y = data.features, data.labels
    params = model.parameters.copy()
    rng = np.random.default_rng(cfg.seed)
    history = []
    n = len(data)
    for epoch in range(1, cfg.epochs + 1):
        decays = (epoch - 1) // cfg.lr_decay_every_epochs
        lr = cfg.learning_rate * cfg.lr_decay_gamma ** decays
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            _, grad = _objective_and_gradient(model.spec, params, X[idx], y[idx],
                                              cfg.weight_decay)
            params -= lr * grad
        history.append(_objective_and_gradient(model.spec, params, X, y, cfg.weight_decay)[0])
    return params, tuple(history)


class Replay(NamedTuple):
    """One row's cascade outcome: the answering level (None where consensus
    decided), the level whose prediction was chosen, that prediction's
    class, top probability and uncertainty, and the uncertainty of each
    member consulted, in order."""

    answering_level: int | None
    chosen_level: int
    chosen_class: int
    top_probability: float
    uncertainty: float
    uncertainties: tuple[float, ...]

    @property
    def consulted(self) -> int:
        return len(self.uncertainties)


def cascade_replay(members, thresholds, consensus, features) -> Replay:
    """The decision rule on one feature row: score the members in order,
    each with predict_logits, softmax and uncertainty, and accept at the
    first level k whose U is below thresholds[k].  If none is, consensus
    picks the last member ("last_member") or the first member with the
    lowest U (otherwise)."""
    scored = []  # (class, top probability, U) of each member consulted
    for level, member in enumerate(members):
        probs = softmax(predict_logits(member, features))
        cls = int(np.argmax(probs))
        scored.append((cls, float(probs[cls]), uncertainty(probs)))
        if scored[-1][2] < thresholds[level]:
            return Replay(level, level, *scored[-1], tuple(u for _, _, u in scored))
    chosen = len(scored) - 1
    if consensus != "last_member":
        chosen = 0
        for level, (_, _, u) in enumerate(scored):
            if u < scored[chosen][2]:
                chosen = level
    return Replay(None, chosen, *scored[chosen], tuple(u for _, _, u in scored))


def record_row(record, i) -> Replay:
    """Row i of an EvaluationRecord as a Replay.  Its uncertainties are
    those of the levels that hold a class, not as many as the answering
    level implies, so a row scored past its answer does not match."""
    level = int(record.level[i])
    return Replay(None if level < 0 else level, int(record.chosen[i]),
                  int(record.chosen_class[i]), float(record.chosen_top[i]),
                  float(record.unc[i, record.chosen[i]]),
                  tuple(record.unc[i][record.classes[i] >= 0].tolist()))


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


# The per-sample export as the library wrote it one dict and one csv.writer
# row per sample: the reference the chunked writers must match byte for byte.

SAMPLE_FIELDS = (
    "sample_index",
    "chosen_class",
    "true_class",
    "answering_level",
    "top_probability",
    "uncertainty",
    "consulted_uncertainties",
    "correct",
)


def sample_rows(record):
    """Per-sample values of an EvaluationRecord as Python scalars, in
    SAMPLE_FIELDS order."""
    unc_rows = record.unc.tolist()
    return zip(
        range(record.num_samples),
        record.chosen_class.tolist(),
        record.labels.tolist(),
        [None if k < 0 else k for k in record.level.tolist()],
        record.chosen_top.tolist(),
        [us[k] for us, k in zip(unc_rows, record.chosen.tolist())],
        [us[:c] for us, c in zip(unc_rows, record.consulted.tolist())],
        record.correct.tolist(),
    )


def evaluation_json_text(record) -> str:
    """evaluation.json: the summary and one dict per sample, through
    json.dumps(indent=2, sort_keys=True), newline-terminated."""
    doc = {
        "consensus": record.runtime.consensus,
        "thresholds": list(record.runtime.thresholds),
        "accuracy": record.accuracy,
        "utilization": record.utilization_summary(),
        "samples": [dict(zip(SAMPLE_FIELDS, row)) for row in sample_rows(record)],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def evaluation_csv_text(record) -> str:
    """evaluation.csv through csv.writer: index, chosen class, true class,
    answering level, and the repr of each consulted level's uncertainty,
    blank for levels not consulted."""
    num_levels = len(record.runtime.thresholds)
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(
        ["sample_index", "chosen_class", "true_class", "answering_level"]
        + [f"u_level_{k}" for k in range(num_levels)]
    )
    writer.writerows(
        [i, cls, label, "consensus" if level is None else level]
        + [repr(u) for u in us]
        + [""] * (num_levels - len(us))
        for i, cls, label, level, _, _, us, _ in sample_rows(record)
    )
    return fh.getvalue()


def dataset_csv_text(dataset) -> str:
    """A dataset's CSV through csv.writer: header f0..f{M-1},label, then
    the repr of each feature and the integer label per row."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow([f"f{i}" for i in range(dataset.feature_dim)] + ["label"])
    for row, label in zip(dataset.features, dataset.labels):
        writer.writerow([repr(float(v)) for v in row] + [int(label)])
    return fh.getvalue()


def histogram_csv_text(hist) -> str:
    """A score histogram's CSV through csv.writer: header, then per bin the
    repr of its left and right edges and its correct and incorrect counts."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["bin_left", "bin_right", "correct", "incorrect"])
    edges = hist.bin_edges
    for left, right, good, bad in zip(edges, edges[1:], hist.correct_counts,
                                      hist.incorrect_counts):
        writer.writerow([repr(left), repr(right), good, bad])
    return fh.getvalue()
