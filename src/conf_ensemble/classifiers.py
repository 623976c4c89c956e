"""Trainable classifiers: linear softmax and a one-hidden-layer tanh MLP.

Both are trained with plain mini-batch SGD on cross-entropy plus L2 weight
decay, with a step learning-rate schedule (multiply by gamma every fixed
number of epochs).  Everything is numpy + float64 and fully deterministic
given the seeds: initialization draws from the spec seed, batch order from
the train config seed.

Default hyperparameters: learning rate 1e-3, weight decay 1e-2, gamma 0.3
every 15 epochs.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import Dataset
from .errors import EmptyTrainingSetError, InvalidInputError
from .numerics import softmax_batch

LOSS_PROB_FLOOR = 1e-12  # keeps -log(p) finite

KIND_LINEAR = "linear"
KIND_MLP = "mlp"


@dataclass(frozen=True)
class ClassifierSpec:
    """Architecture description; hidden_units applies to the MLP only."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_units: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (KIND_LINEAR, KIND_MLP):
            raise InvalidInputError(f"unknown classifier kind {self.kind!r}")
        if self.input_dim < 1:
            raise InvalidInputError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise InvalidInputError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.kind == KIND_MLP and (self.hidden_units is None or self.hidden_units < 1):
            raise InvalidInputError("mlp requires hidden_units >= 1")

    def layer_shapes(self) -> list[tuple[tuple[int, int], tuple[int]]]:
        """(weight_shape, bias_shape) per layer, input to output."""
        if self.kind == KIND_LINEAR:
            return [((self.input_dim, self.num_classes), (self.num_classes,))]
        h = int(self.hidden_units)
        return [
            ((self.input_dim, h), (h,)),
            ((h, self.num_classes), (self.num_classes,)),
        ]

    def param_count(self) -> int:
        return sum(int(np.prod(w)) + b[0] for w, b in self.layer_shapes())


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    lr_decay_gamma: float = 0.3
    lr_decay_every_epochs: int = 15
    weight_decay: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "lr_decay_every_epochs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.epochs < 1:
            raise InvalidInputError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidInputError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise InvalidInputError("learning_rate must be > 0")
        if not 0 < self.lr_decay_gamma <= 1:
            raise InvalidInputError("lr_decay_gamma must be in (0, 1]")
        if self.lr_decay_every_epochs < 1:
            raise InvalidInputError("lr_decay_every_epochs must be >= 1")
        if self.weight_decay < 0:
            raise InvalidInputError("weight_decay must be >= 0")


@dataclass(frozen=True)
class TrainedModel:
    """A classifier's spec plus its flat parameter vector.

    loss_history holds the full-dataset objective after each training
    epoch (empty for a freshly initialized model); training_fingerprint
    hashes what the model was trained on.
    """

    spec: ClassifierSpec
    parameters: np.ndarray
    training_fingerprint: str = ""
    loss_history: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        params = np.asarray(self.parameters, dtype=np.float64)
        if params.shape != (self.spec.param_count(),):
            raise InvalidInputError(
                f"parameter vector has shape {params.shape}, "
                f"spec requires ({self.spec.param_count()},)"
            )
        params = params.copy()
        params.setflags(write=False)
        object.__setattr__(self, "parameters", params)

    @property
    def final_loss(self) -> float | None:
        return self.loss_history[-1] if self.loss_history else None


def _unpack(spec: ClassifierSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    layers = []
    offset = 0
    for w_shape, b_shape in spec.layer_shapes():
        w_size = int(np.prod(w_shape))
        w = params[offset : offset + w_size].reshape(w_shape)
        offset += w_size
        b = params[offset : offset + b_shape[0]]
        offset += b_shape[0]
        layers.append((w, b))
    return layers


def init_model(spec: ClassifierSpec) -> TrainedModel:
    """Deterministic fan-based uniform init: each layer's weights and bias
    drawn from U[-a, a] with a = sqrt(6 / (fan_in + fan_out))."""
    rng = np.random.default_rng(spec.seed)
    chunks = []
    for (fan_in, fan_out), b_shape in spec.layer_shapes():
        a = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-a, a, size=fan_in * fan_out))
        chunks.append(rng.uniform(-a, a, size=b_shape[0]))
    return TrainedModel(spec=spec, parameters=np.concatenate(chunks))


def cross_entropy_loss(probs, label: int) -> float:
    """-log p[label], with p floored at 1e-12 so the loss stays finite."""
    arr = np.asarray(probs, dtype=np.float64)
    if not 0 <= label < arr.shape[0]:
        raise InvalidInputError(f"label {label} out of range for {arr.shape[0]} classes")
    return -float(np.log(max(float(arr[label]), LOSS_PROB_FLOOR)))


def _forward_batch(spec: ClassifierSpec, params: np.ndarray, X: np.ndarray) -> np.ndarray:
    layers = _unpack(spec, params)
    if spec.kind == KIND_LINEAR:
        w, b = layers[0]
        return X @ w + b
    (w1, b1), (w2, b2) = layers
    return np.tanh(X @ w1 + b1) @ w2 + b2


def objective_and_gradient(
    spec: ClassifierSpec,
    params: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    weight_decay: float,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch plus 0.5 * weight_decay * ||params||^2,
    with its analytic gradient (all parameters, biases included, are decayed)."""
    n = X.shape[0]
    grad = np.zeros_like(params)
    layers = _unpack(spec, params)
    g_layers = _unpack(spec, grad)

    if spec.kind == KIND_LINEAR:
        w, b = layers[0]
        logits = X @ w + b
    else:
        (w1, b1), (w2, b2) = layers
        hidden = np.tanh(X @ w1 + b1)
        logits = hidden @ w2 + b2

    probs = softmax_batch(logits)
    picked = np.clip(probs[np.arange(n), y], LOSS_PROB_FLOOR, None)
    loss = -float(np.mean(np.log(picked)))

    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    if spec.kind == KIND_LINEAR:
        gw, gb = g_layers[0]
        gw[...] = X.T @ dlogits
        gb[...] = dlogits.sum(axis=0)
    else:
        (gw1, gb1), (gw2, gb2) = g_layers
        gw2[...] = hidden.T @ dlogits
        gb2[...] = dlogits.sum(axis=0)
        dhidden = dlogits @ w2.T
        dpre = dhidden * (1.0 - hidden**2)
        gw1[...] = X.T @ dpre
        gb1[...] = dpre.sum(axis=0)

    if weight_decay:
        loss += 0.5 * weight_decay * float(params @ params)
        grad += weight_decay * params
    return loss, grad


def fit(model: TrainedModel, data: Dataset, cfg: TrainConfig) -> TrainedModel:
    """Train for a fixed epoch budget of mini-batch SGD steps.

    Batch order is drawn from cfg.seed, so (model, data, cfg) fully
    determines the returned parameters.  The learning rate is multiplied
    by lr_decay_gamma every lr_decay_every_epochs epochs.
    """
    if len(data) == 0:
        raise EmptyTrainingSetError("cannot fit on an empty dataset")
    spec = model.spec
    if data.feature_dim != spec.input_dim:
        raise InvalidInputError(
            f"dataset feature_dim {data.feature_dim} != spec input_dim {spec.input_dim}"
        )
    if data.num_classes != spec.num_classes:
        raise InvalidInputError(
            f"dataset num_classes {data.num_classes} != spec num_classes {spec.num_classes}"
        )

    X, y = data.features, data.labels
    params = model.parameters.copy()
    rng = np.random.default_rng(cfg.seed)
    history = []
    n = len(data)
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * cfg.lr_decay_gamma ** (epoch // cfg.lr_decay_every_epochs)
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            _, grad = objective_and_gradient(spec, params, X[idx], y[idx], cfg.weight_decay)
            params -= lr * grad
        history.append(
            objective_and_gradient(spec, params, X, y, cfg.weight_decay)[0]
        )

    fingerprint = training_fingerprint(data, cfg, spec)
    return replace(
        model,
        parameters=params,
        training_fingerprint=fingerprint,
        loss_history=tuple(history),
    )


def training_fingerprint(data: Dataset, cfg: TrainConfig, spec: ClassifierSpec) -> str:
    """Hash of exactly what went into a fit call: data content, train
    config, and architecture."""
    payload = json.dumps(
        {
            "dataset": data.digest(),
            "train": vars(cfg),
            "spec": vars(spec),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def predict_logits(model: TrainedModel, features) -> np.ndarray:
    """Forward pass for a single feature vector."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.spec.input_dim:
        raise InvalidInputError(
            f"features must have shape ({model.spec.input_dim},), got {x.shape}"
        )
    return _forward_batch(model.spec, model.parameters, x[None, :])[0]


def predict_logits_batch(model: TrainedModel, X) -> np.ndarray:
    """Forward pass for an (n, input_dim) feature matrix."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.spec.input_dim:
        raise InvalidInputError(
            f"features must have shape (n, {model.spec.input_dim}), got {arr.shape}"
        )
    return _forward_batch(model.spec, model.parameters, arr)
