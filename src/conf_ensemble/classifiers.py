"""Trainable classifiers: a stack of dense layers with tanh in between.

Each layer is a (fan_in, fan_out) weight matrix plus a fan_out bias, kept
in order in one flat parameter vector (weights row-major, then bias).  The
linear softmax model is one layer, the MLP two.  One forward pass serves
training and inference, so the cascade gates on the very scores the
training objective shaped.  Training is plain mini-batch SGD on
cross-entropy plus L2 weight decay, with a step learning-rate schedule
(multiply by gamma every fixed number of epochs).  Everything is numpy +
float64 and fully deterministic given the seeds: initialization draws
from the spec seed, batch order from the train config seed.

Default hyperparameters: learning rate 1e-3, weight decay 1e-2, gamma 0.3
every 15 epochs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import Dataset
from .errors import (
    EmptyTrainingSetError,
    InvalidInputError,
    require_float,
    require_int,
    require_seed,
)
from .numerics import softmax_batch

LOSS_PROB_FLOOR = 1e-12  # keeps -log(p) finite

KIND_LINEAR = "linear"
KIND_MLP = "mlp"


def check_architecture(kind: str, hidden_units: int | None) -> None:
    """The part of a ClassifierSpec that does not depend on the dataset:
    a known kind, and hidden_units >= 1 for an mlp."""
    if kind not in (KIND_LINEAR, KIND_MLP):
        raise InvalidInputError(f"unknown classifier kind {kind!r}")
    if kind == KIND_MLP and (hidden_units is None or hidden_units < 1):
        raise InvalidInputError("mlp requires hidden_units >= 1")


@dataclass(frozen=True)
class ClassifierSpec:
    """Architecture description; hidden_units applies to the MLP only."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_units: int | None = None
    seed: int = 0

    def __post_init__(self):
        optional = () if self.hidden_units is None else ("hidden_units",)
        for name in ("input_dim", "num_classes") + optional:
            object.__setattr__(self, name, require_int(name, getattr(self, name)))
        object.__setattr__(self, "seed", require_seed("seed", self.seed))
        check_architecture(self.kind, self.hidden_units)
        if self.input_dim < 1:
            raise InvalidInputError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise InvalidInputError(f"num_classes must be >= 2, got {self.num_classes}")

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per dense layer, input to output; each layer's
        bias has fan_out entries."""
        if self.kind == KIND_LINEAR:
            return [(self.input_dim, self.num_classes)]
        return [(self.input_dim, self.hidden_units), (self.hidden_units, self.num_classes)]

    def param_count(self) -> int:
        return sum(fan_in * fan_out + fan_out for fan_in, fan_out in self.layer_shapes())


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
        for name in ("epochs", "batch_size", "lr_decay_every_epochs"):
            object.__setattr__(self, name, require_int(name, getattr(self, name)))
        object.__setattr__(self, "seed", require_seed("seed", self.seed))
        for name in ("learning_rate", "lr_decay_gamma", "weight_decay"):
            object.__setattr__(self, name, require_float(name, getattr(self, name)))
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
    """(weights, bias) views into params, one pair per layer."""
    layers = []
    offset = 0
    for fan_in, fan_out in spec.layer_shapes():
        w = params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += w.size
        layers.append((w, params[offset : offset + fan_out]))
        offset += fan_out
    return layers


def init_model(spec: ClassifierSpec) -> TrainedModel:
    """Deterministic fan-based uniform init: each layer's weights and bias
    drawn from U[-a, a] with a = sqrt(6 / (fan_in + fan_out))."""
    rng = np.random.default_rng(spec.seed)
    chunks = []
    for fan_in, fan_out in spec.layer_shapes():
        a = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-a, a, size=fan_in * fan_out))
        chunks.append(rng.uniform(-a, a, size=fan_out))
    return TrainedModel(spec=spec, parameters=np.concatenate(chunks))


def cross_entropy_loss(probs, label: int) -> float:
    """-log p[label], with p floored at 1e-12 so the loss stays finite."""
    arr = np.asarray(probs, dtype=np.float64)
    if not 0 <= label < arr.shape[0]:
        raise InvalidInputError(f"label {label} out of range for {arr.shape[0]} classes")
    return -float(np.log(max(float(arr[label]), LOSS_PROB_FLOOR)))


def _forward(
    layers: list[tuple[np.ndarray, np.ndarray]], X: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """The input of each layer (X, then the tanh of each hidden layer's
    output) and the logits."""
    inputs = [X]
    for w, b in layers[:-1]:
        inputs.append(np.tanh(inputs[-1] @ w + b))
    w, b = layers[-1]
    return inputs, inputs[-1] @ w + b


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
    layers = _unpack(spec, params)
    inputs, logits = _forward(layers, X)

    probs = softmax_batch(logits)
    picked = np.clip(probs[np.arange(n), y], LOSS_PROB_FLOOR, None)
    loss = -float(np.mean(np.log(picked)))

    delta = probs.copy()  # d loss / d logits
    delta[np.arange(n), y] -= 1.0
    delta /= n

    grad = np.zeros_like(params)
    g_layers = _unpack(spec, grad)
    for k in range(len(layers) - 1, -1, -1):
        h = inputs[k]
        gw, gb = g_layers[k]
        gw[...] = h.T @ delta
        gb[...] = delta.sum(axis=0)
        if k:  # h = tanh(pre-activation); carry delta down through it
            delta = (delta @ layers[k][0].T) * (1.0 - h**2)

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
    return _forward(_unpack(model.spec, model.parameters), x[None, :])[1][0]


def predict_logits_batch(model: TrainedModel, X) -> np.ndarray:
    """Forward pass for an (n, input_dim) feature matrix."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.spec.input_dim:
        raise InvalidInputError(
            f"features must have shape (n, {model.spec.input_dim}), got {arr.shape}"
        )
    return _forward(_unpack(model.spec, model.parameters), arr)[1]
