"""Trainable classifiers: a stack of dense layers with tanh in between.

Each layer is a (fan_in, fan_out) weight matrix plus a fan_out bias, kept
in order in one flat parameter vector (weights row-major, then bias) at
the offsets _layer_bounds alone states.  The linear softmax model is one
layer, the MLP two.  One forward pass serves training and inference, so
the cascade gates on the very scores the training objective shaped.
Training is plain mini-batch SGD on cross-entropy plus L2 weight decay,
with a step learning-rate schedule (multiply by gamma every fixed number
of epochs).  objective_and_gradient is the one training kernel: an SGD
step computes the gradient only, and the loss at initialisation and
after each epoch comes from the forward pass only.  fit unpacks the
layer views of the parameters and of one gradient buffer once, gathers
each epoch's shuffled rows once and steps on contiguous slices of them;
each step writes its softmax, delta and gradient into buffers it owns
and updates the parameters in place.  Everything
is numpy + float64 and fully deterministic given the seeds:
initialization draws from the spec seed, batch order from the train
config seed.

Default hyperparameters: learning rate 1e-3, weight decay 1e-2, gamma 0.3
every 15 epochs.

ClassifierRecipe is the one statement of the architecture rule (a known
kind, and hidden_units >= 1 for an mlp): a build's classifier is one, and
every ClassifierSpec checks its own kind, hidden_units and seed through
one.  ClassifierSpec.check_data is the one statement of "this dataset
fits this model" (feature width and class count); fit, the cascade's
batch_evaluate and the CLI's --data loading all run it.
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
    TrainingDivergedError,
    require_float,
    require_int,
)

LOSS_PROB_FLOOR = 1e-12  # keeps -log(p) finite

KIND_LINEAR = "linear"
KIND_MLP = "mlp"


@dataclass(frozen=True)
class ClassifierRecipe:
    """A classifier less the shape its data gives it, as a config's
    build.classifier block states it: a known kind, hidden_units (used by
    an mlp only, and >= 1 there) and a seed."""

    kind: str
    hidden_units: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.hidden_units is not None:
            hidden = require_int("hidden_units", self.hidden_units)
            object.__setattr__(self, "hidden_units", hidden)
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0))
        if self.kind not in (KIND_LINEAR, KIND_MLP):
            raise InvalidInputError(f"unknown classifier kind {self.kind!r}")
        if self.kind == KIND_MLP and (self.hidden_units is None or self.hidden_units < 1):
            raise InvalidInputError("mlp requires hidden_units >= 1")


@dataclass(frozen=True)
class ClassifierSpec:
    """Architecture description: a ClassifierRecipe's fields, which it
    checks, plus the input width and class count of the data."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_units: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("input_dim", 1), ("num_classes", 2)):
            object.__setattr__(self, name, require_int(name, getattr(self, name), minimum))
        recipe = ClassifierRecipe(self.kind, self.hidden_units, self.seed)
        for name, value in vars(recipe).items():
            object.__setattr__(self, name, value)

    def check_data(self, data: Dataset) -> None:
        """The one check that data fits this model: its feature width is
        input_dim and its class count num_classes."""
        if data.feature_dim != self.input_dim:
            raise InvalidInputError(
                f"dataset feature_dim {data.feature_dim} != model input_dim {self.input_dim}")
        if data.num_classes != self.num_classes:
            raise InvalidInputError(
                f"dataset num_classes {data.num_classes} != model num_classes {self.num_classes}")

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per dense layer, input to output; each layer's
        bias has fan_out entries."""
        if self.kind == KIND_LINEAR:
            return [(self.input_dim, self.num_classes)]
        return [(self.input_dim, self.hidden_units), (self.hidden_units, self.num_classes)]

    def param_count(self) -> int:
        return _layer_bounds(self)[-1][-1]


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
        for name, minimum in (("epochs", 1), ("batch_size", 1),
                              ("lr_decay_every_epochs", 1), ("seed", 0)):
            object.__setattr__(self, name, require_int(name, getattr(self, name), minimum))
        for name in ("learning_rate", "lr_decay_gamma", "weight_decay"):
            object.__setattr__(self, name, require_float(name, getattr(self, name)))
        if self.learning_rate <= 0:
            raise InvalidInputError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 < self.lr_decay_gamma <= 1:
            raise InvalidInputError(f"lr_decay_gamma must be in (0, 1], got {self.lr_decay_gamma}")
        if self.weight_decay < 0:
            raise InvalidInputError(f"weight_decay must be >= 0, got {self.weight_decay}")


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
        if not isinstance(self.training_fingerprint, str):
            raise InvalidInputError(
                f"training_fingerprint must be a string, got {self.training_fingerprint!r}")
        params = np.asarray(self.parameters, dtype=np.float64)
        if params.shape != (self.spec.param_count(),):
            raise InvalidInputError(
                f"parameter vector has shape {params.shape}, "
                f"spec requires ({self.spec.param_count()},)"
            )
        if not np.all(np.isfinite(params)):
            raise InvalidInputError("parameter vector contains non-finite entries")
        params = params.copy()
        params.setflags(write=False)
        object.__setattr__(self, "parameters", params)

    @property
    def final_loss(self) -> float | None:
        return self.loss_history[-1] if self.loss_history else None


def _layer_bounds(spec: ClassifierSpec) -> tuple[tuple[int, int, int, int, int], ...]:
    """(fan_in, fan_out, weights start, bias start, bias end) per layer:
    where each layer sits in the flat parameter vector."""
    bounds = []
    offset = 0
    for fan_in, fan_out in spec.layer_shapes():
        bias = offset + fan_in * fan_out
        bounds.append((fan_in, fan_out, offset, bias, bias + fan_out))
        offset = bias + fan_out
    return tuple(bounds)


def _unpack(spec: ClassifierSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, bias) views into params, one pair per layer."""
    return [(params[w:b].reshape(fan_in, fan_out), params[b:end])
            for fan_in, fan_out, w, b, end in _layer_bounds(spec)]


def init_model(spec: ClassifierSpec) -> TrainedModel:
    """Deterministic fan-based uniform init: each layer's weights and bias
    drawn from U[-a, a] with a = sqrt(6 / (fan_in + fan_out))."""
    rng = np.random.default_rng(spec.seed)
    params = np.empty(spec.param_count())
    for w, b in _unpack(spec, params):
        a = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-a, a, size=w.shape)
        b[...] = rng.uniform(-a, a, size=b.shape)
    return TrainedModel(spec=spec, parameters=params)


def softmax_batch(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (n, N) logit matrix, shifted by each row's
    max so that large logits do not overflow.  Non-finite logits (a
    diverged fit) are rejected rather than turned into NaN scores."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"expected a 2-d logit matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("logits contain non-finite entries")
    return _softmax_rows(arr)


def _softmax_rows(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """softmax_batch without its checks, for a finite 2-d float64 matrix,
    written to out (which may be logits itself), else to a new array."""
    exps = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(exps, out=exps)
    exps /= exps.sum(axis=1, keepdims=True)
    return exps


def _forward(
    layers: list[tuple[np.ndarray, np.ndarray]], X: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """The input of each layer (X, then the tanh of each hidden layer's
    output) and the logits; each but X is a new array, which each of
    its operations writes in place."""
    inputs = [X]
    for w, b in layers[:-1]:
        hidden = inputs[-1] @ w
        hidden += b
        inputs.append(np.tanh(hidden, out=hidden))
    w, b = layers[-1]
    logits = inputs[-1] @ w
    logits += b
    return inputs, logits


def objective_and_gradient(
    params: np.ndarray,
    layers: list[tuple[np.ndarray, np.ndarray]],
    X: np.ndarray,
    y: np.ndarray,
    weight_decay: float,
    grad: tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]] | None = None,
) -> float | None:
    """The training objective, mean cross-entropy over the batch plus
    0.5 * weight_decay * ||params||^2 (all parameters, biases included,
    are decayed), or its analytic gradient; layers are _unpack's views
    into params.

    With grad None this is a loss pass: the forward pass only, returning
    the objective; y is the (n,) label vector.  With grad = (flat, flat's
    _unpack views) it is an SGD step's gradient: y is the (n, num_classes)
    one-hot label rows, flat is overwritten with the gradient, no loss is
    computed, and None is returned.  perfbench's tracer wraps this module
    attribute and takes X, the third argument, being the fit's own feature
    array as the sign of a loss pass; fit calls it accordingly (a step's X
    is a slice of the epoch's gathered rows, never that array).

    Logits are not checked for finiteness: under fit's np.errstate, the
    overflow that would make one non-finite raises first."""
    n = X.shape[0]
    inputs, logits = _forward(layers, X)
    # The probabilities, then d loss / d logits, in the logits' buffer.
    delta = _softmax_rows(logits, out=logits)
    if grad is None:
        true_probs = delta[np.arange(n), y]
        loss = -float(np.mean(np.log(np.maximum(true_probs, LOSS_PROB_FLOOR))))
        if weight_decay:
            loss += 0.5 * weight_decay * float(params @ params)
        return loss

    flat, g_layers = grad  # every entry of flat is one layer's gw or gb
    delta -= y  # the one-hot labels: p - 1 at the label, p - 0 elsewhere
    delta /= n
    for k in range(len(layers) - 1, -1, -1):
        h = inputs[k]
        gw, gb = g_layers[k]
        np.matmul(h.T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if k:  # h = tanh(pre-activation), _forward's own buffer; carry delta through it
            delta = delta @ layers[k][0].T
            np.square(h, out=h)
            np.subtract(1.0, h, out=h)
            delta *= h
    if weight_decay:
        flat += weight_decay * params
    return None


def fit(model: TrainedModel, data: Dataset, cfg: TrainConfig) -> TrainedModel:
    """Train for a fixed epoch budget of mini-batch SGD steps.

    Batch order is drawn from cfg.seed, so (model, data, cfg) fully
    determines the returned parameters.  Each epoch gathers the features
    and one-hot labels in that order once, and each step takes a
    contiguous slice of them.  The learning rate is multiplied
    by lr_decay_gamma every lr_decay_every_epochs epochs.  The layer views
    of the parameters and of one gradient buffer are unpacked once per
    fit and stay valid, since each step updates the parameters in place.
    A step computes the gradient only; the loss at initialisation and
    after each epoch comes from a forward-only pass over the whole data.

    An overflow, invalid operation or division by zero in an epoch, or a
    non-finite epoch loss or parameter, raises TrainingDivergedError
    naming the epoch.  So does a final epoch loss above the loss at
    initialisation (naming the last epoch): such a fit made the model
    worse than its start.
    """
    if len(data) == 0:
        raise EmptyTrainingSetError("cannot fit on an empty dataset")
    spec = model.spec
    spec.check_data(data)

    X, y = data.features, data.labels
    params = model.parameters.copy()
    layers = _unpack(spec, params)
    flat = np.empty_like(params)
    grad = (flat, _unpack(spec, flat))
    rng = np.random.default_rng(cfg.seed)
    onehot = (y[:, None] == np.arange(spec.num_classes)).astype(np.float64)
    history = []
    n = len(data)
    epoch = 0  # while the loss at initialisation is computed
    # Underflow stays ignored: a healthy softmax's exp underflows.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            initial = objective_and_gradient(params, layers, X, y, cfg.weight_decay)
            for epoch in range(1, cfg.epochs + 1):
                decays = (epoch - 1) // cfg.lr_decay_every_epochs
                lr = cfg.learning_rate * cfg.lr_decay_gamma ** decays
                perm = rng.permutation(n)
                X_epoch, y_epoch = X[perm], onehot[perm]
                for start in range(0, n, cfg.batch_size):
                    batch = slice(start, start + cfg.batch_size)
                    objective_and_gradient(params, layers, X_epoch[batch], y_epoch[batch],
                                           cfg.weight_decay, grad)
                    params -= lr * flat
                loss = objective_and_gradient(params, layers, X, y, cfg.weight_decay)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(epoch, f"epoch loss is {loss}")
                if not np.all(np.isfinite(params)):
                    raise TrainingDivergedError(epoch, "parameters are not finite")
                history.append(loss)
    except FloatingPointError as exc:
        raise TrainingDivergedError(epoch, str(exc)) from None
    if history[-1] > initial:
        raise TrainingDivergedError(
            epoch, f"final loss {history[-1]:.4g} exceeds initial loss {initial:.4g}")

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


def predict_logits_batch(model: TrainedModel, X) -> np.ndarray:
    """Forward pass for an (n, input_dim) feature matrix."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.spec.input_dim:
        raise InvalidInputError(
            f"features must have shape (n, {model.spec.input_dim}), got {arr.shape}"
        )
    return _forward(_unpack(model.spec, model.parameters), arr)[1]
