from __future__ import annotations

import math

import numpy as np
import pytest

from conf_ensemble import (
    ClassifierSpec,
    Dataset,
    EmptyTrainingSetError,
    InvalidInputError,
    TrainConfig,
    TrainedModel,
    cross_entropy_loss,
    fit,
    generate_blobs,
    init_model,
    predict_logits,
    softmax,
)
from conf_ensemble.classifiers import objective_and_gradient

LINEAR_43 = ClassifierSpec(kind="linear", input_dim=4, num_classes=3, seed=7)
MLP_453 = ClassifierSpec(kind="mlp", input_dim=4, num_classes=3, hidden_units=5, seed=7)


def central_difference_gradient(spec, params, X, y, weight_decay, h=1e-5):
    """Independent numeric gradient of the training objective."""
    grad = np.zeros_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += h
        hi = objective_and_gradient(spec, bumped, X, y, weight_decay)[0]
        bumped[i] -= 2 * h
        lo = objective_and_gradient(spec, bumped, X, y, weight_decay)[0]
        grad[i] = (hi - lo) / (2 * h)
    return grad


class TestSpecAndInit:
    def test_param_counts(self):
        assert LINEAR_43.param_count() == 4 * 3 + 3
        assert MLP_453.param_count() == 4 * 5 + 5 + 5 * 3 + 3

    def test_init_deterministic(self):
        a = init_model(LINEAR_43)
        b = init_model(LINEAR_43)
        assert np.array_equal(a.parameters, b.parameters)

    def test_different_seeds_differ(self):
        a = init_model(LINEAR_43)
        b = init_model(ClassifierSpec(kind="linear", input_dim=4, num_classes=3, seed=8))
        assert not np.array_equal(a.parameters, b.parameters)

    def test_init_within_fan_bound(self):
        model = init_model(MLP_453)
        bound = max(math.sqrt(6.0 / (4 + 5)), math.sqrt(6.0 / (5 + 3)))
        assert np.all(np.abs(model.parameters) <= bound)

    def test_invalid_specs(self):
        with pytest.raises(InvalidInputError):
            ClassifierSpec(kind="tree", input_dim=4, num_classes=3)
        with pytest.raises(InvalidInputError):
            ClassifierSpec(kind="mlp", input_dim=4, num_classes=3)  # no hidden units
        with pytest.raises(InvalidInputError):
            ClassifierSpec(kind="linear", input_dim=0, num_classes=3)
        with pytest.raises(InvalidInputError):
            ClassifierSpec(kind="linear", input_dim=4, num_classes=1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("hidden_units", 16.5),
            ("seed", 2.7),
            ("input_dim", 4.0),
            ("num_classes", "3"),
            ("seed", True),
        ],
    )
    def test_non_integer_fields_rejected(self, name, value):
        fields = dict(kind="mlp", input_dim=4, num_classes=3, hidden_units=5, seed=7)
        fields[name] = value
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            ClassifierSpec(**fields)

    def test_numpy_integer_fields_become_ints(self):
        spec = ClassifierSpec(kind="mlp", input_dim=np.int64(4), num_classes=np.int32(3),
                              hidden_units=np.int16(5), seed=np.uint8(7))
        assert spec == MLP_453
        fields = (spec.input_dim, spec.num_classes, spec.hidden_units, spec.seed)
        assert all(type(v) is int for v in fields)

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(InvalidInputError):
            TrainedModel(spec=LINEAR_43, parameters=np.zeros(5))


class TestCrossEntropy:
    def test_one_hot_true_label(self):
        assert cross_entropy_loss([0.0, 1.0, 0.0], 1) == 0.0

    def test_half(self):
        assert cross_entropy_loss([0.5, 0.5], 0) == pytest.approx(math.log(2), abs=1e-6)

    def test_uniform_four(self):
        assert cross_entropy_loss([0.25] * 4, 3) == pytest.approx(math.log(4), abs=1e-6)

    def test_zero_probability_is_clamped(self):
        assert cross_entropy_loss([1.0, 0.0], 1) == pytest.approx(-math.log(1e-12))

    def test_label_out_of_range(self):
        with pytest.raises(InvalidInputError):
            cross_entropy_loss([0.5, 0.5], 2)
        with pytest.raises(InvalidInputError):
            cross_entropy_loss([0.5, 0.5], -1)


class TestPredictLogits:
    def test_zero_model_emits_zero(self):
        model = TrainedModel(spec=LINEAR_43, parameters=np.zeros(LINEAR_43.param_count()))
        assert np.array_equal(predict_logits(model, [1.0, 2.0, 3.0, 4.0]), np.zeros(3))

    def test_deterministic(self):
        model = init_model(MLP_453)
        x = [0.1, -0.5, 2.0, 0.3]
        assert np.array_equal(predict_logits(model, x), predict_logits(model, x))

    def test_identity_weights_pick_basis_class(self):
        spec = ClassifierSpec(kind="linear", input_dim=3, num_classes=3, seed=0)
        params = np.zeros(spec.param_count())
        params[: 9].reshape(3, 3)[np.diag_indices(3)] = 1.0
        model = TrainedModel(spec=spec, parameters=params)
        for k in range(3):
            logits = predict_logits(model, np.eye(3)[k])
            assert int(np.argmax(logits)) == k
            assert logits[k] > max(np.delete(logits, k))

    def test_dimension_mismatch(self):
        model = init_model(LINEAR_43)
        with pytest.raises(InvalidInputError):
            predict_logits(model, [1.0, 2.0])


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(123)
        checked = 0
        for trial in range(20):
            kind = "linear" if trial % 2 == 0 else "mlp"
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 5))
            h = int(rng.integers(1, 5)) if kind == "mlp" else None
            spec = ClassifierSpec(kind=kind, input_dim=m, num_classes=n,
                                  hidden_units=h, seed=int(rng.integers(1 << 30)))
            params = init_model(spec).parameters + 0.1 * rng.standard_normal(
                spec.param_count()
            )
            X = rng.standard_normal((6, m))
            y = rng.integers(0, n, size=6)
            wd = float(rng.choice([0.0, 1e-2]))
            _, analytic = objective_and_gradient(spec, params, X, y, wd)
            numeric = central_difference_gradient(spec, params, X, y, wd)
            rel = np.linalg.norm(analytic - numeric) / (
                np.linalg.norm(analytic) + np.linalg.norm(numeric) + 1e-12
            )
            assert rel < 1e-4, f"trial {trial}: relative error {rel}"
            checked += 1
        assert checked == 20


class TestTrainingMatchesInference:
    @pytest.mark.parametrize("spec", [LINEAR_43, MLP_453], ids=["linear", "mlp"])
    @pytest.mark.parametrize("wd", [0.0, 1e-2])
    def test_objective_is_mean_inference_loss(self, spec, wd):
        # The training objective must score the very logits predict_logits
        # gives one sample at a time.
        rng = np.random.default_rng(404)
        params = rng.standard_normal(spec.param_count())
        X = rng.standard_normal((9, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=9)
        model = TrainedModel(spec=spec, parameters=params)
        per_sample = [
            cross_entropy_loss(softmax(predict_logits(model, x)), int(label))
            for x, label in zip(X, y)
        ]
        expected = float(np.mean(per_sample)) + 0.5 * wd * float(params @ params)
        loss = objective_and_gradient(spec, params, X, y, wd)[0]
        assert loss == pytest.approx(expected, rel=0, abs=1e-12)


def two_blob_dataset():
    return generate_blobs(
        num_classes=2, per_class=150, dim=2, spread=0.5, overlap=0.0, seed=11
    )


class TestFit:
    def test_deterministic(self):
        data = two_blob_dataset()
        cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=0.01, seed=5)
        spec = ClassifierSpec(kind="linear", input_dim=2, num_classes=2, seed=3)
        a = fit(init_model(spec), data, cfg)
        b = fit(init_model(spec), data, cfg)
        assert np.array_equal(a.parameters, b.parameters)
        assert a.training_fingerprint == b.training_fingerprint

    def test_separable_blobs_reach_high_accuracy(self):
        data = two_blob_dataset()
        cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=0.01,
                          weight_decay=0.0, seed=5)
        spec = ClassifierSpec(kind="linear", input_dim=2, num_classes=2, seed=3)
        model = fit(init_model(spec), data, cfg)
        logits = np.asarray([predict_logits(model, x) for x in data.features])
        accuracy = float((logits.argmax(axis=1) == data.labels).mean())
        assert accuracy >= 0.99

    def test_loss_never_exceeds_first_epoch(self):
        data = two_blob_dataset()
        cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=0.01,
                          weight_decay=0.0, seed=5)
        spec = ClassifierSpec(kind="linear", input_dim=2, num_classes=2, seed=3)
        model = fit(init_model(spec), data, cfg)
        assert len(model.loss_history) == 50
        first = model.loss_history[0]
        assert all(loss <= first for loss in model.loss_history[1:])

    def test_empty_dataset_rejected(self):
        data = two_blob_dataset()
        empty = Dataset(data.features[:0], data.labels[:0], num_classes=2, id="empty")
        spec = ClassifierSpec(kind="linear", input_dim=2, num_classes=2, seed=3)
        with pytest.raises(EmptyTrainingSetError):
            fit(init_model(spec), empty, TrainConfig())

    def test_dimension_mismatch_rejected(self):
        data = two_blob_dataset()
        spec = ClassifierSpec(kind="linear", input_dim=5, num_classes=2, seed=3)
        with pytest.raises(InvalidInputError):
            fit(init_model(spec), data, TrainConfig())

    def test_single_full_batch_step_matches_hand_rolled_oracle(self):
        # One epoch, batch = whole set, no decay: exactly one plain
        # gradient step.  The oracle below accumulates per-sample
        # gradients with explicit loops, no shared matrix code.
        rng = np.random.default_rng(77)
        X = rng.standard_normal((8, 3))
        y = rng.integers(0, 2, size=8)
        data = Dataset(X, y, num_classes=2, id="tiny")
        spec = ClassifierSpec(kind="linear", input_dim=3, num_classes=2, seed=1)
        start = init_model(spec)
        lr = 0.25
        cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=lr,
                          weight_decay=0.0, seed=0)
        trained = fit(start, data, cfg)

        w = start.parameters[:6].reshape(3, 2).copy()
        b = start.parameters[6:].copy()
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for i in range(8):
            logits = [sum(X[i][j] * w[j][k] for j in range(3)) + b[k] for k in range(2)]
            mx = max(logits)
            exps = [math.exp(v - mx) for v in logits]
            total = sum(exps)
            probs = [e / total for e in exps]
            for k in range(2):
                delta = probs[k] - (1.0 if k == y[i] else 0.0)
                for j in range(3):
                    gw[j][k] += X[i][j] * delta / 8
                gb[k] += delta / 8
        expected = np.concatenate([(w - lr * gw).ravel(), b - lr * gb])
        assert trained.parameters == pytest.approx(expected, abs=1e-12)

    def test_lr_schedule_changes_training(self):
        data = two_blob_dataset()
        spec = ClassifierSpec(kind="linear", input_dim=2, num_classes=2, seed=3)
        base = TrainConfig(epochs=20, batch_size=32, learning_rate=0.01,
                           lr_decay_gamma=1.0, lr_decay_every_epochs=5, seed=5)
        decayed = TrainConfig(epochs=20, batch_size=32, learning_rate=0.01,
                              lr_decay_gamma=0.3, lr_decay_every_epochs=5, seed=5)
        a = fit(init_model(spec), data, base)
        b = fit(init_model(spec), data, decayed)
        assert not np.array_equal(a.parameters, b.parameters)

    def test_fingerprint_tracks_inputs(self):
        data = two_blob_dataset()
        other = generate_blobs(num_classes=2, per_class=150, dim=2, spread=0.5,
                               overlap=0.0, seed=12)
        spec = ClassifierSpec(kind="linear", input_dim=2, num_classes=2, seed=3)
        cfg = TrainConfig(epochs=1, batch_size=64, learning_rate=0.01, seed=5)
        a = fit(init_model(spec), data, cfg)
        b = fit(init_model(spec), other, cfg)
        c = fit(init_model(spec), data, TrainConfig(epochs=2, batch_size=64,
                                                    learning_rate=0.01, seed=5))
        assert a.training_fingerprint != b.training_fingerprint
        assert a.training_fingerprint != c.training_fingerprint


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=0),
            dict(batch_size=0),
            dict(learning_rate=0.0),
            dict(lr_decay_gamma=0.0),
            dict(lr_decay_gamma=1.5),
            dict(lr_decay_every_epochs=0),
            dict(weight_decay=-1e-3),
            dict(epochs=2.5),
            dict(batch_size=64.0),
            dict(lr_decay_every_epochs="15"),
            dict(seed=1.5),
            dict(epochs=True),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(lr_decay_gamma=True),
            dict(weight_decay="0.01"),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidInputError):
            TrainConfig(**kwargs)

    def test_numpy_integer_counts_become_ints(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8),
                          lr_decay_every_epochs=np.int16(2), seed=np.uint8(5))
        counts = (cfg.epochs, cfg.batch_size, cfg.lr_decay_every_epochs, cfg.seed)
        assert counts == (3, 8, 2, 5)
        assert all(type(c) is int for c in counts)

    def test_numpy_and_integer_rates_become_floats(self):
        cfg = TrainConfig(learning_rate=np.float32(0.5), lr_decay_gamma=1,
                          weight_decay=np.int64(0))
        rates = (cfg.learning_rate, cfg.lr_decay_gamma, cfg.weight_decay)
        assert rates == (0.5, 1.0, 0.0)
        assert all(type(r) is float for r in rates)
