"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conf_ensemble import (
    BuildConfig,
    Dataset,
    DegenerateSubsetError,
    RuntimeConfig,
    batch_evaluate,
    build_ensemble,
    expected_calibration_error,
    load_manifest,
    save_manifest,
)
from conf_ensemble.builder import _filter_pool
from conf_ensemble.cascade import member_prediction_arrays
from conf_ensemble.errors import ManifestDigestError
from conf_ensemble.persist import WEIGHTS_FILE
from conf_ensemble.classifiers import ClassifierSpec, init_model

from conftest import (
    MLP_ARCH,
    TRAIN,
    gradient,
    member_with_uncertainty,
    objective,
    stub_manifest,
)
from oracles import (
    artifact_digests,
    cascade_replay,
    manifests_equal,
    predict_logits,
    record_row,
    softmax,
    uncertainty,
)

TRAINING_GRID = (0.2, 0.1, 0.01)
RUNTIME_GRID = (0.4, 0.2, 0.1, 0.01)


@contextmanager
def criterion(number: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_numerics_suite():
    with criterion(1, "numerics suite"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)

        # 10,000 random probability vectors vs a brute-force evaluator.
        for _ in range(10_000):
            n = int(rng.integers(2, 12))
            raw = rng.uniform(1e-6, 1.0, n)
            probs = raw / raw.sum()
            u = uncertainty(probs)
            top = max(float(v) for v in probs)  # brute force, plain python
            expected = top if top <= 1.0 - top else 1.0 - top
            assert u == expected
            assert 0.0 <= u <= 0.5

        # softmax normalization and shift invariance on random logits
        for _ in range(200):
            logits = rng.uniform(-50, 50, int(rng.integers(2, 12)))
            out = softmax(logits)
            assert abs(float(out.sum()) - 1.0) <= 1e-9
            shifted = softmax(logits + float(rng.uniform(-100, 100)))
            assert np.max(np.abs(shifted - out)) <= 1e-9

        assert time.perf_counter() - started < 1.0


def test_criterion_2_gradient_check():
    with criterion(2, "gradient check"):
        started = time.perf_counter()
        rng = np.random.default_rng(202)
        h = 1e-5
        for trial in range(24):
            kind = "linear" if trial % 2 == 0 else "mlp"
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 5))
            hidden = int(rng.integers(1, 5)) if kind == "mlp" else None
            spec = ClassifierSpec(kind=kind, input_dim=m, num_classes=n,
                                  hidden_units=hidden, seed=int(rng.integers(1 << 30)))
            params = init_model(spec).parameters + 0.1 * rng.standard_normal(
                spec.param_count()
            )
            X = rng.standard_normal((5, m))
            y = rng.integers(0, n, size=5)
            wd = float(rng.choice([0.0, 1e-2]))
            analytic = gradient(spec, params, X, y, wd)
            numeric = np.zeros_like(params)
            for i in range(params.size):
                bumped = params.copy()
                bumped[i] += h
                hi = objective(spec, bumped, X, y, wd)
                bumped[i] -= 2 * h
                lo = objective(spec, bumped, X, y, wd)
                numeric[i] = (hi - lo) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / (
                np.linalg.norm(analytic) + np.linalg.norm(numeric) + 1e-12
            )
            assert rel < 1e-4, f"instance {trial}: relative error {rel}"
        assert time.perf_counter() - started < 10.0


def test_criterion_3_selection_rules(blobs3, trained_m0):
    with criterion(3, "selection-rule oracle"):
        full = blobs3.all_indices()
        unc = member_prediction_arrays(trained_m0, blobs3.features)[2]

        # independent per-sample filter oracle
        def oracle(pool, member, threshold):
            kept = []
            for i in pool.tolist():
                u = uncertainty(softmax(predict_logits(member, blobs3.features[i])))
                if u > threshold:
                    kept.append(i)
            return kept

        for threshold in (0.02, 0.1, 0.25):
            # at level 1 the previous pool (nested) is the full pool (rebased)
            nested = _filter_pool(full, unc, threshold)
            rebased = _filter_pool(full, unc, threshold)
            expected = oracle(full, trained_m0, threshold)
            assert nested.tolist() == expected
            assert rebased.tolist() == expected
            assert nested.tolist() == rebased.tolist()  # level-1 equivalence

        # nesting on an actual nested build
        cfg = BuildConfig(num_members=3, training_thresholds=(0.01, 0.01),
                          **MLP_ARCH, train_config=TRAIN,
                          selection_rule="nested")
        _, report = build_ensemble(blobs3, cfg)
        pools = [set(m.subset_indices) for m in report.members]
        assert pools[2] <= pools[1] <= pools[0]

        # threshold monotonicity across a sweep of 10 thresholds
        sweep = np.linspace(0.0, 0.45, 10)
        picks = [
            set(_filter_pool(full, unc, float(t)).tolist())
            for t in sweep
        ]
        for low, high in zip(picks, picks[1:]):
            assert high <= low


def test_criterion_4_degenerate_boundaries(blobs3, trained_m0):
    with criterion(4, "degenerate boundaries"):
        # training threshold 0.5 -> degenerate-subset build error
        cfg = BuildConfig(num_members=2, training_thresholds=(0.5,),
                          **MLP_ARCH, train_config=TRAIN)
        with pytest.raises(DegenerateSubsetError):
            build_ensemble(blobs3, cfg)

        # runtime threshold above max observed U -> bit-equal to baseline
        second = member_with_uncertainty(0.3, num_classes=3, input_dim=4)
        manifest = stub_manifest([trained_m0, second])
        cls0, _, u0 = member_prediction_arrays(trained_m0, blobs3.features)
        assert float(u0.max()) < 0.5
        record = batch_evaluate(
            manifest, RuntimeConfig(thresholds=(0.5, 0.5)), blobs3
        )
        baseline_accuracy = float((cls0 == blobs3.labels).mean())
        assert record.accuracy == baseline_accuracy
        assert record.level_counts[0] == len(blobs3)

        # all runtime thresholds 0 -> every sample routed to consensus
        record = batch_evaluate(
            manifest, RuntimeConfig(thresholds=(0.0, 0.0)), blobs3
        )
        assert record.consensus_count == len(blobs3)


def test_criterion_5_cascade_oracle():
    with criterion(5, "cascade oracle"):
        # Stub members score every row the same, and their U collides at
        # 0.2 and 0.25 (exactly 0.25 for two classes), with each other and
        # with the thresholds.
        rng = random.Random(555)
        x = [0.0, 0.0]
        answered = set()
        for trial in range(1000):
            size = rng.randint(1, 4)
            num_classes = rng.choice([2, 3, 4, 5])
            members = [
                member_with_uncertainty(
                    rng.choice([0.2, 0.25]) if rng.random() < 0.3 else rng.uniform(0.005, 0.5),
                    top_class=rng.randrange(num_classes), num_classes=num_classes)
                for _ in range(size)
            ]
            thresholds = tuple(
                rng.choice([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, rng.uniform(0, 0.5)])
                for _ in range(size)
            )
            rcfg = RuntimeConfig(thresholds=thresholds,
                                 consensus=rng.choice(["last_member", "most_confident"]))
            want = cascade_replay(members, thresholds, rcfg.consensus, x)

            data = Dataset(np.asarray([x] * 3), np.asarray([0, 1, 0]),
                           num_classes=num_classes, id="fix")
            record = batch_evaluate(stub_manifest(members), rcfg, data)
            # exact: levels, class, probability, U and the members consulted
            assert [record_row(record, i) for i in range(3)] == [want] * 3, f"trial {trial}"
            assert record.consulted.tolist() == [want.consulted] * 3
            counts = [0] * size
            if want.answering_level is not None:
                counts[want.answering_level] = 3
            assert record.level_counts == tuple(counts)
            assert record.consensus_count == 3 - sum(counts)
            answered.add(want.answering_level)
        assert answered == {None, 0, 1, 2, 3}


def test_criterion_6_ece_correctness():
    with criterion(6, "ECE correctness"):
        # 15 bins: 0.82 * 15 = 12.3 and 0.84 * 15 = 12.6 share bin 12, so
        # the ECE is |0.5 - 0.83|.
        report = expected_calibration_error([0.82, 0.84], [True, False])
        assert report.ece == abs(0.5 - (0.82 + 0.84) / 2)
        assert report.ece == pytest.approx(0.33, abs=1e-12)

        # 0.75 * 15 = 11.25 (bin 11) and 0.55 * 15 = 8.25 (bin 8), half the
        # weight each: 0.5 * |1 - 0.75| + 0.5 * |0 - 0.55| = 0.4.
        split = expected_calibration_error([0.75, 0.55], [True, False])
        assert split.ece == pytest.approx(0.4, abs=1e-12)

        perfect = expected_calibration_error([1.0] * 100, [True] * 100)
        assert perfect.ece < 1e-12

        wrong = expected_calibration_error([1.0] * 100, [False] * 100)
        assert wrong.ece == 1.0

        rng = np.random.default_rng(66)
        for _ in range(50):
            n = int(rng.integers(1, 80))
            k = int(rng.integers(0, 15))  # one bin, clear of its edges
            probs = rng.uniform((k + 0.01) / 15, (k + 0.99) / 15, n)
            correct = rng.uniform(0, 1, n) < 0.6
            single = expected_calibration_error(probs, correct)
            assert [b.count for b in single.bins if b.count] == [n]
            assert single.ece == pytest.approx(
                abs(float(correct.mean()) - float(probs.mean())), abs=1e-12
            )


def test_criterion_7_end_to_end_trends(blobs3):
    with criterion(7, "end-to-end trends"):
        started = time.perf_counter()
        assert blobs3.num_classes == 3
        assert 2 <= blobs3.feature_dim <= 10
        assert len(blobs3) >= 3000

        # (a) builds succeed across the training-threshold grid
        for t in TRAINING_GRID:
            cfg = BuildConfig(num_members=2, training_thresholds=(t,),
                              **MLP_ARCH, train_config=TRAIN)
            manifest, _ = build_ensemble(blobs3, cfg)
            assert manifest.num_members == 2
        rebased_cfg = BuildConfig(num_members=3, training_thresholds=(0.01, 0.01),
                                  **MLP_ARCH, train_config=TRAIN,
                                  selection_rule="rebased")
        rebased_manifest, rebased_report = build_ensemble(blobs3, rebased_cfg)
        assert rebased_manifest.num_members == 3

        # (b) nested pools strictly shrink
        nested_cfg = BuildConfig(num_members=3, training_thresholds=(0.01, 0.01),
                                 **MLP_ARCH, train_config=TRAIN,
                                 selection_rule="nested")
        _, nested_report = build_ensemble(blobs3, nested_cfg)
        sizes = nested_report.subset_sizes()
        assert sizes[0] > sizes[1] > sizes[2], sizes

        # (c) higher runtime thresholds resolve more samples at level 0
        level0 = {}
        for t in RUNTIME_GRID:
            record = batch_evaluate(
                rebased_manifest, RuntimeConfig.for_members((t,), 3), blobs3
            )
            level0[t] = record.level_counts[0]
        ordered = [level0[t] for t in sorted(RUNTIME_GRID)]
        assert ordered == sorted(ordered)
        assert level0[max(RUNTIME_GRID)] > level0[min(RUNTIME_GRID)]

        # ensemble-vs-baseline ordering is reported, not asserted
        cls0, _, _ = member_prediction_arrays(rebased_manifest.members[0],
                                              blobs3.features)
        baseline = float((cls0 == blobs3.labels).mean())
        best = max(
            batch_evaluate(
                rebased_manifest,
                RuntimeConfig.for_members((t,), 3, consensus=consensus),
                blobs3,
            ).accuracy
            for t in RUNTIME_GRID
            for consensus in ("last_member", "most_confident")
        )
        print(
            f"[acceptance] report: baseline accuracy {baseline:.4f}, "
            f"best ensemble accuracy {best:.4f} "
            f"({'ensemble ahead' if best > baseline else 'baseline ahead'})"
        )
        assert time.perf_counter() - started < 300.0


def test_criterion_8_persistence(blobs3, tmp_path):
    with criterion(8, "persistence"):
        cfg = BuildConfig(num_members=2, training_thresholds=(0.05,),
                          **MLP_ARCH, train_config=TRAIN,
                          selection_rule="rebased")
        manifest, _ = build_ensemble(blobs3, cfg)

        # round-trip identity
        save_manifest(manifest, tmp_path / "store")
        loaded = load_manifest(tmp_path / "store")
        assert manifests_equal(manifest, loaded)

        # digest verification catches corruption
        weights = tmp_path / "store" / WEIGHTS_FILE
        raw = bytearray(weights.read_bytes())
        raw[-3] ^= 0x01
        weights.write_bytes(bytes(raw))
        with pytest.raises(ManifestDigestError):
            load_manifest(tmp_path / "store")

        # rerun determinism of the full build pipeline
        for name in ("one", "two"):
            rebuilt, _ = build_ensemble(blobs3, cfg)
            save_manifest(rebuilt, tmp_path / name)
        assert artifact_digests(tmp_path / "one") == artifact_digests(tmp_path / "two")
