from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conf_ensemble import (
    InvalidInputError,
    Prediction,
    expected_calibration_error,
    score_histogram,
    top1_accuracy,
)
from conf_ensemble.builder import member_prediction_arrays
from conf_ensemble.metrics import bin_indices


def pred(cls, p=0.9):
    return Prediction(class_index=cls, top_probability=p, uncertainty=min(p, 1 - p))


class TestTop1Accuracy:
    def test_all_correct(self):
        assert top1_accuracy([pred(0), pred(1)], [0, 1]) == 1.0

    def test_half_correct(self):
        assert top1_accuracy([pred(0), pred(0), pred(1), pred(1)], [0, 1, 1, 0]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            top1_accuracy([pred(0)], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            top1_accuracy([], [])

    def test_matches_recount_oracle(self, blobs3, trained_m0):
        cls, top, unc = member_prediction_arrays(trained_m0, blobs3.features)
        chosen = [
            Prediction(class_index=int(c), top_probability=float(p), uncertainty=float(u))
            for c, p, u in zip(cls, top, unc)
        ]
        value = top1_accuracy(chosen, list(blobs3.labels))
        hits = 0
        for c, label in zip(cls, blobs3.labels):
            if int(c) == int(label):
                hits += 1
        assert value == hits / len(blobs3)


class TestExpectedCalibrationError:
    def test_hand_example_single_bin(self):
        report = expected_calibration_error([0.8, 0.6], [True, False], num_bins=1)
        assert report.ece == abs(0.5 - (0.8 + 0.6) / 2)
        assert report.ece == pytest.approx(0.2, abs=1e-12)

    def test_perfectly_calibrated(self):
        report = expected_calibration_error([1.0] * 50, [True] * 50, num_bins=15)
        assert report.ece == 0.0

    def test_confidently_wrong(self):
        report = expected_calibration_error([1.0] * 50, [False] * 50, num_bins=15)
        assert report.ece == 1.0

    def test_empty_bins_contribute_zero(self):
        report = expected_calibration_error([0.95, 0.9], [True, True], num_bins=10)
        assert sum(1 for c in report.bin_counts if c > 0) == 1
        assert report.bin_weights[-1] == 1.0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        probs = rng.uniform(0, 1, 200)
        correct = rng.uniform(0, 1, 200) < probs
        report = expected_calibration_error(probs, correct, num_bins=15)
        assert sum(report.bin_weights) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= report.ece <= 1.0

    def test_single_bin_reduces_to_accuracy_vs_confidence(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            probs = rng.uniform(0, 1, n)
            correct = rng.uniform(0, 1, n) < 0.5
            report = expected_calibration_error(probs, correct, num_bins=1)
            assert report.ece == pytest.approx(
                abs(correct.mean() - probs.mean()), abs=1e-12
            )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        probs = rng.uniform(0, 1, 100)
        correct = rng.uniform(0, 1, 100) < probs
        base = expected_calibration_error(probs, correct, num_bins=15).ece
        perm = rng.permutation(100)
        shuffled = expected_calibration_error(probs[perm], correct[perm], num_bins=15).ece
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            expected_calibration_error([0.5], [True], num_bins=0)
        with pytest.raises(InvalidInputError):
            expected_calibration_error([0.5, 0.4], [True], num_bins=5)
        with pytest.raises(InvalidInputError):
            expected_calibration_error([], [], num_bins=5)
        with pytest.raises(InvalidInputError):
            expected_calibration_error([1.2], [True], num_bins=5)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1.0), st.booleans()),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=30),
    )
    def test_range_property(self, pairs, num_bins):
        probs = [p for p, _ in pairs]
        correct = [c for _, c in pairs]
        report = expected_calibration_error(probs, correct, num_bins=num_bins)
        assert 0.0 <= report.ece <= 1.0


class TestScoreHistogram:
    def test_identical_scores_occupy_one_bin(self):
        hist = score_histogram([0.3] * 7, [True] * 7, kind="uncertainty", bins=5)
        non_empty = [
            i for i in range(5)
            if hist.correct_counts[i] + hist.incorrect_counts[i] > 0
        ]
        assert len(non_empty) == 1
        assert hist.total == 7

    def test_direct_placement(self):
        hist = score_histogram([0.05, 0.45], [True, False], kind="uncertainty", bins=5)
        assert hist.correct_counts == (1, 0, 0, 0, 0)
        assert hist.incorrect_counts == (0, 0, 0, 0, 1)

    def test_top_of_range_lands_in_last_bin(self):
        hist = score_histogram([0.5], [True], kind="uncertainty", bins=5)
        assert hist.correct_counts[-1] == 1
        hist = score_histogram([1.0], [True], kind="top_probability", bins=4)
        assert hist.correct_counts[-1] == 1

    def test_out_of_range_names_index(self):
        with pytest.raises(InvalidInputError, match="index 1"):
            score_histogram([0.1, 0.7], [True, True], kind="uncertainty", bins=5)

    def test_empty_input_counts_nothing(self):
        hist = score_histogram([], [], kind="uncertainty", bins=4)
        assert hist.correct_counts == (0, 0, 0, 0)
        assert hist.incorrect_counts == (0, 0, 0, 0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            score_histogram([0.1], [True], kind="entropy", bins=5)

    def test_total_preserved_and_permutation_invariant(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(0, 0.5, 300)
        correct = rng.uniform(0, 1, 300) < 0.7
        hist = score_histogram(scores, correct, kind="uncertainty", bins=12)
        assert hist.total == 300
        perm = rng.permutation(300)
        shuffled = score_histogram(scores[perm], correct[perm], kind="uncertainty", bins=12)
        assert shuffled == hist

    def test_matches_recount_oracle(self, blobs3, trained_m0):
        _, _, unc = member_prediction_arrays(trained_m0, blobs3.features)
        cls, _, _ = member_prediction_arrays(trained_m0, blobs3.features)
        correct = cls == blobs3.labels
        bins = 10
        hist = score_histogram(unc, correct, kind="uncertainty", bins=bins)
        width = 0.5 / bins
        good = [0] * bins
        bad = [0] * bins
        for u, ok in zip(unc, correct):
            b = min(int(u / width), bins - 1)
            if ok:
                good[b] += 1
            else:
                bad[b] += 1
        assert hist.correct_counts == tuple(good)
        assert hist.incorrect_counts == tuple(bad)

    def test_csv_round_trippable_rows(self, tmp_path):
        hist = score_histogram([0.1, 0.2, 0.3], [True, False, True],
                               kind="uncertainty", bins=4)
        path = tmp_path / "hist.csv"
        hist.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,correct,incorrect"
        assert len(lines) == 5


class TestBinningConsistency:
    def test_same_bin_for_ece_and_histogram(self):
        rng = np.random.default_rng(21)
        probs = rng.uniform(0, 1, 500)
        correct = rng.uniform(0, 1, 500) < probs
        k = 15
        report = expected_calibration_error(probs, correct, num_bins=k)
        hist = score_histogram(probs, correct, kind="top_probability", bins=k)
        per_bin_totals = tuple(
            c + i for c, i in zip(hist.correct_counts, hist.incorrect_counts)
        )
        assert per_bin_totals == report.bin_counts

    def test_interior_edge_goes_to_upper_bin(self):
        idx = bin_indices(np.asarray([0.2]), 0.0, 1.0, 5)
        assert idx[0] == 1
