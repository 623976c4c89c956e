from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conf_ensemble import InvalidInputError, expected_calibration_error, score_histogram
from conf_ensemble.cascade import member_prediction_arrays
from conf_ensemble.metrics import CalibrationBin, bin_indices

from oracles import histogram_csv_text


def draws_inside_one_bin(rng, n):
    """n probabilities inside one random calibration bin k, clear of its
    edges k/15 and (k+1)/15."""
    k = int(rng.integers(0, 15))
    return rng.uniform((k + 0.01) / 15, (k + 0.99) / 15, n)


class TestExpectedCalibrationError:
    def test_hand_example_single_bin(self):
        # 0.82 * 15 = 12.3 and 0.84 * 15 = 12.6: both in bin 12, so the
        # ECE is |accuracy - mean confidence| = |0.5 - 0.83|.
        report = expected_calibration_error([0.82, 0.84], [True, False])
        assert [b.count for b in report.bins] == [0] * 12 + [2] + [0] * 2
        assert report.ece == abs(0.5 - (0.82 + 0.84) / 2)
        assert report.ece == pytest.approx(0.33, abs=1e-12)

    def test_hand_example_two_bins(self):
        # 0.75 * 15 = 11.25 lands in bin 11, 0.55 * 15 = 8.25 in bin 8; each
        # bin weighs 1/2: 0.5 * |1 - 0.75| + 0.5 * |0 - 0.55| = 0.4.
        report = expected_calibration_error([0.75, 0.55], [True, False])
        assert report.bins[11] == CalibrationBin(1, 0.75, 1.0, 0.5)
        assert report.bins[8] == CalibrationBin(1, 0.55, 0.0, 0.5)
        assert report.ece == pytest.approx(0.4, abs=1e-12)

    def test_fifteen_bins(self):
        report = expected_calibration_error([0.5], [True])
        assert report.num_bins == len(report.bins) == 15

    def test_perfectly_calibrated(self):
        report = expected_calibration_error([1.0] * 50, [True] * 50)
        assert report.ece == 0.0

    def test_confidently_wrong(self):
        report = expected_calibration_error([1.0] * 50, [False] * 50)
        assert report.ece == 1.0

    def test_empty_bins_contribute_zero(self):
        # 0.95 * 15 = 14.25 and 0.97 * 15 = 14.55: both in the last bin.
        report = expected_calibration_error([0.95, 0.97], [True, True])
        assert report.bins[:-1] == (CalibrationBin(0, 0.0, 0.0, 0.0),) * 14
        assert report.bins[-1].weight == 1.0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        probs = rng.uniform(0, 1, 200)
        correct = rng.uniform(0, 1, 200) < probs
        report = expected_calibration_error(probs, correct)
        assert sum(b.weight for b in report.bins) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= report.ece <= 1.0

    def test_single_bin_reduces_to_accuracy_vs_confidence(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            probs = draws_inside_one_bin(rng, n)
            correct = rng.uniform(0, 1, n) < 0.5
            report = expected_calibration_error(probs, correct)
            assert sum(1 for b in report.bins if b.count) == 1
            assert report.ece == pytest.approx(
                abs(correct.mean() - probs.mean()), abs=1e-12
            )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        probs = rng.uniform(0, 1, 100)
        correct = rng.uniform(0, 1, 100) < probs
        base = expected_calibration_error(probs, correct).ece
        perm = rng.permutation(100)
        shuffled = expected_calibration_error(probs[perm], correct[perm]).ece
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            expected_calibration_error([0.5, 0.4], [True])
        with pytest.raises(InvalidInputError):
            expected_calibration_error([], [])
        with pytest.raises(InvalidInputError):
            expected_calibration_error([1.2], [True])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probability_is_rejected(self, bad):
        with pytest.raises(InvalidInputError,
                           match=rf"^top_probs value {bad} at index 0 is outside \[0, 1\]$"):
            expected_calibration_error([bad, 0.5], [True, False])

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1.0), st.booleans()),
            min_size=1,
            max_size=60,
        )
    )
    def test_range_property(self, pairs):
        probs = [p for p, _ in pairs]
        correct = [c for _, c in pairs]
        report = expected_calibration_error(probs, correct)
        assert 0.0 <= report.ece <= 1.0


class TestScoreHistogram:
    def test_identical_scores_occupy_one_bin(self):
        hist = score_histogram([0.3] * 7, [True] * 7, kind="uncertainty")
        non_empty = [
            i for i in range(20)
            if hist.correct_counts[i] + hist.incorrect_counts[i] > 0
        ]
        assert len(non_empty) == 1
        assert sum(hist.correct_counts + hist.incorrect_counts) == 7

    def test_direct_placement(self):
        # Uncertainty bins are 0.025 wide: 0.01 / 0.025 = 0.4, 0.26 / 0.025 = 10.4
        # and 0.49 / 0.025 = 19.6 land in bins 0, 10 and 19.
        hist = score_histogram([0.01, 0.26, 0.49], [True, True, False], kind="uncertainty")
        assert hist.correct_counts == (1,) + (0,) * 9 + (1,) + (0,) * 9
        assert hist.incorrect_counts == (0,) * 19 + (1,)
        assert hist.bin_edges[10:12] == (0.25, 0.275)

    def test_twenty_bins(self):
        for kind in ("uncertainty", "top_probability"):
            hist = score_histogram([0.1], [True], kind=kind)
            assert len(hist.correct_counts) == len(hist.bin_edges) - 1 == 20

    def test_top_of_range_lands_in_last_bin(self):
        hist = score_histogram([0.5], [True], kind="uncertainty")
        assert hist.correct_counts[-1] == 1
        hist = score_histogram([1.0], [True], kind="top_probability")
        assert hist.correct_counts[-1] == 1

    def test_out_of_range_names_index(self):
        with pytest.raises(InvalidInputError, match="index 1"):
            score_histogram([0.1, 0.7], [True, True], kind="uncertainty")

    @pytest.mark.parametrize("kind", ["uncertainty", "top_probability"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_is_rejected(self, kind, bad):
        with pytest.raises(InvalidInputError, match=f"scores value {bad} at index 1"):
            score_histogram([0.1, bad], [True, True], kind=kind)

    def test_empty_input_counts_nothing(self):
        hist = score_histogram([], [], kind="uncertainty")
        assert hist.correct_counts == (0,) * 20
        assert hist.incorrect_counts == (0,) * 20

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            score_histogram([0.1], [True], kind="entropy")

    def test_total_preserved_and_permutation_invariant(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(0, 0.5, 300)
        correct = rng.uniform(0, 1, 300) < 0.7
        hist = score_histogram(scores, correct, kind="uncertainty")
        assert sum(hist.correct_counts + hist.incorrect_counts) == 300
        perm = rng.permutation(300)
        shuffled = score_histogram(scores[perm], correct[perm], kind="uncertainty")
        assert shuffled == hist

    def test_matches_recount_oracle(self, blobs3, trained_m0):
        _, _, unc = member_prediction_arrays(trained_m0, blobs3.features)
        cls, _, _ = member_prediction_arrays(trained_m0, blobs3.features)
        correct = cls == blobs3.labels
        bins = 20
        hist = score_histogram(unc, correct, kind="uncertainty")
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
        hist = score_histogram([0.1, 0.2, 0.3], [True, False, True], kind="uncertainty")
        path = tmp_path / "hist.csv"
        hist.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,correct,incorrect"
        assert len(lines) == 21

    @pytest.mark.parametrize("kind", ["uncertainty", "top_probability"])
    def test_csv_matches_the_oracle(self, tmp_path, kind):
        # write_csv formats every bin from one template; the oracle writes
        # one csv.writer row per bin.
        rng = np.random.default_rng(4)
        low, high = {"uncertainty": (0.0, 0.5), "top_probability": (0.0, 1.0)}[kind]
        scores = np.concatenate([rng.uniform(low, high, 500), [low, high]])
        hist = score_histogram(scores, rng.random(502) < 0.7, kind=kind)
        hist.write_csv(tmp_path / "hist.csv")
        assert (tmp_path / "hist.csv").read_bytes() == histogram_csv_text(hist).encode("utf-8")


class TestBinningConsistency:
    def test_same_bin_for_ece_and_histogram(self):
        # Both views place a sample with bin_indices, at their own bin count.
        rng = np.random.default_rng(21)
        probs = rng.uniform(0, 1, 500)
        correct = rng.uniform(0, 1, 500) < probs
        report = expected_calibration_error(probs, correct)
        hist = score_histogram(probs, correct, kind="top_probability")
        per_bin_totals = tuple(
            c + i for c, i in zip(hist.correct_counts, hist.incorrect_counts)
        )
        assert tuple(b.count for b in report.bins) == tuple(
            np.bincount(bin_indices(probs, 0.0, 1.0, 15), minlength=15)
        )
        assert per_bin_totals == tuple(
            np.bincount(bin_indices(probs, 0.0, 1.0, 20), minlength=20)
        )

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=30),
    )
    def test_bin_indices_are_in_range_and_ordered(self, values, num_bins):
        values = np.sort(np.asarray(values))
        idx = bin_indices(values, 0.0, 1.0, num_bins)
        assert idx.min() >= 0 and idx.max() <= num_bins - 1
        assert np.all(np.diff(idx) >= 0)

    def test_interior_edge_goes_to_upper_bin(self):
        idx = bin_indices(np.asarray([0.2]), 0.0, 1.0, 5)
        assert idx[0] == 1
