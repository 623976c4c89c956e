"""The score arithmetic: the one-vector references in oracles.py, and the
library's batch kernels (softmax_batch, member_prediction_arrays) checked
against the same properties and against the references row by row."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conf_ensemble import InvalidInputError
from conf_ensemble.cascade import member_prediction_arrays
from conf_ensemble.classifiers import _softmax_rows, softmax_batch

from conftest import identity_member
from oracles import softmax, uncertainty

# Frozen from an arbitrary-precision evaluation of exp(x_i)/sum_j exp(x_j).
SOFTMAX_123 = (0.0900305731704, 0.2447284710548, 0.6652409557748)


def prob_vectors(min_classes=2, max_classes=20):
    return (
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
            min_size=min_classes,
            max_size=max_classes,
        )
        .map(lambda xs: np.asarray(xs) / np.sum(xs))
    )


def logit_vectors(bound=300.0):
    return st.lists(
        st.floats(min_value=-bound, max_value=bound, allow_nan=False),
        min_size=2,
        max_size=20,
    )


def logit_matrices(bound=300.0, max_rows=8):
    """(n, K) logit matrices, 1 <= n <= max_rows and 2 <= K <= 20."""
    entry = st.floats(min_value=-bound, max_value=bound, allow_nan=False)
    return st.integers(min_value=2, max_value=20).flatmap(
        lambda k: st.lists(
            st.lists(entry, min_size=k, max_size=k), min_size=1, max_size=max_rows
        ).map(np.asarray)
    )


class TestSoftmax:
    def test_uniform_logits(self):
        assert softmax([0, 0, 0, 0]) == pytest.approx([0.25] * 4, abs=1e-12)

    def test_extreme_logits_do_not_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_reference_values(self):
        assert softmax([1, 2, 3]) == pytest.approx(SOFTMAX_123, abs=1e-7)

    def test_rejects_non_finite(self):
        # A diverged fit surfaces here, in the library kernel.
        for row in ([np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0]):
            with pytest.raises(InvalidInputError, match="non-finite"):
                softmax_batch(np.asarray([[0.0, 1.0], row]))

    @given(logit_vectors())
    def test_normalizes(self, logits):
        out = softmax(logits)
        assert abs(out.sum() - 1.0) <= 1e-9
        assert np.all(out > 0)

    @given(logit_vectors(bound=100.0), st.floats(min_value=-100, max_value=100))
    def test_shift_invariant(self, logits, c):
        base = softmax(logits)
        shifted = softmax(np.asarray(logits) + c)
        assert shifted == pytest.approx(base, abs=1e-9)


class TestSoftmaxBatch:
    def test_reference_values(self):
        out = softmax_batch(np.asarray([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]))
        assert out[0] == pytest.approx(SOFTMAX_123, abs=1e-7)
        assert out[1] == pytest.approx(np.asarray(SOFTMAX_123)[[2, 0, 1]], abs=1e-7)

    def test_extreme_logits_do_not_overflow(self):
        # Each row is shifted by its own max, whatever the other rows hold.
        out = softmax_batch(np.asarray([[1000.0, 0.0], [-1000.0, -1001.0], [0.0, 1000.0]]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert out[1] == pytest.approx(softmax([-1000.0, -1001.0]), abs=1e-12)
        assert out[2] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_rejects_a_vector(self):
        with pytest.raises(InvalidInputError, match="2-d logit matrix"):
            softmax_batch(np.asarray([1.0, 2.0]))

    @given(logit_matrices())
    def test_normalizes_rows(self, logits):
        out = softmax_batch(logits)
        assert out.shape == logits.shape
        assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(out >= 0)

    @given(logit_matrices(bound=100.0), st.floats(min_value=-100, max_value=100))
    def test_shift_invariant_rows(self, logits, c):
        assert softmax_batch(logits + c) == pytest.approx(softmax_batch(logits), abs=1e-9)

    @given(logit_matrices())
    def test_unchecked_kernel_matches_bit_for_bit(self, logits):
        # The training objective calls the kernel without softmax_batch's
        # checks; on valid input the two must not differ in a single bit.
        before = logits.copy()
        assert _softmax_rows(logits).tobytes() == softmax_batch(logits).tobytes()
        assert logits.tobytes() == before.tobytes()

    @given(logit_matrices())
    def test_rows_match_reference(self, logits):
        out = softmax_batch(logits)
        for row, want in zip(out, logits):
            assert row == pytest.approx(softmax(want), abs=1e-15)


class TestUncertainty:
    def test_confident_prediction(self):
        assert uncertainty([0.99, 0.01]) == pytest.approx(0.01)

    def test_maximum_unconfidence(self):
        assert uncertainty([0.5, 0.5]) == 0.5

    def test_near_uniform_many_classes(self):
        assert uncertainty(np.full(1000, 0.001)) == pytest.approx(0.001)

    @given(prob_vectors())
    def test_range_and_composition(self, probs):
        u = uncertainty(probs)
        p = float(np.max(probs))
        assert 0.0 <= u <= 0.5
        assert u == min(p, 1.0 - p)

    @given(prob_vectors())
    def test_half_iff_top_is_half(self, probs):
        u = uncertainty(probs)
        assert (u == 0.5) == (float(np.max(probs)) == 0.5)


class TestScoringKernel:
    """member_prediction_arrays on identity_member(K), whose logits are
    its input rows, agrees exactly with the references row by row."""

    @given(logit_matrices(bound=50.0))
    def test_rows_match_reference(self, logits):
        cls, top, unc = member_prediction_arrays(identity_member(logits.shape[1]), logits)
        for k, row in enumerate(logits):
            probs = softmax(row)
            assert cls[k] == int(np.argmax(probs))
            assert top[k] == probs[cls[k]]
            assert unc[k] == uncertainty(probs)
            assert 0.0 <= unc[k] <= 0.5

    def test_three_classes_flat_and_peaked_score_alike(self):
        # With K > 2, U = p when p < 0.5: a flatter prediction is not
        # scored as less confident.
        logits = np.log(np.asarray([[0.4, 0.35, 0.25], [0.6, 0.3, 0.1]]))
        _, top, unc = member_prediction_arrays(identity_member(3), logits)
        assert top == pytest.approx([0.4, 0.6], abs=1e-12)
        assert unc == pytest.approx([0.4, 0.4], abs=1e-12)
