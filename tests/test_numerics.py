from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conf_ensemble import InvalidInputError, softmax, uncertainty

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
        with pytest.raises(InvalidInputError):
            softmax([np.nan, 0.0])
        with pytest.raises(InvalidInputError):
            softmax([np.inf, 0.0])

    def test_rejects_single_class(self):
        with pytest.raises(InvalidInputError):
            softmax([1.0])

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


class TestUncertainty:
    def test_confident_prediction(self):
        assert uncertainty([0.99, 0.01]) == pytest.approx(0.01)

    def test_maximum_unconfidence(self):
        assert uncertainty([0.5, 0.5]) == 0.5

    def test_near_uniform_many_classes(self):
        assert uncertainty(np.full(1000, 0.001)) == pytest.approx(0.001)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            uncertainty([0.5, 0.6])
        with pytest.raises(InvalidInputError):
            uncertainty([-0.1, 1.1])

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
