"""Tests for activation functions: values, stability, derivatives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.activations import (
    log_softmax,
    relu,
    sigmoid,
    sigmoid_grad,
    softmax,
    tanh,
    tanh_grad,
)


finite_arrays = arrays(
    np.float64,
    st.integers(1, 20),
    elements=st.floats(-50, 50, allow_nan=False),
)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_symmetry(self):
        x = np.linspace(-5, 5, 11)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0)

    def test_extreme_values_stable(self):
        out = sigmoid(np.array([-1e6, 1e6]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)

    def test_grad_matches_numeric(self):
        x = np.linspace(-3, 3, 13)
        eps = 1e-6
        numeric = (sigmoid(x + eps) - sigmoid(x - eps)) / (2 * eps)
        assert np.allclose(sigmoid_grad(sigmoid(x)), numeric, atol=1e-8)

    @given(finite_arrays)
    def test_property_range(self, x):
        y = sigmoid(x)
        assert np.all((y >= 0) & (y <= 1))


class TestTanh:
    def test_grad_matches_numeric(self):
        x = np.linspace(-3, 3, 13)
        eps = 1e-6
        numeric = (tanh(x + eps) - tanh(x - eps)) / (2 * eps)
        assert np.allclose(tanh_grad(tanh(x)), numeric, atol=1e-8)


class TestRelu:
    def test_values(self):
        assert np.array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


class TestSoftmax:
    def test_sums_to_one(self):
        x = np.random.default_rng(0).standard_normal((4, 7))
        assert np.allclose(softmax(x).sum(axis=-1), 1.0)

    def test_invariant_to_shift(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_extreme_logits_stable(self):
        out = softmax(np.array([[1e4, -1e4, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(1).standard_normal((3, 5))
        assert np.allclose(log_softmax(x), np.log(softmax(x)))

    def test_axis_argument(self):
        x = np.random.default_rng(2).standard_normal((3, 5))
        assert np.allclose(softmax(x, axis=0).sum(axis=0), 1.0)

    @given(finite_arrays)
    def test_property_distribution(self, x):
        y = softmax(x)
        assert np.all(y >= 0)
        assert y.sum() == pytest.approx(1.0, abs=1e-9)
