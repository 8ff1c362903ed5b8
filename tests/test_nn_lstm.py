"""Tests for the LSTM cell and stacked LSTM, including full BPTT checks."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.lstm import LSTMCell, StackedLSTM


def numeric_grad(f, x, rng, samples=10, eps=1e-6):
    """Central differences at a random subset of positions."""
    flat = x.reshape(-1)
    idxs = rng.choice(flat.size, min(samples, flat.size), replace=False)
    out = {}
    for i in idxs:
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        out[int(i)] = (hi - lo) / (2 * eps)
    return out


class TestLSTMCellForward:
    def test_output_shape(self, rng):
        cell = LSTMCell(3, 5, rng)
        assert cell.forward(rng.standard_normal((4, 7, 3))).shape == (4, 7, 5)

    def test_rejects_wrong_input_dim(self, rng):
        with pytest.raises(ShapeError):
            LSTMCell(3, 5, rng).forward(np.ones((4, 7, 2)))

    def test_rejects_2d_input(self, rng):
        with pytest.raises(ShapeError):
            LSTMCell(3, 5, rng).forward(np.ones((4, 3)))

    def test_forget_gate_bias_initialized_to_one(self, rng):
        cell = LSTMCell(3, 5, rng)
        assert np.all(cell.b[5:10] == 1.0)
        assert not cell.b[:5].any()

    def test_outputs_bounded(self, rng):
        """h = o * tanh(c) with o in (0,1) implies |h| < 1."""
        cell = LSTMCell(3, 5, rng)
        h = cell.forward(10 * rng.standard_normal((2, 20, 3)))
        assert np.all(np.abs(h) < 1.0)

    def test_deterministic(self):
        a = LSTMCell(3, 5, np.random.default_rng(0))
        b = LSTMCell(3, 5, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 4, 3))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_state_carries_information(self, rng):
        """Changing an early input must affect later outputs (memory)."""
        cell = LSTMCell(2, 4, rng)
        x = rng.standard_normal((1, 10, 2))
        h1 = cell.forward(x).copy()
        x2 = x.copy()
        x2[0, 0] += 1.0
        h2 = cell.forward(x2)
        assert not np.allclose(h1[0, -1], h2[0, -1])


class TestLSTMCellBackward:
    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(ShapeError):
            LSTMCell(3, 5, rng).backward(np.ones((1, 1, 5)))

    def test_backward_shape(self, rng):
        cell = LSTMCell(3, 5, rng)
        x = rng.standard_normal((4, 7, 3))
        h = cell.forward(x)
        dx = cell.backward(np.ones_like(h))
        assert dx.shape == x.shape

    def test_backward_rejects_wrong_shape(self, rng):
        cell = LSTMCell(3, 5, rng)
        cell.forward(rng.standard_normal((4, 7, 3)))
        with pytest.raises(ShapeError):
            cell.backward(np.ones((4, 7, 4)))

    @pytest.mark.parametrize("param", ["W", "U", "b"])
    def test_parameter_gradients_match_numeric(self, param):
        rng = np.random.default_rng(7)
        cell = LSTMCell(3, 4, rng)
        x = rng.standard_normal((2, 6, 3))
        target = rng.standard_normal((2, 6, 4))

        def loss():
            return 0.5 * float(np.sum((cell.forward(x) - target) ** 2))

        h = cell.forward(x)
        cell.zero_grad()
        cell.backward(h - target)
        analytic = cell.grads()[param].reshape(-1)
        for i, num in numeric_grad(loss, cell.params()[param], rng).items():
            assert analytic[i] == pytest.approx(num, abs=1e-4, rel=1e-4)

    def test_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(8)
        cell = LSTMCell(3, 4, rng)
        x = rng.standard_normal((2, 6, 3))
        target = rng.standard_normal((2, 6, 4))

        def loss():
            return 0.5 * float(np.sum((cell.forward(x) - target) ** 2))

        h = cell.forward(x)
        cell.zero_grad()
        dx = cell.backward(h - target).reshape(-1)
        for i, num in numeric_grad(loss, x, rng).items():
            assert dx[i] == pytest.approx(num, abs=1e-4, rel=1e-4)


class TestStackedLSTM:
    def test_layer_sizes(self, rng):
        stack = StackedLSTM(3, 8, 2, rng)
        assert stack.layers[0].input_size == 3
        assert stack.layers[1].input_size == 8

    def test_forward_shape(self, rng):
        stack = StackedLSTM(3, 8, 2, rng)
        assert stack.forward(rng.standard_normal((4, 5, 3))).shape == (4, 5, 8)

    def test_rejects_zero_layers(self, rng):
        with pytest.raises(ShapeError):
            StackedLSTM(3, 8, 0, rng)

    def test_backward_shape(self, rng):
        stack = StackedLSTM(3, 8, 2, rng)
        x = rng.standard_normal((4, 5, 3))
        h = stack.forward(x)
        assert stack.backward(np.ones_like(h)).shape == x.shape

    def test_stacked_gradient_check(self):
        rng = np.random.default_rng(9)
        stack = StackedLSTM(2, 3, 2, rng)
        x = rng.standard_normal((2, 4, 2))
        target = rng.standard_normal((2, 4, 3))

        def loss():
            return 0.5 * float(np.sum((stack.forward(x) - target) ** 2))

        h = stack.forward(x)
        stack.zero_grad()
        stack.backward(h - target)
        params = stack.params()
        grads = stack.grads()
        for key in ("l0.W", "l1.U", "l0.b"):
            analytic = grads[key].reshape(-1)
            for i, num in numeric_grad(loss, params[key], rng, samples=6).items():
                assert analytic[i] == pytest.approx(num, abs=1e-4, rel=1e-4)

    def test_param_namespacing(self, rng):
        stack = StackedLSTM(3, 8, 2, rng)
        keys = set(stack.params())
        assert keys == {"l0.W", "l0.U", "l0.b", "l1.W", "l1.U", "l1.b"}

    def test_zero_grad_clears_all_layers(self, rng):
        stack = StackedLSTM(3, 8, 2, rng)
        x = rng.standard_normal((2, 4, 3))
        h = stack.forward(x)
        stack.backward(np.ones_like(h))
        stack.zero_grad()
        assert all(not g.any() for g in stack.grads().values())
