"""Bit-exactness of the training kernels against their reference forms.

The training kernels (the training ``sigmoid``, the flat SGNS/embedding
scatter, ``LSTMCell.forward``/``backward``, ``RMSprop._update``) are
written for speed, but trained weights, pipeline cache fingerprints and
checkpoint resumes depend on every bit they produce.  This file keeps
the straightforward formulations as test-local oracles — the
two-branch masked sigmoid, the row-wise ``np.add.at``, the per-step
LSTM with copied caches and a per-step input-gradient GEMM, and the
one-expression RMSprop update — and requires ``tobytes()`` equality
with the production code, kernel by kernel and over whole ``fit`` runs.
The last group shows the comparison is sharp: a 1-ulp change to any
kernel changes the fitted weights.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.embeddings as embeddings_mod
import repro.nn.layers as layers_mod
import repro.nn.lstm as lstm_mod
from repro.config import EmbeddingConfig
from repro.nn import SequenceClassifier, SequenceRegressor, sigmoid
from repro.nn.embeddings import SkipGramEmbedder
from repro.nn.layers import scatter_add_rows
from repro.nn.lstm import LSTMCell, StackedLSTM
from repro.nn.optimizers import RMSprop


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def oracle_sigmoid(x: np.ndarray) -> np.ndarray:
    """The two-branch masked sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def oracle_scatter_add_rows(table, ids, rows) -> None:
    """Row-wise ``np.add.at``."""
    np.add.at(table, np.reshape(ids, -1), np.reshape(rows, (-1, table.shape[1])))


def oracle_lstm_forward(self, x):
    """Per-step LSTM forward with per-step copies of every cache."""
    B, T, _ = x.shape
    H = self.hidden_size
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    hs = np.empty((B, T, H))
    cache = {k: np.empty((B, T, H)) for k in
             ("i", "f", "g", "o", "c", "tanh_c", "h_prev", "c_prev")}
    x_proj = x @ self.W
    for t in range(T):
        cache["h_prev"][:, t] = h
        cache["c_prev"][:, t] = c
        gates = x_proj[:, t] + h @ self.U + self.b
        i = oracle_sigmoid(gates[:, :H])
        f = oracle_sigmoid(gates[:, H : 2 * H])
        g = np.tanh(gates[:, 2 * H : 3 * H])
        o = oracle_sigmoid(gates[:, 3 * H :])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        for key, value in (("i", i), ("f", f), ("g", g), ("o", o),
                           ("c", c), ("tanh_c", tc)):
            cache[key][:, t] = value
        hs[:, t] = h
    cache["x"] = x
    self._cache = cache
    return hs


def oracle_lstm_backward(self, dh_all):
    """Per-step BPTT: per-step derivatives, dW/dU/db and dx GEMMs."""
    cache = self._cache
    x = cache["x"]
    B, T, _ = x.shape
    H = self.hidden_size
    dx = np.empty_like(x)
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    dgates = np.empty((B, 4 * H))
    for t in range(T - 1, -1, -1):
        i, f = cache["i"][:, t], cache["f"][:, t]
        g, o = cache["g"][:, t], cache["o"][:, t]
        tc = cache["tanh_c"][:, t]
        c_prev, h_prev = cache["c_prev"][:, t], cache["h_prev"][:, t]
        dh = dh_all[:, t] + dh_next
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dgates[:, :H] = dc * g * (i * (1.0 - i))
        dgates[:, H : 2 * H] = dc * c_prev * (f * (1.0 - f))
        dgates[:, 2 * H : 3 * H] = dc * i * (1.0 - g * g)
        dgates[:, 3 * H :] = dh * tc * (o * (1.0 - o))
        self.dW += x[:, t].T @ dgates
        self.dU += h_prev.T @ dgates
        self.db += dgates.sum(axis=0)
        dx[:, t] = dgates @ self.W.T
        dh_next = dgates @ self.U.T
        dc_next = dc * f
    return dx


def oracle_rmsprop_update(self, key, p, g) -> None:
    """RMSprop as two one-line expressions with fresh temporaries."""
    slot = self._slot(key, p, "s")
    s = slot["s"]
    s *= self.rho
    s += (1.0 - self.rho) * g * g
    p -= self.learning_rate * g / (np.sqrt(s) + self.eps)


def oracles(monkeypatch) -> None:
    """Swap every training kernel for its oracle."""
    monkeypatch.setattr(LSTMCell, "forward", oracle_lstm_forward)
    monkeypatch.setattr(LSTMCell, "backward", oracle_lstm_backward)
    monkeypatch.setattr(RMSprop, "_update", oracle_rmsprop_update)
    monkeypatch.setattr(embeddings_mod, "sigmoid", oracle_sigmoid)
    monkeypatch.setattr(embeddings_mod, "scatter_add_rows", oracle_scatter_add_rows)
    monkeypatch.setattr(layers_mod, "scatter_add_rows", oracle_scatter_add_rows)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def nan_with(sign: int, payload: int) -> np.float64:
    bits = (0xFFF8 if sign < 0 else 0x7FF8) << 48 | payload
    return np.frombuffer(np.uint64(bits).tobytes(), dtype=np.float64)[0]


EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, nan_with(1, 0), nan_with(-1, 0),
    nan_with(1, 0x123), nan_with(-1, 0xABC), 745.2, -745.2, 746.0, -746.0,
    800.0, -800.0, 709.8, -709.8, 36.7, -36.7, 1e-320, -1e-320,
    np.finfo(np.float64).max, -np.finfo(np.float64).max,
    np.finfo(np.float64).tiny, -np.finfo(np.float64).tiny,
])


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
class TestSigmoid:
    def test_edge_values(self):
        with np.errstate(all="ignore"):
            assert same_bytes(sigmoid(EDGES), oracle_sigmoid(EDGES))

    @pytest.mark.parametrize("scale", [1.0, 8.0, 60.0, 1000.0])
    def test_random_matrices_and_strided_slices(self, scale):
        x = np.random.default_rng(int(scale)).standard_normal((33, 256)) * scale
        with np.errstate(all="ignore"):
            for view in (x, x[:, :128], x[:, 192:], x[::3, 5:70], x[0], x[:1]):
                assert same_bytes(sigmoid(view), oracle_sigmoid(view))

    def test_dtypes(self):
        x = np.random.default_rng(3).standard_normal(500) * 30
        for arr in (x.astype(np.float32), np.rint(x).astype(np.int64)):
            assert same_bytes(sigmoid(arr), oracle_sigmoid(arr))


class TestScatterAddRows:
    @pytest.mark.parametrize("n", [1, 7, 512, 2560])
    def test_matches_row_wise_add_at_with_duplicates(self, n):
        rng = np.random.default_rng(n)
        ids = rng.integers(0, 11, n)
        rows = rng.standard_normal((n, 6))
        a = rng.standard_normal((11, 6))
        b = a.copy()
        scatter_add_rows(a, ids, rows)
        oracle_scatter_add_rows(b, ids, rows)
        assert same_bytes(a, b)

    def test_multi_axis_ids(self):
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 4, (3, 5, 2))
        rows = rng.standard_normal((3, 5, 2, 7))
        a = np.zeros((4, 7))
        b = a.copy()
        scatter_add_rows(a, ids, rows)
        oracle_scatter_add_rows(b, ids, rows)
        assert same_bytes(a, b)

    def test_strided_table_is_updated_in_place(self):
        base = np.zeros((4, 6))
        scatter_add_rows(base[:, ::2], np.array([1, 1]), np.ones((2, 3)))
        assert base[1].tolist() == [2.0, 0.0, 2.0, 0.0, 2.0, 0.0]

    def test_rejects_table_without_flat_view(self):
        table = np.zeros((4, 6))[:, :3]
        with pytest.raises(ValueError):
            scatter_add_rows(table, np.array([0, 1]), np.ones((2, 3)))


def _lstm_pair(input_size, hidden_size, seed):
    a = LSTMCell(input_size, hidden_size, np.random.default_rng(seed))
    b = LSTMCell(input_size, hidden_size, np.random.default_rng(seed))
    for cell in (a, b):  # accumulate onto non-zero gradients
        for name, grad in cell.grads().items():
            grad[...] = np.random.default_rng(seed + len(name)).standard_normal(grad.shape)
    return a, b


class TestLSTMCell:
    @pytest.mark.parametrize("B", [1, 2, 5, 32])
    @pytest.mark.parametrize("T", [1, 3, 8])
    @pytest.mark.parametrize("dims", [(1, 4), (33, 64), (12, 16)])
    def test_forward_backward_match_oracle(self, B, T, dims):
        I, H = dims
        cell, ref = _lstm_pair(I, H, seed=B * 100 + T)
        rng = np.random.default_rng(B + T + I)
        x = rng.standard_normal((B, T, I)) * 3
        dh = rng.standard_normal((B, T, H))
        assert same_bytes(cell.forward(x), oracle_lstm_forward(ref, x))
        assert same_bytes(cell.backward(dh), oracle_lstm_backward(ref, dh))
        for name in ("W", "U", "b"):
            assert same_bytes(cell.grads()[name], ref.grads()[name]), name

    @pytest.mark.parametrize("special", [np.inf, 1e300])
    def test_saturated_and_infinite_inputs(self, special):
        cell, ref = _lstm_pair(3, 5, seed=9)
        x = np.array([[[800.0, -800.0, 0.0], [-0.0, 745.5, -745.5],
                       [special, 1.0, 2.0], [0.3, -1.0, 0.5]]])
        x = np.concatenate([x, -x])
        dh = np.random.default_rng(2).standard_normal((2, 4, 5))
        with np.errstate(all="ignore"):
            assert same_bytes(cell.forward(x), oracle_lstm_forward(ref, x))
            assert same_bytes(cell.backward(dh), oracle_lstm_backward(ref, dh))
        for name in ("W", "U", "b"):
            assert same_bytes(cell.grads()[name], ref.grads()[name]), name

    def test_nan_input_matches_bits_outside_nans(self):
        """A NaN must land exactly where the oracle's do; the sign and
        payload of a NaN are not compared, because NumPy picks which of
        two NaN operands survives by array length and layout (its scalar
        tail loops may swap commutative operands), so the oracle's own
        NaN bits change with the batch shape."""
        cell, ref = _lstm_pair(3, 5, seed=9)
        x = np.random.default_rng(3).standard_normal((2, 4, 3))
        x[1, 2, 0] = np.nan
        dh = np.random.default_rng(2).standard_normal((2, 4, 5))
        with np.errstate(all="ignore"):
            pairs = [(cell.forward(x), oracle_lstm_forward(ref, x)),
                     (cell.backward(dh), oracle_lstm_backward(ref, dh))]
        pairs += [(cell.grads()[n], ref.grads()[n]) for n in ("W", "U", "b")]
        for got, want in pairs:
            nan = np.isnan(want)
            assert nan.any()
            assert np.array_equal(np.isnan(got), nan)
            assert same_bytes(got[~nan], want[~nan])

    def test_stacked_layers_match_oracle(self, monkeypatch):
        """Three layers: each layer's input gradient feeds the next."""
        x = np.random.default_rng(4).standard_normal((6, 5, 7))
        dh = np.random.default_rng(5).standard_normal((6, 5, 8))
        results = []
        for patched in (False, True):
            with monkeypatch.context() as m:
                if patched:
                    oracles(m)
                net = StackedLSTM(7, 8, 3, np.random.default_rng(0))
                hs = net.forward(x)
                dx = net.backward(dh)
                results.append([hs, dx, *net.grads().values()])
        assert all(same_bytes(a, b) for a, b in zip(*results))


class TestRMSprop:
    def test_update_matches_oracle_over_steps(self):
        rng = np.random.default_rng(8)
        p1 = rng.standard_normal((33, 256))
        p2 = p1.copy()
        new, ref = RMSprop(0.01, rho=0.9), RMSprop(0.01, rho=0.9)
        for _ in range(5):
            g = rng.standard_normal(p1.shape) * rng.choice([1e-9, 1.0, 1e6])
            new._update("w", p1, g)
            oracle_rmsprop_update(ref, "w", p2, g)
            assert same_bytes(p1, p2)
            assert same_bytes(new._state["w"]["s"], ref._state["w"]["s"])


# ----------------------------------------------------------------------
# whole fits
# ----------------------------------------------------------------------
def _fit_regressor():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((45, 5, 6))
    y = rng.standard_normal((45, 6))
    model = SequenceRegressor(6, hidden_size=16, num_layers=2, seed=3)
    model.fit(x, y, epochs=3, batch_size=8, optimizer=RMSprop(0.01),
              rng=np.random.default_rng(1))
    return [*model.params().values(), np.array(model.history)]


def _fit_classifier():
    rng = np.random.default_rng(12)
    x = rng.integers(0, 9, (37, 6))
    y = rng.integers(0, 9, (37, 2))
    model = SequenceClassifier(9, embed_dim=5, hidden_size=12, num_layers=2,
                               steps=2, seed=4)
    model.fit(x, y, epochs=3, batch_size=8, optimizer=RMSprop(0.01),
              rng=np.random.default_rng(2))
    return [*model.params().values(), np.array(model.history)]


def _fit_embedder():
    rng = np.random.default_rng(13)
    seqs = [rng.integers(0, 20, n) for n in (40, 3, 25, 60)]
    cfg = EmbeddingConfig(dim=8, epochs=2, batch_size=64)
    emb = SkipGramEmbedder(20, cfg).fit(seqs, np.random.default_rng(3))
    return list(emb.state_arrays().values())


FITS = {"regressor": _fit_regressor, "classifier": _fit_classifier,
        "embedder": _fit_embedder}


def _oracle_fit(monkeypatch, fit):
    with monkeypatch.context() as m:
        oracles(m)
        return fit()


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_matches_oracle_fit(name, monkeypatch):
    fit = FITS[name]
    got, want = fit(), _oracle_fit(monkeypatch, fit)
    assert len(got) == len(want)
    assert all(same_bytes(a, b) for a, b in zip(got, want))


def _nudged(kernel):
    """*kernel* with the first output element moved up by one ulp."""
    def wrapper(*args, **kwargs):
        out = kernel(*args, **kwargs)
        first = (0,) * out.ndim
        out[first] = np.nextafter(out[first], np.inf)
        return out
    return wrapper


RMSPROP_UPDATE = RMSprop._update


def _nudged_update(self, key, p, g):
    RMSPROP_UPDATE(self, key, p, g)
    p.reshape(-1)[0] = np.nextafter(p.reshape(-1)[0], np.inf)


def _nudged_scatter(table, ids, rows):
    scatter_add_rows(table, ids, rows)
    table.reshape(-1)[0] = np.nextafter(table.reshape(-1)[0], np.inf)



@pytest.mark.parametrize("name,target,attr,replacement", [
    ("regressor", LSTMCell, "forward", _nudged(LSTMCell.forward)),
    ("regressor", LSTMCell, "backward", _nudged(LSTMCell.backward)),
    ("regressor", RMSprop, "_update", _nudged_update),
    ("classifier", lstm_mod, "sigmoid", _nudged(sigmoid)),
    ("classifier", layers_mod, "scatter_add_rows", _nudged_scatter),
    ("embedder", embeddings_mod, "sigmoid", _nudged(sigmoid)),
    ("embedder", embeddings_mod, "scatter_add_rows", _nudged_scatter),
], ids=["lstm-forward", "lstm-backward", "rmsprop", "lstm-sigmoid",
        "embedding-scatter", "sgns-sigmoid", "sgns-scatter"])
def test_one_ulp_kernel_change_is_detected(name, target, attr, replacement,
                                           monkeypatch):
    fit = FITS[name]
    want = _oracle_fit(monkeypatch, fit)
    with monkeypatch.context() as m:
        m.setattr(target, attr, replacement)
        got = fit()
    assert not all(same_bytes(a, b) for a, b in zip(got, want))
