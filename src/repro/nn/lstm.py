"""LSTM cell and stacked LSTM with full backpropagation through time.

The LSTM follows Hochreiter & Schmidhuber's formulation (the paper's
reference [27]) with the standard fused-gate layout: one matmul per
timestep computes all four gates for the whole batch::

    gates = x_t @ W + h_{t-1} @ U + b          # (B, 4H)
    i, f, g, o = split(gates)
    c_t = sigmoid(f) * c_{t-1} + sigmoid(i) * tanh(g)
    h_t = sigmoid(o) * tanh(c_t)

Only the timestep loop remains in Python; everything inside it is a
batched NumPy operation (the hpc-parallel guide's vectorization idiom).
The forget-gate bias is initialized to 1, the usual trick that lets
memory persist early in training — important for the day/week-scale
dependencies HPC logs exhibit (Section 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..errors import ShapeError
from .activations import sigmoid, sigmoid_grad, sigmoid_infer, tanh, tanh_grad
from .contracts import tensor_contract
from .initializers import glorot_uniform, orthogonal, zeros

__all__ = ["LSTMCell", "StackedLSTM"]


class LSTMCell:
    """Single LSTM layer processing ``(batch, time, features)`` tensors."""

    def __init__(
        self, input_size: int, hidden_size: int, rng: np.random.Generator
    ) -> None:
        if input_size <= 0 or hidden_size <= 0:
            raise ShapeError(f"bad LSTM dims {input_size}->{hidden_size}")
        self.input_size = input_size
        self.hidden_size = hidden_size
        H = hidden_size
        self.W = glorot_uniform(rng, input_size, 4 * H)
        self.U = np.concatenate(
            [orthogonal(rng, H, H) for _ in range(4)], axis=1
        )
        self.b = zeros(4 * H)
        self.b[H : 2 * H] = 1.0  # forget-gate bias
        self.dW = np.zeros_like(self.W)
        self.dU = np.zeros_like(self.U)
        self.db = np.zeros_like(self.b)
        self._cache: Optional[dict] = None

    # ------------------------------------------------------------------
    @tensor_contract("(B, T, input_size):float -> (B, T, hidden_size):float")
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the cell over a batch of sequences from zero state.

        Parameters
        ----------
        x:
            Input tensor of shape ``(B, T, input_size)``.

        Returns
        -------
        Hidden states for every timestep, shape ``(B, T, hidden_size)``.
        """
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(
                f"LSTM expected (B, T, {self.input_size}), got {x.shape}"
            )
        B, T, _ = x.shape
        H = self.hidden_size
        h = np.zeros((B, H))
        c = np.zeros((B, H))

        # BPTT caches, time-major so each step's slice is one contiguous
        # block: the gate activations [sig(i)|sig(f)|tanh(g)|sig(o)] in
        # the fused layout, the cell states and their tanh.  Backward
        # reads the previous states back from these and from the output.
        acts = np.empty((T, B, 4 * H))
        cs = np.empty((T, B, H))
        tanh_cs = np.empty((T, B, H))
        hs = np.empty((B, T, H))

        # Precompute the input projection for all timesteps in one matmul.
        x_proj = x @ self.W  # (B, T, 4H)

        for t in range(T):
            gates = h @ self.U  # + x_proj[:, t] + b; addition commutes
            gates += x_proj[:, t]
            gates += self.b
            a = acts[t]
            # One sigmoid over all four blocks (elementwise, so i|f|o
            # are exact); the g block is then overwritten with its tanh.
            a[...] = sigmoid(gates)
            g = tanh(gates[:, 2 * H : 3 * H])
            a[:, 2 * H : 3 * H] = g
            c = np.multiply(a[:, H : 2 * H], c, out=cs[t])
            c += a[:, :H] * g
            tc = np.tanh(c, out=tanh_cs[t])
            h = a[:, 3 * H :] * tc
            hs[:, t] = h

        self._cache = {"x": x, "acts": acts, "c": cs, "tanh_c": tanh_cs, "h": hs}
        return hs

    @tensor_contract("(B, T, input_size):float -> (B, T, hidden_size):float")
    def forward_infer(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward: no BPTT caches, fused projections.

        Same input and output shapes as :meth:`forward`, but allocates
        nothing beyond the output, routes the input projection through
        one 2-D GEMM for all timesteps, and uses the branch-free
        inference sigmoid.  The i|f gate columns are adjacent in the
        fused layout, so a single :func:`sigmoid_infer` call covers
        both.  Outputs may differ from :meth:`forward` in the final ulp
        (see :func:`sigmoid_infer`); the scoring stack only ever
        compares inference-path outputs with each other.
        """
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(
                f"LSTM expected (B, T, {self.input_size}), got {x.shape}"
            )
        B, T, _ = x.shape
        H = self.hidden_size
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        flat = np.ascontiguousarray(x).reshape(B * T, self.input_size)
        x_proj = (flat @ self.W).reshape(B, T, 4 * H)
        hs = np.empty((B, T, H))
        for t in range(T):
            gates = x_proj[:, t] + h @ self.U
            gates += self.b
            i_f = sigmoid_infer(gates[:, : 2 * H])
            g = tanh(gates[:, 2 * H : 3 * H])
            o = sigmoid_infer(gates[:, 3 * H :])
            c = i_f[:, H:] * c + i_f[:, :H] * g
            h = o * tanh(c)
            hs[:, t] = h
        return hs

    # ------------------------------------------------------------------
    @tensor_contract("(B, T, hidden_size):float -> (B, T, input_size):float")
    def backward(self, dh_all: np.ndarray) -> np.ndarray:
        """BPTT given upstream gradients for every timestep's hidden state.

        Parameters
        ----------
        dh_all:
            Gradient of the loss w.r.t. the forward output, shape
            ``(B, T, hidden_size)``.

        Returns
        -------
        Gradient w.r.t. the input, shape ``(B, T, input_size)``.
        Parameter gradients are accumulated into ``dW``/``dU``/``db``.
        """
        if self._cache is None:
            raise ShapeError("LSTMCell.backward called before forward")
        cache = self._cache
        x = cache["x"]
        B, T, _ = x.shape
        H = self.hidden_size
        if dh_all.shape != (B, T, H):
            raise ShapeError(
                f"dh_all must be ({B}, {T}, {H}), got {dh_all.shape}"
            )

        acts, cs, tanh_cs, hs = cache["acts"], cache["c"], cache["tanh_c"], cache["h"]
        # Activation derivatives for every timestep at once.
        dacts = sigmoid_grad(acts)
        dacts[..., 2 * H : 3 * H] = tanh_grad(acts[..., 2 * H : 3 * H])
        dtanh_cs = tanh_grad(tanh_cs)

        zero_state = np.zeros((B, H))
        dx = np.empty((B, T, self.input_size))
        dh_next = zero_state
        dc_next = zero_state
        dgates = np.empty((B, 4 * H))

        for t in range(T - 1, -1, -1):
            a = acts[t]
            c_prev = cs[t - 1] if t else zero_state
            h_prev = hs[:, t - 1] if t else zero_state

            dh = dh_all[:, t] + dh_next
            dc = dh * a[:, 3 * H :]
            dc *= dtanh_cs[t]
            dc += dc_next

            # Gate blocks: dc * g, dc * c_prev, dc * i, dh * tanh(c),
            # each then times its activation derivative.
            np.multiply(dc, a[:, 2 * H : 3 * H], out=dgates[:, :H])
            np.multiply(dc, c_prev, out=dgates[:, H : 2 * H])
            np.multiply(dc, a[:, :H], out=dgates[:, 2 * H : 3 * H])
            np.multiply(dh, tanh_cs[t], out=dgates[:, 3 * H :])
            dgates *= dacts[t]

            self.dW += x[:, t].T @ dgates
            self.dU += h_prev.T @ dgates
            self.db += dgates.sum(axis=0)

            np.matmul(dgates, self.W.T, out=dx[:, t])
            dh_next = dgates @ self.U.T
            dc_next = dc * a[:, H : 2 * H]

        return dx

    # ------------------------------------------------------------------
    def params(self) -> Dict[str, np.ndarray]:
        """Live views of the gate parameter arrays."""
        return {"W": self.W, "U": self.U, "b": self.b}

    def grads(self) -> Dict[str, np.ndarray]:
        """Gradient accumulators matching :meth:`params`."""
        return {"W": self.dW, "U": self.dU, "b": self.db}

    def zero_grad(self) -> None:
        """Clear the gradient accumulators in place."""
        self.dW[...] = 0.0
        self.dU[...] = 0.0
        self.db[...] = 0.0


class StackedLSTM:
    """Multiple LSTM layers, each feeding the next (Figure 1b).

    The paper uses two hidden layers: "More than 1 hidden layer
    strengthens LSTM's efficacy to remember past phrases" (Section 3.1).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int,
        rng: np.random.Generator,
    ) -> None:
        if num_layers < 1:
            raise ShapeError(f"num_layers must be >= 1, got {num_layers}")
        self.layers: List[LSTMCell] = []
        size = input_size
        for _ in range(num_layers):
            self.layers.append(LSTMCell(size, hidden_size, rng))
            size = hidden_size
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers

    @tensor_contract("(B, T, input_size):float -> (B, T, hidden_size):float")
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Pass ``(B, T, input_size)`` through all layers; returns top-layer states."""
        h = x
        for layer in self.layers:
            h = layer.forward(h)
        return h

    @tensor_contract("(B, T, input_size):float -> (B, T, hidden_size):float")
    def forward_infer(self, x: np.ndarray) -> np.ndarray:
        """Cache-free inference forward through all layers (batch-major)."""
        h = x
        for layer in self.layers:
            h = layer.forward_infer(h)
        return h

    @tensor_contract("(B, T, hidden_size):float -> (B, T, input_size):float")
    def backward(self, dh: np.ndarray) -> np.ndarray:
        """Backprop through all layers; returns gradient w.r.t. the input."""
        for layer in reversed(self.layers):
            dh = layer.backward(dh)
        return dh

    def params(self) -> Dict[str, np.ndarray]:
        """All layers' parameters, namespaced as ``l<idx>.<name>``."""
        out: Dict[str, np.ndarray] = {}
        for idx, layer in enumerate(self.layers):
            for name, arr in layer.params().items():
                out[f"l{idx}.{name}"] = arr
        return out

    def grads(self) -> Dict[str, np.ndarray]:
        """All layers' gradients, namespaced like :meth:`params`."""
        out: Dict[str, np.ndarray] = {}
        for idx, layer in enumerate(self.layers):
            for name, arr in layer.grads().items():
                out[f"l{idx}.{name}"] = arr
        return out

    def zero_grad(self) -> None:
        """Clear every layer's gradient accumulators."""
        for layer in self.layers:
            layer.zero_grad()
