"""Temporal convolutional network backbone (causal dilated Conv1d).

A from-scratch NumPy TCN in the shape popularized by Bai et al. and the
Prognostika disk-failure predictor: a stack of residual blocks, each
holding two causal dilated convolutions with ReLU activations, dilation
doubling per level so ``num_layers`` levels with kernel ``k`` see a
receptive field of ``1 + 2 * (k - 1) * (2^levels - 1)`` timesteps.

The convolution is im2col-based: the input is left-padded with
``(k - 1) * dilation`` zero rows (strict causality — output t never
reads an input after t), the ``k`` dilated taps are gathered into a
``(B, T, k * C_in)`` column tensor, and one matmul against the
``(k * C_in, C_out)`` weight applies every filter at every timestep.
Backward scatters the column gradient back through the same ``k`` tap
slices, so both directions are loop-free over batch and time.

The column matmul deliberately keeps the batch axis stacked
(``(B, T, kC) @ (kC, C_out)``): NumPy dispatches one GEMM of fixed
``M = T`` per sequence, so a window's outputs are bitwise independent
of how many other windows ride in the batch — the same guarantee the
LSTM inference kernel provides to :class:`~repro.nn.batched.BatchedScorer`.

The backbone implements the model-zoo protocol consumed by
:class:`~repro.nn.model.SequenceClassifier` /
:class:`~repro.nn.model.SequenceRegressor`: ``forward`` / ``backward``
(training, with caches), ``forward_infer`` (cache-free, thread-safe),
and ``params`` / ``grads`` / ``zero_grad``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ShapeError
from .activations import relu
from .contracts import tensor_contract
from .initializers import glorot_uniform, zeros

__all__ = ["CausalConv1d", "TemporalBlock", "TCNBackbone"]


class CausalConv1d:
    """Dilated causal 1-D convolution over ``(B, T, C)`` sequences.

    Output position ``t`` convolves inputs ``t, t - d, ..., t - (k-1)d``
    (missing history reads as zeros), so the layer is causal by
    construction.  Weights are stored pre-flattened as
    ``(k * in_channels, out_channels)`` for the im2col matmul.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int,
        rng: np.random.Generator,
    ) -> None:
        if in_channels <= 0 or out_channels <= 0:
            raise ShapeError(
                f"bad conv channels {in_channels}->{out_channels}"
            )
        if kernel_size < 1 or dilation < 1:
            raise ShapeError(
                f"kernel_size and dilation must be >= 1, got "
                f"{kernel_size}, {dilation}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.W = glorot_uniform(rng, kernel_size * in_channels, out_channels)
        self.b = zeros(out_channels)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._cols: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _im2col(self, x: np.ndarray) -> np.ndarray:
        """Gather the dilated taps: ``(B, T, C)`` -> ``(B, T, k * C)``.

        Tap ``j`` of output ``t`` is input ``t - (k - 1 - j) * dilation``
        (zero when negative), realized as ``k`` shifted views over the
        left-padded input — no index matrices, no per-timestep loop.
        """
        B, T, C = x.shape
        k, d = self.kernel_size, self.dilation
        pad = (k - 1) * d
        xp = np.concatenate(
            [np.zeros((B, pad, C), dtype=np.float64), x], axis=1
        )
        cols = np.empty((B, T, k, C), dtype=np.float64)
        for j in range(k):
            # k shifted views (k is a small constant); a gather matrix
            # would copy the same data with extra indexing.
            cols[:, :, j, :] = xp[:, j * d : j * d + T, :]
        return cols.reshape(B, T, k * C)

    def _validate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ShapeError(
                f"conv input must be (B, T, {self.in_channels}), got {x.shape}"
            )
        return x

    @tensor_contract("(B, T, in_channels):float -> (B, T, out_channels):float")
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Convolve causally; caches the column tensor for backward."""
        x = self._validate(x)
        cols = self._im2col(x)
        self._cols = cols
        return cols @ self.W + self.b

    @tensor_contract("(B, T, in_channels):float -> (B, T, out_channels):float")
    def forward_infer(self, x: np.ndarray) -> np.ndarray:
        """Cache-free forward for inference (safe to call concurrently)."""
        x = self._validate(x)
        return self._im2col(x) @ self.W + self.b

    @tensor_contract("(B, T, out_channels):float -> (B, T, in_channels):float")
    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Accumulate weight grads; scatter the taps back to the input."""
        if self._cols is None:
            raise ShapeError("CausalConv1d.backward called before forward")
        B, T, _ = dy.shape
        k, d, C = self.kernel_size, self.dilation, self.in_channels
        cols2 = self._cols.reshape(-1, k * C)
        dy2 = dy.reshape(-1, self.out_channels)
        self.dW += cols2.T @ dy2
        self.db += dy2.sum(axis=0)
        dcols = (dy @ self.W.T).reshape(B, T, k, C)
        pad = (k - 1) * d
        dxp = np.zeros((B, T + pad, C), dtype=np.float64)
        for j in range(k):
            # Inverse of the k forward tap views (k is a small constant).
            dxp[:, j * d : j * d + T, :] += dcols[:, :, j, :]
        return dxp[:, pad:, :]

    # ------------------------------------------------------------------
    def params(self) -> Dict[str, np.ndarray]:
        """Live views of the parameter arrays, keyed by name."""
        return {"W": self.W, "b": self.b}

    def grads(self) -> Dict[str, np.ndarray]:
        """Gradient accumulators matching :meth:`params`."""
        return {"W": self.dW, "b": self.db}

    def zero_grad(self) -> None:
        """Clear the gradient accumulators in place."""
        self.dW[...] = 0.0
        self.db[...] = 0.0


class TemporalBlock:
    """One TCN residual level: conv -> ReLU -> conv, plus a skip path.

    The skip path is the identity when channel counts match and a 1x1
    convolution otherwise; the block output is
    ``relu(conv2(relu(conv1(x))) + skip(x))``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int,
        rng: np.random.Generator,
    ) -> None:
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.conv1 = CausalConv1d(
            in_channels, out_channels, kernel_size, dilation, rng
        )
        self.conv2 = CausalConv1d(
            out_channels, out_channels, kernel_size, dilation, rng
        )
        self.skip: Optional[CausalConv1d] = None
        if in_channels != out_channels:
            self.skip = CausalConv1d(in_channels, out_channels, 1, 1, rng)
        self._mask1: Optional[np.ndarray] = None
        self._mask2: Optional[np.ndarray] = None

    @tensor_contract("(B, T, in_channels):float -> (B, T, out_channels):float")
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Residual double convolution; caches the ReLU masks."""
        h = relu(self.conv1.forward(x))
        self._mask1 = h > 0
        z = self.conv2.forward(h)
        res = x if self.skip is None else self.skip.forward(x)
        out = relu(z + res)
        self._mask2 = out > 0
        return out

    @tensor_contract("(B, T, in_channels):float -> (B, T, out_channels):float")
    def forward_infer(self, x: np.ndarray) -> np.ndarray:
        """Cache-free forward for inference (safe to call concurrently)."""
        h = relu(self.conv1.forward_infer(x))
        z = self.conv2.forward_infer(h)
        res = x if self.skip is None else self.skip.forward_infer(x)
        return relu(z + res)

    @tensor_contract("(B, T, out_channels):float -> (B, T, in_channels):float")
    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Backprop through both convolutions and the skip path."""
        if self._mask1 is None or self._mask2 is None:
            raise ShapeError("TemporalBlock.backward called before forward")
        dz = dy * self._mask2
        dh = self.conv2.backward(dz) * self._mask1
        dx = self.conv1.backward(dh)
        if self.skip is None:
            dx += dz
        else:
            dx += self.skip.backward(dz)
        return dx

    # ------------------------------------------------------------------
    def params(self) -> Dict[str, np.ndarray]:
        """All block parameters, namespaced per convolution."""
        out = {f"conv1.{k}": v for k, v in self.conv1.params().items()}
        out.update({f"conv2.{k}": v for k, v in self.conv2.params().items()})
        if self.skip is not None:
            out.update({f"skip.{k}": v for k, v in self.skip.params().items()})
        return out

    def grads(self) -> Dict[str, np.ndarray]:
        """All block gradients, namespaced like :meth:`params`."""
        out = {f"conv1.{k}": v for k, v in self.conv1.grads().items()}
        out.update({f"conv2.{k}": v for k, v in self.conv2.grads().items()})
        if self.skip is not None:
            out.update({f"skip.{k}": v for k, v in self.skip.grads().items()})
        return out

    def zero_grad(self) -> None:
        """Clear all gradient accumulators in place."""
        self.conv1.zero_grad()
        self.conv2.zero_grad()
        if self.skip is not None:
            self.skip.zero_grad()


class TCNBackbone:
    """Stack of temporal blocks with exponentially growing dilation.

    Drop-in replacement for :class:`~repro.nn.lstm.StackedLSTM` in the
    sequence models: maps ``(B, T, input_size)`` to
    ``(B, T, hidden_size)`` where position ``t`` summarizes the causal
    receptive field ending at ``t`` (the models read position ``T - 1``
    as the sequence summary, exactly as they read the LSTM's last
    hidden state).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int,
        rng: np.random.Generator,
        *,
        kernel_size: int = 3,
    ) -> None:
        if num_layers < 1:
            raise ShapeError(f"num_layers must be >= 1, got {num_layers}")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.kernel_size = kernel_size
        self.blocks = [
            TemporalBlock(
                input_size if i == 0 else hidden_size,
                hidden_size,
                kernel_size,
                2**i,
                rng,
            )
            for i in range(num_layers)
        ]

    @property
    def receptive_field(self) -> int:
        """Timesteps the last output position can see."""
        return 1 + 2 * (self.kernel_size - 1) * (2**self.num_layers - 1)

    @tensor_contract("(B, T, input_size):float -> (B, T, hidden_size):float")
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run all blocks, caching activations for :meth:`backward`."""
        h = np.asarray(x, dtype=np.float64)
        for block in self.blocks:
            h = block.forward(h)
        return h

    @tensor_contract("(B, T, input_size):float -> (B, T, hidden_size):float")
    def forward_infer(self, x: np.ndarray) -> np.ndarray:
        """Cache-free forward for the batch-major inference path.

        Writes no instance state, so concurrent calls are safe and each
        row's output is bitwise independent of its batch neighbours
        (per-sequence GEMMs of fixed ``M = T``).
        """
        h = np.asarray(x, dtype=np.float64)
        for block in self.blocks:
            h = block.forward_infer(h)
        return h

    @tensor_contract("(B, T, hidden_size):float -> (B, T, input_size):float")
    def backward(self, dh: np.ndarray) -> np.ndarray:
        """Backprop through the block stack in reverse order."""
        for block in reversed(self.blocks):
            dh = block.backward(dh)
        return dh

    # ------------------------------------------------------------------
    def params(self) -> Dict[str, np.ndarray]:
        """All trainable parameters, namespaced ``b<level>.<name>``."""
        out: Dict[str, np.ndarray] = {}
        for i, block in enumerate(self.blocks):
            out.update({f"b{i}.{k}": v for k, v in block.params().items()})
        return out

    def grads(self) -> Dict[str, np.ndarray]:
        """All gradients, namespaced like :meth:`params`."""
        out: Dict[str, np.ndarray] = {}
        for i, block in enumerate(self.blocks):
            out.update({f"b{i}.{k}": v for k, v in block.grads().items()})
        return out

    def zero_grad(self) -> None:
        """Clear every block's gradient accumulators in place."""
        for block in self.blocks:
            block.zero_grad()
