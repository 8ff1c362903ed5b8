"""Dense and embedding layers with explicit forward/backward passes.

Layers follow a uniform protocol used by the optimizers:

* ``params()`` returns a dict of name -> parameter array (views, mutated
  in place by optimizers),
* ``grads()`` returns the matching dict of gradient accumulators,
* ``zero_grad()`` clears the accumulators in place.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ShapeError
from .contracts import tensor_contract
from .initializers import glorot_uniform, zeros

__all__ = ["Dense", "Embedding"]


class Dense:
    """Affine layer ``y = x @ W + b`` over the trailing axis.

    Accepts inputs of shape ``(..., in_dim)``; all leading axes are
    treated as batch dimensions.
    """

    def __init__(
        self, in_dim: int, out_dim: int, rng: np.random.Generator
    ) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ShapeError(f"bad Dense dims {in_dim}->{out_dim}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = glorot_uniform(rng, in_dim, out_dim)
        self.b = zeros(out_dim)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: Optional[np.ndarray] = None

    @tensor_contract("(..., in_dim):float -> (..., out_dim):float")
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Affine map over the trailing axis; caches the input for backward."""
        if x.shape[-1] != self.in_dim:
            raise ShapeError(
                f"Dense expected trailing dim {self.in_dim}, got {x.shape}"
            )
        self._x = x
        return x @ self.W + self.b

    @tensor_contract("(B, in_dim):float -> (B, out_dim):float")
    def forward_stable(self, x: np.ndarray) -> np.ndarray:
        """Row-stable affine map for the batch-major inference path.

        BLAS picks different kernels for ``(M, K) @ (K, N)`` depending
        on M when N is skinny, so ``forward``'s GEMM can round row i of
        a stacked batch differently from the same row scored alone (a
        1-ulp drift that breaks the batched-vs-sequential bit-identity
        guarantee).  This variant computes each output column as an
        elementwise multiply-reduce, which NumPy evaluates identically
        per row regardless of how many rows ride along.  Costs
        ``out_dim`` passes over ``x`` — cheap for the skinny prediction
        heads this path serves.  Does not cache for backward.
        """
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"Dense expected (B, {self.in_dim}), got {x.shape}"
            )
        out = np.empty((x.shape[0], self.out_dim))
        for j in range(self.out_dim):
            # Per-column on purpose: a fused GEMM would break the
            # batched-vs-sequential bit-identity guarantee.
            np.sum(x * self.W[:, j], axis=1, out=out[:, j])
        out += self.b
        return out

    @tensor_contract("(..., out_dim):float -> (..., in_dim):float")
    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; return gradient w.r.t. the input."""
        if self._x is None:
            raise ShapeError("Dense.backward called before forward")
        x = self._x
        x2 = x.reshape(-1, self.in_dim)
        dy2 = dy.reshape(-1, self.out_dim)
        self.dW += x2.T @ dy2
        self.db += dy2.sum(axis=0)
        return dy @ self.W.T

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


class Embedding:
    """Lookup table mapping integer ids to dense vectors.

    Forward takes an integer array of any shape and returns vectors with
    one extra trailing axis of size ``dim``.  Backward scatters gradients
    back into the table rows with ``np.add.at`` (duplicate ids accumulate).
    """

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator) -> None:
        if vocab_size <= 0 or dim <= 0:
            raise ShapeError(f"bad Embedding dims {vocab_size}x{dim}")
        self.vocab_size = vocab_size
        self.dim = dim
        self.W = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
        self.dW = np.zeros_like(self.W)
        self._ids: Optional[np.ndarray] = None

    @tensor_contract("(...):int -> (..., dim):float")
    def forward(self, ids: np.ndarray) -> np.ndarray:
        """Look up vectors for integer ids; caches ids for backward."""
        ids = np.asarray(ids)
        if not np.issubdtype(ids.dtype, np.integer):
            raise ShapeError(f"Embedding ids must be integers, got {ids.dtype}")
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ShapeError(
                f"Embedding ids out of range [0, {self.vocab_size}): "
                f"[{ids.min()}, {ids.max()}]"
            )
        self._ids = ids
        return self.W[ids]

    @tensor_contract("(..., dim):float -> None")
    def backward(self, dvecs: np.ndarray) -> None:
        """Scatter-accumulate gradients into the embedding rows."""
        if self._ids is None:
            raise ShapeError("Embedding.backward called before forward")
        np.add.at(self.dW, self._ids.reshape(-1), dvecs.reshape(-1, self.dim))

    def load_vectors(self, vectors: np.ndarray) -> None:
        """Initialize the table from pretrained vectors (skip-gram output)."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape != self.W.shape:
            raise ShapeError(
                f"pretrained vectors shape {vectors.shape} != {self.W.shape}"
            )
        self.W[...] = vectors

    def params(self) -> Dict[str, np.ndarray]:
        """Live view of the embedding table, keyed by name."""
        return {"W": self.W}

    def grads(self) -> Dict[str, np.ndarray]:
        """Gradient accumulator matching :meth:`params`."""
        return {"W": self.dW}

    def zero_grad(self) -> None:
        """Clear the gradient accumulator in place."""
        self.dW[...] = 0.0
