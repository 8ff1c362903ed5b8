"""Batch-major scoring core: one vectorized path for all inference.

Phase 3 (offline and online), the streaming monitor, and the serving
shards all score the same thing — stacks of ``(history, 2)`` chain
windows.  :class:`BatchedScorer` is the single chokepoint they share:

* :meth:`chain_matrix` builds the window stack for one episode,
  bit-equal to the ``encode_chain`` -> ``pad_vectors`` -> windowing
  reference encoding but without re-deriving the phrase normalization
  or the gather indices on every call (the phrase "embedding" lookup
  table and the per-length window index matrices are cached);
* :meth:`predict_batch` runs the stack through the regressor's one
  inference forward (:meth:`SequenceRegressor.predict`: the cache-free
  batch-major backbone kernel and the row-stable head), optionally in
  fixed-size chunks whose boundaries are chosen so no chunk ever
  degenerates to a single row (BLAS takes a different kernel for M=1,
  which would break row-bit-independence).

Because every row of :meth:`predict_batch`'s output depends only on the
matching input window (for chunk sizes >= 2), scoring B units stacked
into one call is bitwise identical to scoring each unit alone — the
property the monitor's batched flush and its tests rely on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError
from .contracts import tensor_contract
from .model import SequenceRegressor

__all__ = ["BatchedScorer"]

#: Cached window-index matrices are kept for at most this many distinct
#: episode lengths; live episodes are length-capped upstream (the
#: monitor's event cap), so in practice the cache never cycles.
_INDEX_CACHE_LIMIT = 128


class BatchedScorer:
    """Precomputed, cached scoring front-end over a trained regressor."""

    def __init__(self, regressor: SequenceRegressor, scaler, *, history: int) -> None:
        if history < 1:
            raise ShapeError(f"history must be >= 1, got {history}")
        self.regressor = regressor
        self.scaler = scaler
        self.history = history
        # The phrase "embedding": id -> normalized code, computed once
        # with the exact elementwise formula LeadTimeScaler.encode uses,
        # so table lookups reproduce its bits.
        self._phrase_codes = (
            np.arange(scaler.vocab_size, dtype=np.float64)
            / scaler.vocab_size
            * scaler.id_scale
        )
        self._index_cache: dict = {}

    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int:
        """Window feature dimension (delegates to the regressor)."""
        return self.regressor.input_dim

    @property
    def output_dim(self) -> int:
        """Prediction dimension (delegates to the regressor)."""
        return self.regressor.output_dim

    # ------------------------------------------------------------------
    def _window_indices(self, n: int) -> np.ndarray:
        """The ``(n, history)`` gather matrix into a left-padded chain."""
        cached = self._index_cache.get(n)
        if cached is None:
            if len(self._index_cache) >= _INDEX_CACHE_LIMIT:
                self._index_cache.clear()
            cached = (
                np.arange(n, dtype=np.intp)[:, None]
                + np.arange(self.history, dtype=np.intp)[None, :]
            )
            self._index_cache[n] = cached
        return cached

    def chain_matrix(
        self, timestamps: np.ndarray, phrase_ids: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, int]":
        """The chain-score matrix of one episode: ``(X, Y, pad_len)``.

        Bit-equal to the reference window pipeline (``encode_chain`` ->
        ``pad_vectors`` -> windowing) with the anchor at the newest
        event: ``X`` is ``(N, history, 2)``, ``Y`` is ``(N, 2)`` (one
        window per real event, left-padding replicating the first
        vector), ``pad_len`` the rows of padding.
        """
        timestamps = np.asarray(timestamps, dtype=np.float64)
        phrase_ids = np.asarray(phrase_ids)
        if (
            timestamps.ndim != 1
            or len(timestamps) == 0
            or timestamps.shape != phrase_ids.shape
        ):
            raise ShapeError(
                f"chain must be matching non-empty 1-D arrays, got "
                f"{timestamps.shape} and {phrase_ids.shape}"
            )
        if np.any(np.diff(timestamps) < 0):
            raise ShapeError("timestamps must be non-decreasing")
        if phrase_ids.min() < 0 or phrase_ids.max() >= self.scaler.vocab_size:
            raise ShapeError("phrase id out of vocabulary range")
        n = len(timestamps)
        vectors = np.empty((n, 2), dtype=np.float64)
        np.clip(
            (timestamps[-1] - timestamps) / self.scaler.max_lead_seconds,
            0.0,
            1.0,
            out=vectors[:, 0],
        )
        vectors[:, 1] = self._phrase_codes[phrase_ids]
        padded = np.concatenate(
            [np.repeat(vectors[:1], self.history, axis=0), vectors], axis=0
        )
        x = padded[self._window_indices(n)]
        # Window i predicts padded[i + history] == vectors[i], so the
        # target matrix is the vectors themselves.
        return x, vectors, self.history

    # ------------------------------------------------------------------
    @staticmethod
    def _chunk_bounds(total: int, chunk: int) -> "list[tuple[int, int]]":
        """Chunk ``[0, total)`` into runs of ~*chunk* rows, none of size 1.

        A single-row GEMM takes BLAS's gemv path, which rounds
        differently from the batched kernel — a size-1 tail chunk would
        score its window with different bits than the same window inside
        a larger batch.  A size-1 tail is therefore merged into the
        preceding chunk (which grows to ``chunk + 1`` rows).
        """
        if total <= 0:
            return []
        bounds = [
            (start, min(start + chunk, total))
            for start in range(0, total, chunk)
        ]
        if len(bounds) >= 2 and bounds[-1][1] - bounds[-1][0] == 1:
            bounds.pop()
            start, _ = bounds.pop()
            bounds.append((start, total))
        return bounds

    @tensor_contract("(B, T, input_dim):float -> (B, output_dim):float")
    def predict_batch(
        self, x: np.ndarray, chunk: Optional[int] = None
    ) -> np.ndarray:
        """Score a window stack through the batch-major inference kernel.

        ``chunk`` bounds the rows per LSTM call (memory/cache control for
        very large flushes); chunked and unchunked results are bitwise
        identical because chunk boundaries never isolate a single row.
        """
        if chunk is None or len(x) <= chunk:
            return self.regressor.predict(x)
        if chunk < 2:
            raise ShapeError(f"chunk must be >= 2, got {chunk}")
        out = np.empty((len(x), self.output_dim), dtype=np.float64)
        for start, end in self._chunk_bounds(len(x), chunk):
            out[start:end] = self.regressor.predict(x[start:end])
        return out
