"""Prediction-cost measurement (Figure 10).

Figure 10 plots the per-prediction time (milliseconds) against the
number of prediction steps, for history sizes 8 and 5.  The paper's
shape — more steps cost more time, larger histories cost slightly more
— follows from deployment-style *autoregressive* multi-step prediction:
each step re-runs the network with the previous prediction fed back in,
so a k-step prediction costs k forward passes, and every extra history
element adds an LSTM timestep to each pass.  That is the mode measured
here (:meth:`~repro.nn.model.SequenceClassifier.predict_autoregressive`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..nn.model import SequenceClassifier, SequenceRegressor

__all__ = [
    "CostSample",
    "ThroughputSample",
    "measure_batch_throughput",
    "measure_prediction_cost",
]


@dataclass(frozen=True)
class CostSample:
    """Mean per-prediction latency for one (steps, history) combination."""

    steps: int
    history: int
    millis_per_prediction: float


@dataclass(frozen=True)
class ThroughputSample:
    """Throughput of the batch-major inference kernel at one batch size."""

    batch_size: int
    millis_per_prediction: float

    @property
    def predictions_per_sec(self) -> float:
        """Sustained single-window predictions per second."""
        return 1000.0 / self.millis_per_prediction


def measure_batch_throughput(
    *,
    batch_sizes: tuple[int, ...] = (1, 8, 64, 256),
    history: int = 5,
    input_dim: int = 2,
    hidden_size: int = 64,
    num_layers: int = 2,
    windows: int = 256,
    passes: int = 5,
    seed: int = 0,
) -> list[ThroughputSample]:
    """Time phase-3-shaped window scoring at each of *batch_sizes*.

    Defaults mirror the paper's phase-3 deployment shape (Table 5 row 3
    on the M1 preset): ``(history=5, 2)`` chain windows through a
    2-layer hidden-64 LSTM.  One sample per requested batch size runs
    the same *windows* window set through the inference forward
    :meth:`~repro.nn.model.SequenceRegressor.predict` in fixed-size
    slices.  Each measurement is the median over *passes*
    timed sweeps of the full window set, after one warm-up sweep.
    Weights are untrained — latency does not depend on the values.
    """
    if windows < 1:
        raise ShapeError("windows must be >= 1")
    if passes < 1:
        raise ShapeError("passes must be >= 1")
    if any(b < 1 for b in batch_sizes):
        raise ShapeError("batch sizes must be >= 1")
    rng = np.random.default_rng(seed)
    model = SequenceRegressor(
        input_dim,
        hidden_size=hidden_size,
        num_layers=num_layers,
        seed=seed,
    )
    model._fitted = True  # latency measurement only
    stack = rng.random((windows, history, input_dim))

    def sweep(batch: int) -> None:
        for start in range(0, windows, batch):
            model.predict(stack[start : start + batch])

    def timed(batch: int) -> float:
        sweep(batch)  # warm-up
        times = []
        for _ in range(passes):
            start = time.perf_counter()
            sweep(batch)
            times.append(time.perf_counter() - start)
        return 1000.0 * float(np.median(times)) / windows

    return [
        ThroughputSample(batch_size=batch, millis_per_prediction=timed(batch))
        for batch in batch_sizes
    ]


def measure_prediction_cost(
    vocab_size: int = 80,
    *,
    steps_range: tuple[int, ...] = (1, 2, 3),
    histories: tuple[int, ...] = (5, 8),
    hidden_size: int = 64,
    embed_dim: int = 32,
    repeats: int = 50,
    seed: int = 0,
) -> list[CostSample]:
    """Time single-window predictions across steps x history combinations.

    A fresh (untrained weights are fine — latency does not depend on the
    values) classifier is built per combination; each measurement is the
    mean over *repeats* single-window forward passes, discarding one
    warm-up pass.
    """
    if repeats < 1:
        raise ShapeError("repeats must be >= 1")
    rng = np.random.default_rng(seed)
    samples: list[CostSample] = []
    for history in histories:
        window = rng.integers(0, vocab_size, size=(1, history))
        model = SequenceClassifier(
            vocab_size,
            embed_dim=embed_dim,
            hidden_size=hidden_size,
            num_layers=2,
            steps=1,
            seed=seed,
        )
        model._fitted = True  # latency measurement only
        for steps in steps_range:
            model.predict_autoregressive(window, steps)  # warm-up
            # Median over several passes: single-pass means are at the
            # mercy of OS scheduling noise at these microsecond scales.
            passes = []
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(repeats):
                    model.predict_autoregressive(window, steps)
                passes.append(time.perf_counter() - start)
            samples.append(
                CostSample(
                    steps=steps,
                    history=history,
                    millis_per_prediction=1000.0 * float(np.median(passes)) / repeats,
                )
            )
    return samples
