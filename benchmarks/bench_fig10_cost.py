"""Figure 10 — prediction cost vs steps, for history sizes 5 and 8.

Paper shape: per-prediction time grows with the number of prediction
steps, the history-8 curve sits at or above the history-5 curve, and a
3-step / history-8 prediction lands in the sub-millisecond-to-few-ms
regime (the paper reports ~0.65 ms on its Intel platform; absolute
numbers depend on the host).

``test_fig10_batch_throughput`` extends the figure past the paper: the
per-prediction cost of the batch-major inference core as a function of
batch size, against the pre-refactor sequential engine (one training
forward per window — the paper's deployment mode).  The measured curve
is recorded in ``BENCH_fig10.json`` at the repo root.

``test_fig10_window_filter_vectorized`` times runtime code on the same
measured path: phase 3's per-window flag filter (``_passing_windows``)
against the per-window loop it replaced, recorded in
``BENCH_p1_dogfood.json``.  The file keeps its name from the since
retired lint rule that first flagged the loop; the measurement is of
phase 3, not of the linter.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis import (
    measure_batch_throughput,
    measure_prediction_cost,
    render_series,
    render_table,
)
from repro.core.phase3 import _passing_windows
from repro.nn.model import SequenceClassifier

BATCH_SIZES = (1, 8, 64, 256)
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_fig10.json"
DOGFOOD_JSON = (
    Path(__file__).resolve().parent.parent / "BENCH_p1_dogfood.json"
)


def test_fig10_cost(benchmark, capsys):
    samples = measure_prediction_cost(
        vocab_size=80,
        steps_range=(1, 2, 3),
        histories=(5, 8),
        repeats=100,
        seed=0,
    )

    by_history: dict[int, list] = {5: [], 8: []}
    for s in samples:
        by_history[s.history].append(s)
    for h in by_history:
        by_history[h].sort(key=lambda s: s.steps)

    with capsys.disabled():
        print()
        for h in (8, 5):
            print(
                render_series(
                    f"history {h}",
                    [s.steps for s in by_history[h]],
                    [s.millis_per_prediction for s in by_history[h]],
                    unit="ms",
                )
            )

    # Shape: each extra autoregressive step adds a full forward pass, so
    # the per-prediction time grows strictly with the step count.
    for h in (5, 8):
        times = [s.millis_per_prediction for s in by_history[h]]
        assert times[0] < times[1] < times[2], f"history {h}: {times}"
    # Longer history costs more: the 8-long unroll beats the 5-long one.
    total5 = sum(s.millis_per_prediction for s in by_history[5])
    total8 = sum(s.millis_per_prediction for s in by_history[8])
    assert total8 > total5, f"history 8 ({total8}) vs 5 ({total5})"
    # 3-step history-8 prediction is in the paper's millisecond regime.
    worst = by_history[8][-1].millis_per_prediction
    assert worst < 50.0, f"per-prediction time implausibly slow: {worst}ms"

    model = SequenceClassifier(
        80, embed_dim=32, hidden_size=64, num_layers=2, steps=1, seed=0
    )
    model._fitted = True
    window = np.zeros((1, 8), dtype=np.int64)

    benchmark(lambda: model.predict_autoregressive(window, 3))


def test_fig10_batch_throughput(benchmark, capsys):
    """Predictions/sec vs batch size for the batch-major scoring core."""
    samples = measure_batch_throughput(
        batch_sizes=BATCH_SIZES, windows=256, passes=7, seed=0
    )
    sequential = next(s for s in samples if s.engine == "sequential")
    batched = {s.batch_size: s for s in samples if s.engine == "batched"}

    with capsys.disabled():
        print()
        print(
            render_series(
                "batched core",
                list(BATCH_SIZES),
                [batched[b].millis_per_prediction for b in BATCH_SIZES],
                unit="ms",
            )
        )
        print(
            f"  sequential engine (B=1): "
            f"{sequential.millis_per_prediction:.4f} ms/pred "
            f"({sequential.predictions_per_sec:.0f} pred/s)"
        )

    speedup = {
        b: sequential.millis_per_prediction / batched[b].millis_per_prediction
        for b in BATCH_SIZES
    }
    payload = {
        "figure": "fig10-batch-throughput",
        "preset": "M1 (history=5, input_dim=2, hidden=64, layers=2)",
        "sequential_b1": {
            "millis_per_prediction": sequential.millis_per_prediction,
            "predictions_per_sec": sequential.predictions_per_sec,
        },
        "batched": {
            str(b): {
                "millis_per_prediction": batched[b].millis_per_prediction,
                "predictions_per_sec": batched[b].predictions_per_sec,
                "speedup_vs_sequential_b1": speedup[b],
            }
            for b in BATCH_SIZES
        },
        "speedup_b256_vs_sequential_b1": speedup[256],
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # Larger batches amortize per-call overhead into one fused GEMM:
    # the curve must be monotone cheaper through the paper-shaped sizes.
    assert (
        batched[8].millis_per_prediction < batched[1].millis_per_prediction
    ), speedup
    assert (
        batched[64].millis_per_prediction < batched[8].millis_per_prediction
    ), speedup
    # The headline acceptance: an order of magnitude over the engine the
    # monitor and serving shards used before the batch-major refactor.
    assert speedup[256] >= 10.0, f"b256 speedup {speedup[256]:.2f}x < 10x"

    benchmark(lambda: measure_batch_throughput(
        batch_sizes=(64,), windows=64, passes=1, seed=0
    ))


def _legacy_passing_windows(
    mses, *, history, pad_len, n_real, flag_position, threshold
):
    """The per-window Python loop ``_passing_windows`` replaced.

    Kept verbatim (modulo extraction) as the benchmark baseline: this
    is the body deshlint P1 flagged on the ``phase3.prediction_ms``
    path once ``mses`` carried its ndarray annotation.
    """
    passing = []
    for w, mse in enumerate(mses):
        real_idx = w + history - pad_len
        if real_idx < flag_position or real_idx >= n_real:
            continue
        if mse <= threshold:
            passing.append((real_idx, float(mse)))
    return passing


def test_fig10_window_filter_vectorized(benchmark, capsys):
    """The P1 dogfood fix: vectorized flag filter beats the old loop."""
    rng = np.random.default_rng(0)
    kwargs = dict(
        history=5, pad_len=5, n_real=512, flag_position=3, threshold=0.5
    )
    mses = rng.uniform(0.0, 2.0, size=512)
    repeats = 2000

    legacy = _legacy_passing_windows(mses, **kwargs)
    hits = _passing_windows(mses, **kwargs)
    # Same windows pass, in the same order — the fix changes cost only.
    assert [w for w, _ in legacy] == [
        int(w) + kwargs["history"] - kwargs["pad_len"] for w in hits
    ]

    start = time.perf_counter()
    for _ in range(repeats):
        _legacy_passing_windows(mses, **kwargs)
    loop_us = (time.perf_counter() - start) / repeats * 1e6
    start = time.perf_counter()
    for _ in range(repeats):
        _passing_windows(mses, **kwargs)
    vec_us = (time.perf_counter() - start) / repeats * 1e6
    speedup = loop_us / vec_us

    with capsys.disabled():
        print()
        print(
            f"  window filter (512 windows): loop {loop_us:8.1f}us  "
            f"vectorized {vec_us:8.1f}us  ({speedup:.1f}x)"
        )

    DOGFOOD_JSON.write_text(
        json.dumps(
            {
                "figure": "p1-dogfood-window-filter",
                "windows": 512,
                "loop_us_per_episode": round(loop_us, 2),
                "vectorized_us_per_episode": round(vec_us, 2),
                "speedup": round(speedup, 2),
            },
            indent=2,
        )
        + "\n"
    )

    # The measured claim behind the checked-in numbers: the vectorized
    # filter must clearly beat the per-window loop it replaced.
    assert speedup >= 3.0, f"vectorized filter only {speedup:.2f}x faster"

    benchmark(lambda: _passing_windows(mses, **kwargs))
