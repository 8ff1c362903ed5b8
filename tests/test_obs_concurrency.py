"""Concurrency test: a histogram shared across threads loses nothing."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.obs import Histogram

BOUNDS = (0.1, 0.5, 1.0, 5.0, 25.0)

_RNG = np.random.default_rng(1234)
LATENCIES = [
    [float(v) for v in _RNG.gamma(2.0, 0.4, size=n)]
    for n in _RNG.integers(1, 40, size=24)
]


def _thread_map(fn, items, workers):
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def test_single_shared_histogram_is_thread_safe():
    # Locked observe: no observation is lost under thread fan-out.
    hist = Histogram(BOUNDS)

    def observe_batch(batch):
        for value in batch:
            hist.observe(value)
        return len(batch)

    counts = _thread_map(observe_batch, LATENCIES, 8)
    assert hist.count == sum(counts)

