"""Concurrency tests: per-worker metrics merge exactly.

The supported fan-out pattern is *share nothing, merge after*: each
thread-pool worker records into its own registry (returned as part of
its result, never mutated through a closure) and the shards are merged
afterwards.  Exact Fraction sums make the merged result equal the
sequential run bit-for-bit, in any merge order.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.obs import Histogram, MetricsRegistry

BOUNDS = (0.1, 0.5, 1.0, 5.0, 25.0)

_RNG = np.random.default_rng(1234)
LATENCIES = [
    [float(v) for v in _RNG.gamma(2.0, 0.4, size=n)]
    for n in _RNG.integers(1, 40, size=24)
]


def _score_batch(batch):
    """One worker: record a batch into a fresh, private registry."""
    registry = MetricsRegistry()
    hist = registry.histogram("prediction_ms", BOUNDS)
    for value in batch:
        hist.observe(value)
    registry.counter("episodes").inc(len(batch))
    return registry


def _sequential():
    registry = MetricsRegistry()
    hist = registry.histogram("prediction_ms", BOUNDS)
    for batch in LATENCIES:
        for value in batch:
            hist.observe(value)
        registry.counter("episodes").inc(len(batch))
    return registry


def _hist_state(h: Histogram):
    return (h.bucket_counts(), h.count, h.sum_exact, h.min, h.max)


def _thread_map(fn, items, workers):
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def test_parallel_worker_registries_merge_to_sequential_exactly():
    sequential = _sequential()
    for workers in (2, 3, 8):
        shards = _thread_map(_score_batch, LATENCIES, workers)
        merged = MetricsRegistry()
        for shard in shards:
            merged.merge(shard)
        assert _hist_state(merged.histogram("prediction_ms", BOUNDS)) == (
            _hist_state(sequential.histogram("prediction_ms", BOUNDS))
        )
        assert (
            merged.counter("episodes").value
            == sequential.counter("episodes").value
        )


def test_merge_order_does_not_matter():
    shards = _thread_map(_score_batch, LATENCIES, 4)
    forward, backward = MetricsRegistry(), MetricsRegistry()
    for shard in shards:
        forward.merge(shard)
    for shard in reversed(shards):
        backward.merge(shard)
    assert _hist_state(forward.histogram("prediction_ms", BOUNDS)) == (
        _hist_state(backward.histogram("prediction_ms", BOUNDS))
    )


def test_single_shared_histogram_is_thread_safe():
    # Locked observe: even the *unsupported* shared-histogram pattern
    # loses no observations under thread fan-out.
    hist = Histogram(BOUNDS)

    def observe_batch(batch):
        for value in batch:
            hist.observe(value)
        return len(batch)

    counts = _thread_map(observe_batch, LATENCIES, 8)
    assert hist.count == sum(counts)

