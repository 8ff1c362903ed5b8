"""Tests for the ordered parallel map."""

import os

import pytest

from repro.errors import ConfigError, ParallelError
from repro.parallel import ordered_parallel_map


def square(x):
    return x * x


class TestOrderedParallelMap:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_results_in_order(self, mode):
        items = list(range(37))
        out = ordered_parallel_map(square, items, max_workers=3, mode=mode)
        assert out == [x * x for x in items]

    def test_empty_input(self):
        assert ordered_parallel_map(square, []) == []

    def test_single_item(self):
        assert ordered_parallel_map(square, [4]) == [16]

    def test_modes_agree(self):
        items = list(range(20))
        serial = ordered_parallel_map(square, items, mode="serial")
        threaded = ordered_parallel_map(square, items, mode="thread")
        assert serial == threaded

    def test_explicit_chunk_size(self):
        out = ordered_parallel_map(square, list(range(10)), chunk_size=3)
        assert out == [x * x for x in range(10)]

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            ordered_parallel_map(square, [1], mode="gpu")

    def test_rejects_bad_workers(self):
        with pytest.raises(ConfigError):
            ordered_parallel_map(square, [1], max_workers=0)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigError):
            ordered_parallel_map(square, [1, 2], chunk_size=0)

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            ordered_parallel_map(boom, [1, 2], mode="thread")

    def test_failure_names_chunk_and_chains_cause(self):
        def boom(x):
            if x == 7:
                raise ValueError("poisoned item")
            return x

        with pytest.raises(ParallelError, match=r"chunk 4/5") as excinfo:
            ordered_parallel_map(
                boom, list(range(10)), max_workers=2, chunk_size=2
            )
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_failure_cancels_outstanding_chunks(self):
        import threading
        import time

        started = []
        lock = threading.Lock()

        def tracked(x):
            with lock:
                started.append(x)
            if x == 0:
                raise RuntimeError("first chunk dies")
            time.sleep(0.01)
            return x

        # Chunk 0 fails immediately while later chunks are slow, so the
        # queued tail must be cancelled rather than run to completion.
        with pytest.raises(ParallelError):
            ordered_parallel_map(
                tracked, list(range(100)), max_workers=2, chunk_size=1
            )
        assert len(started) < 100
