"""Parallel-execution helpers.

:mod:`~repro.parallel.pool` provides ordered chunked maps over threads
(NumPy's BLAS-heavy regions release the GIL) or processes.  deshlint's
``--jobs`` mode fans per-module rule passes out through it, and the F3
capture rule checks the workers handed to it.
"""

from .pool import ordered_parallel_map

__all__ = ["ordered_parallel_map"]
