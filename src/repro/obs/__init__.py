"""Observability layer: tracing spans, metrics, and profiling hooks.

Two zero-dependency primitives, wired through the pipeline's hot paths:

* :mod:`.trace` — nested spans over a monotonic clock, recorded by a
  thread-safe :class:`Tracer` (JSONL export, deterministic
  ``describe()`` for golden tests); the process default is a no-op
  :class:`NullTracer`, so tracing overhead is strictly opt-in.
* :mod:`.metrics` — counters, gauges and fixed-bucket histograms,
  owned by a :class:`MetricsRegistry` exporting JSON or Prometheus
  text.

The split between "always on" and "opt-in" instrumentation:

* cheap event counters (cache hits, quarantined lines, raised
  warnings) record unconditionally into :func:`metrics_registry`;
* *timed* instrumentation — the per-prediction latency histogram that
  mirrors the paper's Fig. 10 ~0.65 ms claim — additionally gates on
  :func:`obs_enabled`, which is true only under an enabled tracer
  (``repro trace``) or an explicitly ``active`` registry
  (``repro metrics``).  ``bench_obs_overhead.py`` pins the cost: ≤5%
  with tracing on, ~0% off.
"""

from __future__ import annotations

from .metrics import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    activate_metrics,
    metrics_registry,
    set_metrics_registry,
)
from .trace import (
    NullTracer,
    Span,
    SpanHandle,
    Tracer,
    activate_tracer,
    current_tracer,
    set_tracer,
)

__all__ = [
    "Span",
    "SpanHandle",
    "Tracer",
    "NullTracer",
    "current_tracer",
    "set_tracer",
    "activate_tracer",
    "DEFAULT_MS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_registry",
    "set_metrics_registry",
    "activate_metrics",
    "obs_enabled",
]


def obs_enabled() -> bool:
    """Whether *timed* instrumentation should record.

    True when a recording tracer is installed or the current metrics
    registry was explicitly activated; cheap counters do not consult
    this (they always record).
    """
    return current_tracer().enabled or metrics_registry().active
