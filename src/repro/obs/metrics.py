"""Mergeable in-process metrics: counters, gauges, fixed-bucket histograms.

Zero-dependency and exact by construction:

* :class:`Counter` and :class:`Gauge` are integers/floats behind a
  lock;
* :class:`Histogram` keeps fixed-boundary bucket counts plus an
  **exact** running sum (a :class:`fractions.Fraction`), so merging is
  associative and commutative *bit-for-bit* — per-worker histograms
  recorded under a thread-pool fan-out merge to exactly the
  sequential result, which the concurrency test asserts;
* quantiles (p50/p95/p99) are interpolated from the bucket counts,
  clamped to the observed min/max, and monotone in the quantile rank.

A :class:`MetricsRegistry` names and owns metrics, merges whole
registries (worker → global), and exports JSON or Prometheus text
exposition format.  A process-wide default registry always exists —
cheap counters record unconditionally — while *timed* instrumentation
(per-prediction latency) additionally gates on
:func:`repro.obs.obs_enabled` so the disabled overhead stays at ~0%.
"""

from __future__ import annotations

import json
import math
import re
import threading
from fractions import Fraction
from typing import Optional, Sequence

from ..errors import ObservabilityError

__all__ = [
    "DEFAULT_MS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_registry",
    "set_metrics_registry",
    "activate_metrics",
]

#: Default bucket upper bounds for millisecond-latency histograms:
#: roughly logarithmic from 10 µs to 10 s, dense around the paper's
#: ~0.65 ms per-prediction operating point (Fig. 10).
DEFAULT_MS_BUCKETS: tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 1.0,
    2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
    2000.0, 5000.0, 10000.0,
)


class Counter:
    """A monotonically increasing count (thread-safe)."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (must be >= 0) to the count."""
        if n < 0:
            raise ObservabilityError(f"counter increments must be >= 0, got {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        """The current count."""
        with self._lock:
            return self._value

    def merge(self, other: "Counter") -> "Counter":
        """Fold another counter in (sum of counts); returns self."""
        if not isinstance(other, Counter):
            raise ObservabilityError(
                f"cannot merge {type(other).__name__} into a Counter"
            )
        self.inc(other.value)
        return self

    def to_dict(self) -> dict:
        """JSON-serializable snapshot."""
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A last-write-wins scalar (thread-safe), with an update count.

    Merging keeps the *other* gauge's value when it has been set at
    all (merge order is the precedence order) and sums update counts.
    """

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = float("nan")
        self._updates = 0

    def set(self, value: float) -> None:
        """Record a new current value."""
        with self._lock:
            self._value = float(value)
            self._updates += 1

    @property
    def value(self) -> float:
        """The most recently set value (NaN before any set)."""
        with self._lock:
            return self._value

    @property
    def updates(self) -> int:
        """How many times the gauge has been set."""
        with self._lock:
            return self._updates

    def merge(self, other: "Gauge") -> "Gauge":
        """Fold another gauge in (its value wins if ever set)."""
        if not isinstance(other, Gauge):
            raise ObservabilityError(
                f"cannot merge {type(other).__name__} into a Gauge"
            )
        other_value, other_updates = other.value, other.updates
        with self._lock:
            if other_updates:
                self._value = other_value
            self._updates += other_updates
        return self

    def to_dict(self) -> dict:
        """JSON-serializable snapshot."""
        with self._lock:
            return {
                "type": self.kind,
                "value": self._value,
                "updates": self._updates,
            }


class Histogram:
    """Fixed-boundary histogram with exact, order-independent merging.

    ``boundaries`` are strictly increasing bucket *upper* bounds; one
    implicit overflow bucket catches everything above the last bound.
    The running sum is kept as an exact :class:`~fractions.Fraction`,
    so ``a.merge(b)`` equals ``b.merge(a)`` bit-for-bit and a random
    split of an observation stream merges back to the sequential
    histogram exactly (the property suite asserts all of this).
    """

    kind = "histogram"

    def __init__(self, boundaries: Sequence[float] = DEFAULT_MS_BUCKETS) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ObservabilityError("histogram needs at least one boundary")
        if any(not math.isfinite(b) for b in bounds):
            raise ObservabilityError(f"boundaries must be finite, got {bounds}")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"boundaries must be strictly increasing, got {bounds}"
            )
        self._lock = threading.Lock()
        self._boundaries = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = Fraction(0)
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def boundaries(self) -> tuple[float, ...]:
        """The bucket upper bounds (excluding the overflow bucket)."""
        return self._boundaries

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        value = float(value)
        if not math.isfinite(value):
            raise ObservabilityError(
                f"histogram observations must be finite, got {value!r}"
            )
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += Fraction(value)
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def _bucket_index(self, value: float) -> int:
        for i, upper in enumerate(self._boundaries):
            if value <= upper:
                return i
        return len(self._boundaries)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations (exact fraction, rendered as float)."""
        with self._lock:
            return float(self._sum)

    @property
    def sum_exact(self) -> Fraction:
        """The exact (Fraction) sum — the mergeable representation."""
        with self._lock:
            return self._sum

    @property
    def min(self) -> Optional[float]:
        """Smallest observation (None when empty)."""
        with self._lock:
            return self._min

    @property
    def max(self) -> Optional[float]:
        """Largest observation (None when empty)."""
        with self._lock:
            return self._max

    def bucket_counts(self) -> list[int]:
        """Per-bucket counts (last entry is the overflow bucket)."""
        with self._lock:
            return list(self._counts)

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile by in-bucket linear interpolation.

        Monotone in *q* and clamped to the observed ``[min, max]``;
        returns NaN for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile rank must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return float("nan")
            target = q * self._count
            cumulative = 0
            for i, upper in enumerate(self._boundaries):
                bucket = self._counts[i]
                if bucket and cumulative + bucket >= target:
                    lower = self._min if i == 0 else self._boundaries[i - 1]
                    value = lower + (upper - lower) * (
                        (target - cumulative) / bucket
                    )
                    return min(max(value, self._min), self._max)
                cumulative += bucket
            return self._max

    def summary(self) -> dict:
        """count/sum/min/max plus the p50/p95/p99 quantiles."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    # ------------------------------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram in (exact; boundaries must match)."""
        if not isinstance(other, Histogram):
            raise ObservabilityError(
                f"cannot merge {type(other).__name__} into a Histogram"
            )
        if other._boundaries != self._boundaries:
            raise ObservabilityError(
                "cannot merge histograms with different boundaries: "
                f"{self._boundaries} vs {other._boundaries}"
            )
        with other._lock:
            counts = list(other._counts)
            count = other._count
            total = other._sum
            omin, omax = other._min, other._max
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._count += count
            self._sum += total
            if omin is not None and (self._min is None or omin < self._min):
                self._min = omin
            if omax is not None and (self._max is None or omax > self._max):
                self._max = omax
        return self

    def copy(self) -> "Histogram":
        """An independent histogram with identical state."""
        return Histogram(self._boundaries).merge(self)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (buckets + summary quantiles)."""
        out: dict = {
            "type": self.kind,
            "boundaries": list(self._boundaries),
            "counts": self.bucket_counts(),
        }
        out.update(self.summary())
        return out


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _prom_float(value: float) -> str:
    """Prometheus exposition rendering of one float."""
    return repr(float(value))


class MetricsRegistry:
    """Named metrics with get-or-create access, merging and export.

    ``active=True`` marks the registry as explicitly collecting, which
    (together with an enabled tracer) turns on *timed* instrumentation
    — see :func:`repro.obs.obs_enabled`.  Cheap counters record into
    the registry regardless.
    """

    def __init__(self, *, active: bool = False) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}
        self.active = bool(active)

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: str, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif metric.kind != kind:
                raise ObservabilityError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested as {kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter *name*."""
        return self._get_or_create(name, "counter", Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge *name*."""
        return self._get_or_create(name, "gauge", Gauge)

    def histogram(
        self, name: str, boundaries: "Sequence[float] | None" = None
    ) -> Histogram:
        """Get or create the histogram *name*.

        ``boundaries`` applies on creation; asking for an existing
        histogram with *different* boundaries is an error (merging
        would silently misbucket).
        """
        bounds = (
            tuple(float(b) for b in boundaries)
            if boundaries is not None
            else DEFAULT_MS_BUCKETS
        )
        metric = self._get_or_create(
            name, "histogram", lambda: Histogram(bounds)
        )
        if boundaries is not None and metric.boundaries != bounds:
            raise ObservabilityError(
                f"histogram {name!r} exists with boundaries "
                f"{metric.boundaries}, requested {bounds}"
            )
        return metric

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str):
        """The metric registered under *name*, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def reset(self) -> None:
        """Drop every registered metric."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry in, metric by metric; returns self.

        Same-named metrics must have the same kind; counters and
        histograms merge exactly, gauges last-write-wins (the merged-in
        registry's value takes precedence when it was ever set).
        """
        if not isinstance(other, MetricsRegistry):
            raise ObservabilityError(
                f"cannot merge {type(other).__name__} into a MetricsRegistry"
            )
        with other._lock:
            items = sorted(other._metrics.items())
        for name, metric in items:
            if isinstance(metric, Histogram):
                mine = self.histogram(name, metric.boundaries)
            elif isinstance(metric, Gauge):
                mine = self.gauge(name)
            else:
                mine = self.counter(name)
            mine.merge(metric)
        return self

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All metrics as plain dicts, keyed by sorted name."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: metric.to_dict() for name, metric in items}

    def to_json(self, *, indent: int = 1) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (``# TYPE`` + samples)."""
        with self._lock:
            items = sorted(self._metrics.items())
        lines: list[str] = []
        for name, metric in items:
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} {metric.kind}")
            if isinstance(metric, Histogram):
                cumulative = 0
                for upper, count in zip(
                    metric.boundaries, metric.bucket_counts()
                ):
                    cumulative += count
                    lines.append(
                        f'{pname}_bucket{{le="{_prom_float(upper)}"}} '
                        f"{cumulative}"
                    )
                lines.append(f'{pname}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{pname}_sum {_prom_float(metric.sum)}")
                lines.append(f"{pname}_count {metric.count}")
            elif isinstance(metric, Gauge):
                lines.append(f"{pname} {_prom_float(metric.value)}")
            else:
                lines.append(f"{pname} {metric.value}")
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# process-wide current registry
# ----------------------------------------------------------------------
_STATE_LOCK = threading.Lock()
_CURRENT: list = [MetricsRegistry()]  # one-slot box: reads are an index


def metrics_registry() -> MetricsRegistry:
    """The process-wide metrics registry (always present)."""
    return _CURRENT[0]


def set_metrics_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* process-wide; returns the previous one."""
    if not isinstance(registry, MetricsRegistry):
        raise ObservabilityError(
            f"set_metrics_registry needs a MetricsRegistry, "
            f"got {type(registry).__name__}"
        )
    with _STATE_LOCK:
        previous = _CURRENT[0]
        _CURRENT[0] = registry
    return previous


class activate_metrics:
    """Context manager: install a registry, restore the previous on exit."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._previous: "MetricsRegistry | None" = None

    def __enter__(self) -> MetricsRegistry:
        """Install the registry and return it."""
        self._previous = set_metrics_registry(self.registry)
        return self.registry

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Restore whatever registry was installed before."""
        set_metrics_registry(self._previous)
        return False
