"""Metrics tests: example-based semantics plus a quantile property test."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    activate_metrics,
    metrics_registry,
    obs_enabled,
    set_metrics_registry,
)

BOUNDS = (0.1, 0.5, 1.0, 5.0)

def _hist(values, boundaries=BOUNDS):
    h = Histogram(boundaries)
    for v in values:
        h.observe(v)
    return h


# ----------------------------------------------------------------------
# counters / gauges
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ObservabilityError):
            Counter().inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge()
        assert math.isnan(g.value)
        g.set(1.0)
        g.set(2.5)
        assert g.value == 2.5
        assert g.updates == 2


# ----------------------------------------------------------------------
# histogram semantics (example-based)
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucketing_includes_upper_bound(self):
        h = _hist([0.1, 0.10001, 5.0, 6.0])
        assert h.bucket_counts() == [1, 1, 0, 1, 1]

    def test_rejects_non_finite_observations(self):
        h = Histogram(BOUNDS)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ObservabilityError):
                h.observe(bad)

    def test_rejects_bad_boundaries(self):
        for bad in ((), (1.0, 1.0), (2.0, 1.0), (0.0, float("inf"))):
            with pytest.raises(ObservabilityError):
                Histogram(bad)

    def test_empty_quantile_is_nan(self):
        assert math.isnan(Histogram(BOUNDS).quantile(0.5))

    def test_quantile_rank_validated(self):
        with pytest.raises(ObservabilityError):
            _hist([1.0]).quantile(1.5)

    def test_single_value_quantiles_collapse(self):
        h = _hist([0.65], DEFAULT_MS_BUCKETS)
        assert h.quantile(0.0) == h.quantile(0.5) == h.quantile(1.0) == 0.65

    def test_sum_is_a_running_float_total(self):
        h = _hist([0.25, 0.5, 6.0])
        assert h.sum == 6.75
        assert isinstance(h.sum, float)
        assert set(h.to_dict()) == {
            "type", "boundaries", "counts",
            "count", "sum", "min", "max", "p50", "p95", "p99",
        }


# ----------------------------------------------------------------------
# histogram quantile property (seeded via hypothesis's deterministic DB)
# ----------------------------------------------------------------------
@settings(max_examples=60)
@given(
    st.lists(
        st.floats(
            min_value=0.0,
            max_value=50.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=60,
    ),
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=8),
)
def test_quantiles_are_monotone_and_clamped(values, ranks):
    h = _hist(values)
    ranks = sorted(ranks)
    estimates = [h.quantile(q) for q in ranks]
    assert all(a <= b for a, b in zip(estimates, estimates[1:]))
    assert all(h.min <= e <= h.max for e in estimates)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.names() == ["x"]

    def test_kind_clash_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ObservabilityError):
            r.gauge("x")

    def test_histogram_boundary_clash_rejected(self):
        r = MetricsRegistry()
        r.histogram("h", BOUNDS)
        assert r.histogram("h") is not None  # no boundaries: no check
        with pytest.raises(ObservabilityError):
            r.histogram("h", (1.0, 2.0))

    def test_json_snapshot_is_sorted_and_parseable(self):
        r = MetricsRegistry()
        r.counter("b.two").inc()
        r.gauge("a.one").set(1.5)
        snap = json.loads(r.to_json())
        assert list(snap) == sorted(snap)
        assert snap["b.two"] == {"type": "counter", "value": 1}

    def test_prometheus_exposition_shape(self):
        r = MetricsRegistry()
        r.counter("ingest.quarantined").inc(3)
        r.histogram("lat.ms", (1.0, 2.0)).observe(1.5)
        text = r.to_prometheus()
        assert "# TYPE repro_ingest_quarantined counter" in text
        assert "repro_ingest_quarantined 3" in text
        assert 'repro_lat_ms_bucket{le="+Inf"} 1' in text
        assert text.endswith("\n")

    def test_activate_metrics_installs_and_gates(self):
        before = metrics_registry()
        registry = MetricsRegistry(active=True)
        with activate_metrics(registry):
            assert metrics_registry() is registry
            assert obs_enabled()
        assert metrics_registry() is before

    def test_set_registry_rejects_non_registries(self):
        with pytest.raises(ObservabilityError):
            set_metrics_registry({})
