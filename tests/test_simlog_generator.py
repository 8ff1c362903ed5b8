"""Tests for the log generator's ground-truth consistency."""

import numpy as np
import pytest

from repro.errors import LogGenerationError
from repro.simlog import GeneratorConfig, LogGenerator
from repro.simlog.record import render_line


class TestGeneratorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": 100.0, "edge_margin": 60.0},
            {"background_rate": 0.0},
            {"ambient_anomaly_rate": -1.0},
            {"failure_count": -1},
            {"near_miss_ratio": -0.1},
            {"maintenance_fraction": 1.5},
            {"downtime": -1.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(LogGenerationError):
            GeneratorConfig(**kwargs)


class TestGeneratedLog:
    def test_records_sorted_by_time(self, small_log):
        times = [r.timestamp for r in small_log.records]
        assert times == sorted(times)

    def test_requested_failure_count(self, small_log):
        assert len(small_log.ground_truth.failures) == 80

    def test_near_miss_count(self, small_log):
        assert len(small_log.ground_truth.near_misses) == 40

    def test_maintenance_window_exists(self, small_log):
        assert len(small_log.ground_truth.maintenance) == 1

    def test_failures_have_positive_lead(self, small_log):
        for f in small_log.ground_truth.failures:
            assert f.lead_time > 0

    def test_terminal_records_exist_for_failures(self, small_log):
        """Every injected failure's terminal message appears in the log."""
        terminal_times = {
            (r.node, round(r.timestamp, 6))
            for r in small_log.records
            if "cb_node_unavailable" in r.message
        }
        for f in small_log.ground_truth.failures:
            assert (f.node, round(f.terminal_time, 6)) in terminal_times

    def test_near_miss_has_no_terminal(self, small_log):
        """No terminal message falls within a near-miss span on its node."""
        for m in small_log.ground_truth.near_misses:
            for r in small_log.records:
                if (
                    r.node == m.node
                    and m.start_time <= r.timestamp <= m.end_time
                ):
                    assert "cb_node_unavailable" not in r.message

    def test_downtime_silence(self, small_log):
        """A failed node logs nothing between terminal and reboot."""
        downtime = small_log.config.downtime
        for f in small_log.ground_truth.failures[:10]:
            lo = f.terminal_time + 1e-6
            hi = f.terminal_time + downtime - 1.0
            in_window = [
                r
                for r in small_log.records
                if r.node == f.node and lo < r.timestamp < hi
            ]
            assert not in_window, f"node {f.node} logged during downtime"

    def test_maintenance_is_mass_shutdown(self, small_log):
        """Maintenance shuts down many nodes within a small time window."""
        event = small_log.ground_truth.maintenance[0]
        assert len(event.nodes) >= 3
        shutdowns = [
            r.timestamp
            for r in small_log.records
            if r.node in event.nodes
            and "node shutdown in progress" in r.message
            and event.start_time <= r.timestamp <= event.start_time + 25.0
        ]
        assert len(shutdowns) == len(event.nodes)

    def test_lines_render(self, small_log):
        line = next(iter(small_log.lines()))
        assert render_line(small_log.records[0]) == line

    def test_deterministic_generation(self, small_topology):
        config = GeneratorConfig(horizon=4 * 3600.0, failure_count=5)
        gen = LogGenerator(small_topology)
        a = gen.generate(config, np.random.default_rng(9))
        b = gen.generate(config, np.random.default_rng(9))
        assert len(a) == len(b)
        assert [render_line(r) for r in a.records[:50]] == [
            render_line(r) for r in b.records[:50]
        ]

    def test_ground_truth_summary(self, small_log):
        s = small_log.ground_truth.summary()
        assert s["failures"] == 80
        assert s["near_misses"] == 40

    def test_failure_near_lookup(self, small_log):
        f = small_log.ground_truth.failures[0]
        hit = small_log.ground_truth.failure_near(
            f.node, f.terminal_time - 10.0, lookahead=60.0
        )
        assert hit == f

    def test_failure_near_misses_other_node(self, small_log, small_topology):
        f = small_log.ground_truth.failures[0]
        other = next(n for n in small_topology.nodes() if n != f.node)
        assert (
            small_log.ground_truth.failure_near(
                other, f.terminal_time - 10.0, lookahead=60.0
            )
            is None
        )

class TestSplit:
    def test_split_partitions_records(self, small_log):
        train, test = small_log.split(0.3)
        assert len(train) + len(test) == len(small_log)

    def test_split_is_chronological(self, small_log):
        train, test = small_log.split(0.3)
        cut = small_log.config.horizon * 0.3
        assert all(r.timestamp < cut for r in train.records)
        assert all(r.timestamp >= cut for r in test.records)

    def test_split_partitions_ground_truth(self, small_log):
        train, test = small_log.split(0.3)
        total = len(train.ground_truth.failures) + len(test.ground_truth.failures)
        assert total == len(small_log.ground_truth.failures)

    def test_split_rejects_bad_fraction(self, small_log):
        with pytest.raises(LogGenerationError):
            small_log.split(0.0)


class TestCollisionHandling:
    def test_impossible_density_raises(self, small_topology):
        """Too many failures for the horizon must fail loudly, not hang."""
        config = GeneratorConfig(
            horizon=2000.0, failure_count=10_000, edge_margin=900.0
        )
        gen = LogGenerator(small_topology)
        with pytest.raises(LogGenerationError):
            gen.generate(config, np.random.default_rng(0))
