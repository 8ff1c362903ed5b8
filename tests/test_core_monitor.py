"""Tests for the streaming failure monitor."""

import dataclasses

import pytest

from repro.core import StreamingMonitor
from repro.events import Label
from repro.simlog.record import LogRecord, render_line
from repro.topology import CrayNodeId


@pytest.fixture
def monitor(trained_model):
    return StreamingMonitor(trained_model)


def _find_record(model, records, *, terminal):
    """First record encoding to an anomalous (non-)terminal event."""
    for record in records:
        event = model.parser.encode(record)
        if (
            event is not None
            and event.node is not None
            and event.label != Label.SAFE
            and event.terminal == terminal
        ):
            return record
    raise AssertionError("no matching record in fixture log")


class TestStreamingMonitor:
    def test_warns_on_real_failures(self, monitor, test_split):
        warnings = list(monitor.run(test_split.records))
        assert warnings
        gt = test_split.ground_truth
        confirmed = sum(
            1
            for w in warnings
            if gt.failure_near(w.node, w.decision_time, lookahead=700.0)
        )
        assert confirmed >= len(gt.failures) * 0.3

    def test_counts_records_and_warnings(self, monitor, test_split):
        warnings = list(monitor.run(test_split.records))
        assert monitor.records_seen == len(test_split.records)
        assert monitor.warnings_raised == len(warnings)

    def test_at_most_one_alert_per_episode(self, monitor, test_split):
        """No duplicate alerts for a single node episode."""
        warnings = list(monitor.run(test_split.records))
        keyed = [(str(w.node), round(w.decision_time // 600)) for w in warnings]
        # Two alerts for the same node within the same 10-minute window
        # would indicate episode-level alert spam.
        assert len(keyed) == len(set(keyed))

    def test_safe_records_never_alert(self, monitor, small_log):
        safe = [
            r
            for r in small_log.records[:300]
            if "Wait4Boot" in r.message or "session opened" in r.message
        ]
        assert all(monitor.feed(r) is None for r in safe)

    def test_unknown_message_ignored(self, monitor):
        record = LogRecord(
            1.0,
            CrayNodeId(0, 0, 0, 0, 0),
            "kernel",
            "never seen message family xyz qqq",
        )
        assert monitor.feed(record) is None

    def test_system_records_ignored(self, monitor, small_log):
        record = LogRecord(1.0, None, "erd", small_log.records[0].message)
        assert monitor.feed(record) is None

    def test_pending_nodes_tracks_open_episodes(self, monitor, test_split):
        for record in test_split.records[:2000]:
            monitor.feed(record)
        pending = monitor.pending_nodes()
        assert isinstance(pending, list)

    def test_reset_clears_state(self, monitor, test_split):
        for record in test_split.records[:2000]:
            monitor.feed(record)
        monitor.reset()
        assert monitor.pending_nodes() == []

    def test_gap_closes_episode(self, trained_model, test_split):
        """After a long quiet period a node can alert again."""
        monitor = StreamingMonitor(trained_model, episode_gap=600.0)
        warnings = list(monitor.run(test_split.records))
        nodes = [str(w.node) for w in warnings]
        # With many failures per node over the horizon, repeated alerts
        # for one node across distinct episodes are expected.
        assert len(nodes) >= len(set(nodes))

    def test_gap_exactly_at_boundary_keeps_episode_open(
        self, trained_model, test_split
    ):
        """The close rule is strict: a gap of *exactly* episode_gap stays open."""
        monitor = StreamingMonitor(trained_model, episode_gap=600.0)
        anomalous = _find_record(trained_model, test_split.records, terminal=False)
        monitor.feed(anomalous)
        exactly = dataclasses.replace(
            anomalous, timestamp=anomalous.timestamp + 600.0
        )
        monitor.feed(exactly)
        assert monitor.episodes_closed == 0
        assert len(monitor._buffers[anomalous.node]) == 2
        # one microsecond past the gap closes it
        beyond = dataclasses.replace(
            anomalous, timestamp=anomalous.timestamp + 1200.000001
        )
        monitor.feed(beyond)
        assert monitor.episodes_closed == 1
        assert len(monitor._buffers[anomalous.node]) == 1

    def test_terminal_event_closes_episode_eagerly(
        self, trained_model, test_split
    ):
        """A terminal event must not linger in pending_nodes()."""
        monitor = StreamingMonitor(trained_model)
        anomalous = _find_record(trained_model, test_split.records, terminal=False)
        terminal = _find_record(trained_model, test_split.records, terminal=True)
        monitor.feed(anomalous)
        down = dataclasses.replace(
            terminal,
            node=anomalous.node,
            timestamp=anomalous.timestamp + 1.0,
        )
        monitor.feed(down)
        assert anomalous.node not in monitor.pending_nodes()
        assert monitor.episodes_closed == 1

    def test_duplicate_records_buffer_both_in_record_path(
        self, trained_model, test_split
    ):
        """feed() is dedup-free by design; dedup lives in the ingest path."""
        monitor = StreamingMonitor(trained_model)
        anomalous = _find_record(trained_model, test_split.records, terminal=False)
        monitor.feed(anomalous)
        monitor.feed(anomalous)
        assert monitor.records_seen == 2
        assert len(monitor._buffers[anomalous.node]) == 2

    def test_duplicate_lines_buffer_both_in_line_path(
        self, trained_model, test_split
    ):
        """The line path is dedup-free too: the service dedups upstream."""
        monitor = StreamingMonitor(trained_model)
        anomalous = _find_record(trained_model, test_split.records, terminal=False)
        line = render_line(anomalous)
        monitor.feed_line_batch([line])
        monitor.feed_line_batch([line])
        health = monitor.health()
        assert health.records_seen == 2
        assert health.ingest["duplicates_dropped"] == 0
        assert len(monitor.open_episode(anomalous.node)) == 2

    def test_lru_eviction_bounds_node_table(self, monitor, test_split):
        bounded = StreamingMonitor(monitor.model, max_nodes=4)
        for record in test_split.records:
            bounded.feed(record)
        assert len(bounded._buffers) <= 4
        assert bounded.nodes_evicted > 0

    def test_event_cap_bounds_episode_buffers(self, trained_model, test_split):
        bounded = StreamingMonitor(trained_model, max_events_per_node=4)
        anomalous = _find_record(trained_model, test_split.records, terminal=False)
        for i in range(10):
            bumped = dataclasses.replace(
                anomalous, timestamp=anomalous.timestamp + 0.1 * i
            )
            bounded.feed(bumped)
        assert len(bounded._buffers[anomalous.node]) == 4
        assert bounded.events_evicted == 6

    def test_late_record_is_inserted_in_time_order(
        self, trained_model, test_split
    ):
        """A record behind the node's tail must not break the buffer."""
        monitor = StreamingMonitor(trained_model)
        anomalous = _find_record(trained_model, test_split.records, terminal=False)
        t0 = anomalous.timestamp
        for offset in (0.0, 20.0, 10.0, 30.0):
            monitor.feed(dataclasses.replace(anomalous, timestamp=t0 + offset))
        times = [e.timestamp for e in monitor.open_episode(anomalous.node)]
        assert times == [t0, t0 + 10.0, t0 + 20.0, t0 + 30.0]
        assert monitor.scores_attempted == 4

    def test_health_snapshot_counts(self, monitor, test_split):
        warnings = list(monitor.run(test_split.records[:2000]))
        health = monitor.health()
        assert health.records_seen == 2000
        assert health.warnings_raised == len(warnings)
        assert health.open_episodes == len(monitor.pending_nodes())
        assert health.ingest["lines_seen"] == 0  # record path skips ingest
        as_dict = health.as_dict()
        assert as_dict["records_seen"] == 2000
        assert as_dict["ingest"] == health.ingest

    def test_rejects_bad_bounds(self, trained_model):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            StreamingMonitor(trained_model, max_nodes=0)
        with pytest.raises(ConfigError):
            StreamingMonitor(trained_model, max_events_per_node=1)


class TestBatchedFeedEquivalence:
    """feed_batch must be observably identical to sequential feed."""

    def _sequential(self, trained_model, records):
        monitor = StreamingMonitor(trained_model)
        warnings = [w for w in map(monitor.feed, records) if w is not None]
        return monitor, warnings

    def test_feed_batch_bit_identical_to_feed(self, trained_model, test_split):
        records = test_split.records[:2500]
        reference, expected = self._sequential(trained_model, records)
        for batch_size in (3, 64, len(records)):
            monitor = StreamingMonitor(trained_model)
            warnings = list(monitor.run(records, batch_size=batch_size))
            assert warnings == expected
            assert monitor.state_dict() == reference.state_dict()

    def test_outcomes_mirror_counter_deltas(self, trained_model, test_split):
        records = test_split.records[:1500]
        monitor = StreamingMonitor(trained_model)
        outcomes = monitor.feed_batch(records)
        assert len(outcomes) == len(records)
        raised = [o.warning for o in outcomes if o.warning is not None]
        assert len(raised) == monitor.warnings_raised > 0

    def test_state_round_trip_mid_stream(self, trained_model, test_split):
        records = test_split.records[:2000]
        half = len(records) // 2
        reference, expected = self._sequential(trained_model, records)

        first = StreamingMonitor(trained_model)
        head = [w for w in map(first.feed, records[:half]) if w is not None]
        resumed = StreamingMonitor(trained_model)
        resumed.load_state_dict(first.state_dict())
        tail = [
            o.warning
            for o in resumed.feed_batch(records[half:])
            if o.warning is not None
        ]
        assert head + tail == expected
        assert resumed.state_dict() == reference.state_dict()

    def test_feed_line_batch_matches_feed_line(self, trained_model, test_split):
        """One whole-batch feed equals the same lines fed one per batch."""
        lines = [render_line(r) for r in test_split.records[:1200]]
        sequential = StreamingMonitor(trained_model)
        expected = [
            outcome
            for line in lines
            for outcome in sequential.feed_line_batch([line])
        ]
        batched = StreamingMonitor(trained_model)
        assert batched.feed_line_batch(lines) == expected
        assert any(o.warning is not None for o in expected)
        assert batched.state_dict() == sequential.state_dict()

    def test_feed_line_batch_reports_ingest_error_in_outcome(
        self, trained_model
    ):
        # The default budget is enforced from the 100th line on, so a
        # batch of garbage reports errors from there instead of raising.
        monitor = StreamingMonitor(trained_model)
        outcomes = monitor.feed_line_batch(["not a log line at all"] * 120)
        assert len(outcomes) == 120
        assert all(o.ingest_error is None for o in outcomes[:99])
        assert all(o.ingest_error is not None for o in outcomes[99:])
        assert all(o.warning is None for o in outcomes)
        assert monitor.records_seen == 0

    def test_run_rejects_bad_batch_size(self, monitor, test_split):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            list(monitor.run(test_split.records[:10], batch_size=0))
