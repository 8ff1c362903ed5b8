"""Tests for StreamingMonitor episode lifecycle, eviction and state.

Satellite coverage for the serving layer's dependencies on the monitor:
eager terminal episode close, LRU eviction under sustained feed and the
checkpointable state dict.
"""

import pytest

from repro.core import StreamingMonitor
from repro.core.phase3 import PartialScore
from repro.errors import ConfigError
from repro.events import Label, ParsedEvent
from repro.topology import CrayNodeId


class _FakeParser:
    """Pass-through parser: the 'records' fed in are already events."""

    def encode(self, record):
        return record


class _FakeScorer:
    """Scripted phase-3 stand-in: flag on demand."""

    def __init__(self):
        self.flag = False

    def score_partial_batch(self, units):
        return [PartialScore(self.flag, 0.5, 60.0) for _ in units]


class _FakeModel:
    def __init__(self):
        self.parser = _FakeParser()
        self.predictor = _FakeScorer()
        self.classifier = None


def _event(ts, node="c0-0c0s0n0", terminal=False, phrase=5):
    return ParsedEvent(
        timestamp=float(ts),
        phrase_id=phrase,
        node=CrayNodeId.parse(node),
        label=Label.ERROR,
        terminal=terminal,
    )


@pytest.fixture
def model():
    return _FakeModel()


@pytest.fixture
def monitor(model):
    return StreamingMonitor(model)


class TestEpisodeLifecycle:
    def test_terminal_event_closes_episode_eagerly(self, monitor):
        monitor.feed(_event(1.0))
        monitor.feed(_event(2.0, terminal=True))
        node = CrayNodeId.parse("c0-0c0s0n0")
        assert monitor.open_episode(node) == ()
        assert not monitor.has_alerted(node)
        assert monitor.episodes_closed == 1
        assert node not in monitor.pending_nodes()

    def test_terminal_close_clears_alert_latch(self, monitor, model):
        model.predictor.flag = True
        warning = monitor.feed(_event(1.0))
        assert warning is not None
        node = CrayNodeId.parse("c0-0c0s0n0")
        assert monitor.has_alerted(node)
        monitor.feed(_event(2.0, terminal=True))
        assert not monitor.has_alerted(node)
        # The next episode on the same node may alert again.
        warning = monitor.feed(_event(3.0))
        assert warning is not None

    def test_late_event_warning_is_timed_at_the_newest_event(
        self, monitor, model
    ):
        monitor.feed(_event(100.0))
        model.predictor.flag = True
        warning = monitor.feed(_event(90.0))
        assert warning is not None
        assert warning.decision_time == 100.0
        node = CrayNodeId.parse("c0-0c0s0n0")
        assert [e.timestamp for e in monitor.open_episode(node)] == [90.0, 100.0]

    def test_gap_closes_episode_and_starts_fresh(self, monitor):
        monitor.feed(_event(1.0))
        monitor.feed(_event(2.0))
        monitor.feed(_event(2000.0))  # beyond the 600 s default gap
        node = CrayNodeId.parse("c0-0c0s0n0")
        assert len(monitor.open_episode(node)) == 1
        assert monitor.episodes_closed == 1


class TestEviction:
    def test_lru_node_eviction_under_sustained_feed(self, model):
        monitor = StreamingMonitor(model, max_nodes=4)
        nodes = [f"c0-0c0s{s}n{n}" for s in range(4) for n in range(2)]
        for ts, node in enumerate(nodes):
            monitor.feed(_event(float(ts + 1), node=node))
        assert len(monitor.pending_nodes()) == 4
        assert monitor.nodes_evicted == 4
        # The survivors are the most recently active nodes.
        tracked = {str(n) for n in monitor.pending_nodes()}
        assert tracked == set(nodes[-4:])

    def test_touch_refreshes_lru_position(self, model):
        monitor = StreamingMonitor(model, max_nodes=2)
        monitor.feed(_event(1.0, node="c0-0c0s0n0"))
        monitor.feed(_event(2.0, node="c0-0c0s0n1"))
        monitor.feed(_event(3.0, node="c0-0c0s0n0"))  # refresh oldest
        monitor.feed(_event(4.0, node="c0-0c0s1n0"))  # evicts s0n1
        tracked = {str(n) for n in monitor.pending_nodes()}
        assert tracked == {"c0-0c0s0n0", "c0-0c0s1n0"}

    def test_event_buffer_bounded_per_node(self, model):
        monitor = StreamingMonitor(model, max_events_per_node=8)
        for ts in range(20):
            monitor.feed(_event(float(ts) / 10.0))
        node = CrayNodeId.parse("c0-0c0s0n0")
        assert len(monitor.open_episode(node)) == 8
        assert monitor.events_evicted == 12


class TestStateDict:
    def test_round_trip_preserves_everything(self, model):
        monitor = StreamingMonitor(model)
        model.predictor.flag = True
        monitor.feed(_event(1.0, node="c0-0c0s0n0"))
        model.predictor.flag = False
        monitor.feed(_event(2.0, node="c0-0c0s0n1"))
        monitor.feed(_event(3.0, node="c0-0c0s1n0"))

        restored = StreamingMonitor(model)
        restored.load_state_dict(monitor.state_dict())
        assert restored.state_dict() == monitor.state_dict()
        assert restored.has_alerted(CrayNodeId.parse("c0-0c0s0n0"))
        # LRU order survives: evict behavior matches from here on.
        assert [str(n) for n in restored.pending_nodes()] == [
            str(n) for n in monitor.pending_nodes()
        ]

    def test_resumed_feed_matches_uninterrupted(self, model):
        events = [
            _event(float(ts + 1), node=f"c0-0c0s{ts % 2}n{ts % 2}")
            for ts in range(30)
        ]
        straight = StreamingMonitor(model)
        for event in events:
            straight.feed(event)

        first = StreamingMonitor(model)
        for event in events[:15]:
            first.feed(event)
        resumed = StreamingMonitor(model)
        resumed.load_state_dict(first.state_dict())
        for event in events[15:]:
            resumed.feed(event)
        assert resumed.state_dict() == straight.state_dict()

    def test_load_rejects_unknown_version(self, monitor):
        with pytest.raises(ConfigError):
            monitor.load_state_dict({"version": 99})
