"""Tests for the shared event containers."""

import numpy as np
import pytest

from repro.errors import ChainExtractionError
from repro.events import EventSequence, Label, ParsedEvent, group_by_node
from repro.topology import CrayNodeId

NODE = CrayNodeId(0, 0, 0, 0, 0)
OTHER = CrayNodeId(0, 0, 0, 0, 1)


def ev(t, pid=0, node=NODE, label=Label.UNKNOWN, terminal=False):
    return ParsedEvent(
        timestamp=t, phrase_id=pid, node=node, label=label, terminal=terminal
    )


class TestParsedEvent:
    def test_rejects_bad_label(self):
        with pytest.raises(ChainExtractionError):
            ParsedEvent(timestamp=0.0, phrase_id=0, label="bogus")

    def test_rejects_negative_phrase_id(self):
        with pytest.raises(ChainExtractionError):
            ParsedEvent(timestamp=0.0, phrase_id=-1)

    def test_ordering_by_time_then_phrase(self):
        a = ev(1.0, pid=5)
        b = ev(2.0, pid=1)
        c = ev(1.0, pid=2)
        assert sorted([b, a, c]) == [c, a, b]

    def test_default_label_is_unknown(self):
        assert ParsedEvent(timestamp=0.0, phrase_id=0).label == Label.UNKNOWN


class TestEventSequence:
    def test_sorts_on_construction(self):
        seq = EventSequence(NODE, [ev(5.0), ev(1.0), ev(3.0)])
        assert [e.timestamp for e in seq] == [1.0, 3.0, 5.0]

    def test_rejects_foreign_node_events(self):
        with pytest.raises(ChainExtractionError):
            EventSequence(NODE, [ev(0.0, node=OTHER)])

    def test_rejects_foreign_node_after_same_node_events(self):
        with pytest.raises(ChainExtractionError, match="does not match"):
            EventSequence(NODE, [ev(0.0), ev(1.0, node=None), ev(2.0)])
        with pytest.raises(ChainExtractionError):
            EventSequence(None, [ev(0.0, node=None), ev(1.0)])

    def test_accepts_equal_but_distinct_node_objects(self):
        twin = CrayNodeId(0, 0, 0, 0, 0)
        assert twin is not NODE
        assert len(EventSequence(NODE, [ev(0.0, node=twin), ev(1.0)])) == 2

    def test_order_matches_parsed_event_ordering(self):
        """Ties on timestamp break by phrase id; full ties keep input
        order (stable), exactly like sorting by ParsedEvent's __lt__."""
        rng = np.random.default_rng(0)
        events = [
            ev(float(t), pid=int(p), terminal=bool(k))
            for t, p, k in zip(rng.integers(0, 5, 200), rng.integers(0, 4, 200),
                               rng.integers(0, 2, 200))
        ]
        seq = EventSequence(NODE, events)
        assert [id(e) for e in seq] == [id(e) for e in sorted(events)]

    def test_phrase_ids_array(self):
        seq = EventSequence(NODE, [ev(0.0, pid=3), ev(1.0, pid=7)])
        ids = seq.phrase_ids()
        assert ids.dtype == np.int64
        assert ids.tolist() == [3, 7]

    def test_arrays_are_cached(self):
        seq = EventSequence(NODE, [ev(0.0), ev(1.0)])
        assert seq.phrase_ids() is seq.phrase_ids()
        assert seq.timestamps() is seq.timestamps()

    def test_terminals_indices(self):
        seq = EventSequence(
            NODE,
            [ev(0.0), ev(1.0, label=Label.ERROR, terminal=True), ev(2.0)],
        )
        assert seq.terminals() == [1]

    def test_indexing(self):
        seq = EventSequence(NODE, [ev(0.0, pid=1), ev(1.0, pid=2)])
        assert seq[1].phrase_id == 2

    def test_len(self):
        assert len(EventSequence(NODE, [])) == 0


class TestGroupByNode:
    def test_partitions(self):
        events = [ev(0.0), ev(1.0, node=OTHER), ev(2.0), ev(3.0, node=None)]
        groups = group_by_node(events)
        assert set(groups) == {NODE, OTHER, None}
        assert len(groups[NODE]) == 2
        assert len(groups[OTHER]) == 1
        assert len(groups[None]) == 1

    def test_empty(self):
        assert group_by_node([]) == {}

    def test_groups_are_sorted(self):
        events = [ev(5.0), ev(1.0)]
        groups = group_by_node(events)
        assert [e.timestamp for e in groups[NODE]] == [1.0, 5.0]
