"""The benchmark's own arithmetic: percentiles, alert matching, span self
time and open-loop lateness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import harness  # noqa: E402
from perfbench.spans import (  # noqa: E402
    END,
    NAME,
    PARENT,
    START,
    LayerStats,
    SpanRecorder,
    self_times,
    unattributed,
    union_length,
)


# ----------------------------------------------------------------------
# percentile rule: at least ten samples beyond the percentile
# ----------------------------------------------------------------------
def test_p99_needs_a_thousand_samples():
    assert harness.percentile(list(range(999)), 0.99) is None
    samples = list(range(1000))
    assert harness.percentile(samples, 0.99) == 989  # 990th smallest
    beyond = [x for x in samples if x > harness.percentile(samples, 0.99)]
    assert len(beyond) == 10


def test_p50_needs_twenty_samples():
    assert harness.percentile(list(range(19)), 0.5) is None
    assert harness.percentile(list(range(20)), 0.5) == 9


def test_percentile_ignores_input_order_and_float_fuzz():
    samples = [float(x) for x in range(2000, 0, -1)]
    # 0.99 * 2000 is 1980.0000000000002 in floating point; the rank must
    # still be 1980, not 1981.
    assert harness.percentile(samples, 0.99) == 1980.0


def test_percentile_rejects_bad_q():
    with pytest.raises(ValueError):
        harness.percentile([1.0] * 100, 1.0)


# ----------------------------------------------------------------------
# alert → line matching
# ----------------------------------------------------------------------
def test_alert_matches_the_trigger_among_lines_sharing_its_key():
    key = harness.alert_key("c0-0c0s0n1", 120.0)
    # Lines 3, 4 and 5 all carry (c0-0c0s0n1, 120.0); the reference replay
    # says line 4 raised the alert.
    due = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    latencies, unmatched = harness.match_alerts(
        [(key, 1.0)], {key: 4}, due
    )
    assert unmatched == []
    assert latencies == [pytest.approx(0.6)]


def test_alert_without_a_trigger_is_reported_unmatched():
    key = harness.alert_key("c0-0c0s0n1", 120.0)
    other = harness.alert_key("c0-0c0s0n2", 120.0)
    latencies, unmatched = harness.match_alerts([(other, 1.0)], {key: 0}, [0.0])
    assert latencies == []
    assert unmatched == [other]


def test_alert_key_normalizes_the_decision_time():
    assert harness.alert_key("n", 5) == harness.alert_key("n", 5.0)


def test_canonical_alerts_ignore_order_and_sequence_numbers():
    a = {"seq": 1, "node": "n1", "decision_time": 2.0, "mse": 0.5}
    b = {"seq": 2, "node": "n0", "decision_time": 9.0, "mse": 0.1}
    renumbered = [dict(b, seq=7), dict(a, seq=8)]
    assert harness.canonical_alerts([a, b]) == harness.canonical_alerts(renumbered)
    assert harness.canonical_alerts([a]) != harness.canonical_alerts([a, a])


# ----------------------------------------------------------------------
# span self time and coverage
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None):
    return [name, start, end, parent, None, None]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("parent", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 4.0, 0),   # overlaps a (concurrent tasks)
        _span("c", 8.0, 12.0, 0),  # runs past the parent's end
        _span("a.child", 1.5, 2.5, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[4] == pytest.approx(1.0)


def test_union_and_unattributed():
    assert union_length([(1, 2), (1.5, 3), (5, 6)]) == pytest.approx(3.0)
    assert union_length([(1, 2)], 1.5, 10) == pytest.approx(0.5)
    spans = [_span("x", 1, 2), _span("y", 1.5, 3), _span("z", 5, 6)]
    assert unattributed(spans, 0, 10) == pytest.approx(7.0)


class _Layered:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    async def serve(self, n):
        await asyncio.sleep(0)
        value = self.inner(n)
        await asyncio.sleep(0)
        return value


def test_recorder_nests_sync_calls_and_restores_the_class():
    recorder = SpanRecorder()
    original = _Layered.outer
    recorder.wrap(_Layered, "outer", "outer")
    recorder.wrap(_Layered, "inner", "inner",
                  counts=lambda args, kwargs, result: {"rows": args[1]})
    assert _Layered().outer(3) == 7
    recorder.unwrap_all()
    assert _Layered.outer is original
    spans = recorder.closed()
    assert [s[NAME] for s in spans] == ["outer", "inner"]
    assert spans[1][PARENT] == 0
    assert LayerStats(spans).count("inner", "rows") == 3


def test_recorder_parents_follow_asyncio_tasks():
    recorder = SpanRecorder()
    recorder.wrap(_Layered, "serve", "serve")
    recorder.wrap(_Layered, "inner", "inner")

    async def main():
        obj = _Layered()
        await asyncio.gather(obj.serve(1), obj.serve(2))

    try:
        asyncio.run(main())
    finally:
        recorder.unwrap_all()
    spans = recorder.closed()
    serves = [i for i, s in enumerate(spans) if s[NAME] == "serve"]
    inners = [s for s in spans if s[NAME] == "inner"]
    assert len(serves) == 2 and len(inners) == 2
    # Each inner call belongs to its own task's serve span, even though
    # the two serve spans interleave in time.
    assert sorted(s[PARENT] for s in inners) == sorted(serves)
    for s in inners:
        parent = spans[s[PARENT]]
        assert parent[START] <= s[START] and s[END] <= parent[END]


def test_missing_layer_is_noted_not_fatal():
    recorder = SpanRecorder()
    recorder.wrap(_Layered, "renamed_away", "gone")
    assert recorder.missing == ["_Layered.renamed_away"]


# ----------------------------------------------------------------------
# open-loop generator honesty
# ----------------------------------------------------------------------
def test_lateness_counts_only_late_sends():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.25, 1.5]  # on time, 250 ms late, early
    assert harness.open_loop_lateness(due, sent) == [0.0, 0.25, 0.0]


def test_lateness_requires_pairs():
    with pytest.raises(ValueError):
        harness.open_loop_lateness([0.0], [])


def test_schedule_keeps_gaps_and_hits_the_mean_rate():
    stamps = [100.0, 101.0, 101.0, 104.0]
    due = harness.scaled_schedule(stamps, rate=2.0)
    # Four lines at 2 lines/s span 2 s; the log's own 1:0:3 gaps survive.
    assert due == pytest.approx([0.0, 0.5, 0.5, 2.0])

