"""Tests for joining verdicts with ground truth."""

import pytest

from repro.analysis.evaluation import EpisodeKind, Evaluator
from repro.core.chains import Episode
from repro.core.phase3 import EpisodeVerdict
from repro.errors import DatasetError
from repro.events import Label, ParsedEvent
from repro.simlog.faults import FailureClass
from repro.simlog.generator import FailureEvent, GroundTruth, NearMissEvent
from repro.topology import CrayNodeId

NODE = CrayNodeId(0, 0, 0, 0, 0)
OTHER = CrayNodeId(0, 0, 0, 0, 1)


def episode(node, start, end):
    events = (
        ParsedEvent(timestamp=start, phrase_id=1, node=node),
        ParsedEvent(timestamp=end, phrase_id=2, node=node),
    )
    return Episode(node, events)


def verdict(node, start, end, flagged, lead=50.0):
    return EpisodeVerdict(
        episode=episode(node, start, end),
        flagged=flagged,
        mse=0.1 if flagged else 9.9,
        decision_index=0 if flagged else -1,
        decision_time=start if flagged else float("nan"),
        lead_seconds=lead if flagged else 0.0,
    )


@pytest.fixture
def truth():
    return GroundTruth(
        failures=[
            FailureEvent(NODE, FailureClass.MCE, "mce", 900.0, 1000.0),
            FailureEvent(OTHER, FailureClass.PANIC, "panic", 1950.0, 2000.0),
        ],
        near_misses=[
            NearMissEvent(NODE, FailureClass.MCE, "mce", 3000.0, 3100.0),
        ],
    )


class TestClassify:
    def test_chain_match(self, truth):
        e = Evaluator(truth)
        scored = e.classify(verdict(NODE, 900.0, 1000.0, True))
        assert scored.kind is EpisodeKind.CHAIN
        assert scored.failure_class is FailureClass.MCE

    def test_chain_requires_same_node(self, truth):
        e = Evaluator(truth)
        scored = e.classify(verdict(OTHER, 900.0, 1000.0, True))
        assert scored.kind is not EpisodeKind.CHAIN

    def test_near_miss_match(self, truth):
        e = Evaluator(truth)
        scored = e.classify(verdict(NODE, 3000.0, 3090.0, True))
        assert scored.kind is EpisodeKind.NEAR_MISS

    def test_clutter_fallback(self, truth):
        e = Evaluator(truth)
        scored = e.classify(verdict(NODE, 5000.0, 5050.0, False))
        assert scored.kind is EpisodeKind.CLUTTER

    def test_slack_extends_match(self, truth):
        e = Evaluator(truth, slack=60.0)
        # Episode ends 40s before the terminal; slack covers it.
        scored = e.classify(verdict(NODE, 900.0, 960.0, True))
        assert scored.kind is EpisodeKind.CHAIN


class TestEvaluate:
    def test_confusion_counting(self, truth):
        verdicts = [
            verdict(NODE, 900.0, 1000.0, True),  # TP (chain flagged)
            verdict(OTHER, 1950.0, 2000.0, False),  # FN (chain missed)
            verdict(NODE, 3000.0, 3100.0, True),  # FP (near miss flagged)
            verdict(OTHER, 5000.0, 5050.0, False),  # TN (clutter quiet)
        ]
        result = Evaluator(truth).evaluate(verdicts)
        assert (result.counts.tp, result.counts.fp) == (1, 1)
        assert (result.counts.fn, result.counts.tn) == (1, 1)

    def test_uncovered_failure_counts_as_fn(self, truth):
        """A failure with no episode at all is still a miss."""
        result = Evaluator(truth).evaluate([verdict(NODE, 900.0, 1000.0, True)])
        assert result.counts.fn == 1
        assert len(result.uncovered_failures) == 1
        assert result.uncovered_failures[0].node == OTHER

    def test_lead_times_from_true_positives_only(self, truth):
        verdicts = [
            verdict(NODE, 900.0, 1000.0, True, lead=80.0),
            verdict(NODE, 3000.0, 3100.0, True, lead=40.0),  # FP, excluded
        ]
        result = Evaluator(truth).evaluate(verdicts)
        assert result.lead_times().tolist() == [80.0]

    def test_true_and_false_positive_lists(self, truth):
        verdicts = [
            verdict(NODE, 900.0, 1000.0, True),
            verdict(NODE, 3000.0, 3100.0, True),
        ]
        result = Evaluator(truth).evaluate(verdicts)
        assert len(result.true_positives()) == 1
        assert result.counts.fp == 1

    def test_metrics_property(self, truth):
        result = Evaluator(truth).evaluate(
            [
                verdict(NODE, 900.0, 1000.0, True),
                verdict(OTHER, 1950.0, 2000.0, True),
            ]
        )
        assert result.metrics.recall == pytest.approx(100.0)

    def test_rejects_negative_slack(self, truth):
        with pytest.raises(DatasetError):
            Evaluator(truth, slack=-1.0)


def brute_force_kind(truth, ep, slack):
    """Scan the whole ground truth, failures first, in its own order."""
    for f in truth.failures:
        if f.node == ep.node and (
            ep.start_time - slack <= f.terminal_time <= ep.end_time + slack
        ):
            return EpisodeKind.CHAIN, f
    for m in truth.near_misses:
        if m.node == ep.node and (
            m.start_time - slack <= ep.start_time <= m.end_time + slack
        ):
            return EpisodeKind.NEAR_MISS, None
    return EpisodeKind.CLUTTER, None


@pytest.mark.parametrize("slack", [0.0, 30.0, 600.0])
def test_node_index_matches_full_scan_on_fixture(trained_model, test_split, slack):
    """The per-node index finds the same first match, failure object
    included, as a scan of the whole ground truth."""
    truth = test_split.ground_truth
    verdicts = trained_model.score(list(test_split.records))
    evaluator = Evaluator(truth, slack=slack)
    kinds = []
    for v in verdicts:
        scored = evaluator.classify(v)
        kind, failure = brute_force_kind(truth, v.episode, slack)
        assert scored.kind is kind
        assert scored.failure is failure
        kinds.append(kind)
    assert {EpisodeKind.CHAIN, EpisodeKind.CLUTTER} <= set(kinds)


def test_first_match_in_ground_truth_order_on_one_node():
    """Two failures of one node inside the slack: the earlier listed wins."""
    truth = GroundTruth(failures=[
        FailureEvent(NODE, FailureClass.MCE, "mce", 900.0, 1000.0),
        FailureEvent(OTHER, FailureClass.MCE, "mce", 900.0, 1005.0),
        FailureEvent(NODE, FailureClass.PANIC, "panic", 950.0, 1010.0),
    ])
    scored = Evaluator(truth, slack=30.0).classify(verdict(NODE, 990.0, 1000.0, True))
    assert scored.failure is truth.failures[0]
