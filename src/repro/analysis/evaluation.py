"""Join phase-3 verdicts with generator ground truth into scored episodes.

An episode's *truth kind* is determined against the injected events:

* ``CHAIN`` — a ground-truth failure's terminal falls inside the episode
  span (so flagging it is a true positive, missing it a false negative);
* ``NEAR_MISS`` — the episode covers an injected near-miss sequence
  (flagging it is a false positive, per the paper's discussion of
  chain-like sequences that do not end in failure);
* ``CLUTTER`` — ambient anomalous traffic (flag = false positive).

Failures whose chain produced *no* scoreable episode (e.g. the parser
skipped its messages) are counted as additional false negatives so
recall cannot be inflated by losing episodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.phase3 import EpisodeVerdict
from ..errors import DatasetError
from ..simlog.faults import FailureClass
from ..simlog.generator import FailureEvent, GroundTruth
from .metrics import ConfusionCounts, PredictionMetrics

__all__ = [
    "EpisodeKind",
    "ScoredEpisode",
    "Evaluator",
    "EvaluationResult",
    "evaluate_model",
]


class EpisodeKind(enum.Enum):
    """Ground-truth kind of an episode."""

    CHAIN = "chain"
    NEAR_MISS = "near_miss"
    CLUTTER = "clutter"


@dataclass(frozen=True)
class ScoredEpisode:
    """One verdict annotated with its ground-truth kind."""

    verdict: EpisodeVerdict
    kind: EpisodeKind
    failure: Optional[FailureEvent] = None

    @property
    def flagged(self) -> bool:
        """Whether phase 3 raised a failure flag for this episode."""
        return self.verdict.flagged

    @property
    def lead_seconds(self) -> float:
        """Predicted lead time (seconds) of the flag, 0 when unflagged."""
        return self.verdict.lead_seconds

    @property
    def failure_class(self) -> Optional[FailureClass]:
        """Ground-truth class of the matched failure, if any."""
        return self.failure.failure_class if self.failure else None


@dataclass
class EvaluationResult:
    """Scored episodes plus aggregate counts and metrics."""

    scored: list[ScoredEpisode]
    uncovered_failures: list[FailureEvent]
    counts: ConfusionCounts

    @property
    def metrics(self) -> PredictionMetrics:
        """The Table-6 metrics derived from the confusion counts."""
        return self.counts.metrics()

    def true_positives(self) -> list[ScoredEpisode]:
        """Flagged episodes that cover a real failure."""
        return [s for s in self.scored if s.kind is EpisodeKind.CHAIN and s.flagged]

    def lead_times(self) -> np.ndarray:
        """Predicted lead times (seconds) of all true positives."""
        return np.array([s.lead_seconds for s in self.true_positives()])


def _by_node(events: Sequence) -> dict:
    """*events* grouped by ``.node``, each group in input order."""
    index: dict = {}
    for event in events:
        index.setdefault(event.node, []).append(event)
    return index


class Evaluator:
    """Score verdicts against a :class:`GroundTruth`.

    Parameters
    ----------
    slack:
        Seconds of tolerance when matching an episode span to a
        ground-truth terminal or near-miss window.

    The ground truth's failures and near misses are indexed by node
    once, at construction.
    """

    def __init__(self, ground_truth: GroundTruth, *, slack: float = 30.0) -> None:
        if slack < 0:
            raise DatasetError("slack must be >= 0")
        self.ground_truth = ground_truth
        self.slack = slack
        # Per-node views in ground-truth order, so the first match on a
        # node is the one a scan of the whole ground truth would find.
        self._failures = _by_node(ground_truth.failures)
        self._near_misses = _by_node(ground_truth.near_misses)

    # ------------------------------------------------------------------
    def classify(self, verdict: EpisodeVerdict) -> ScoredEpisode:
        """Attach the ground-truth kind to one verdict."""
        ep = verdict.episode
        for f in self._failures.get(ep.node, ()):
            if (
                ep.start_time - self.slack
                <= f.terminal_time
                <= ep.end_time + self.slack
            ):
                return ScoredEpisode(verdict=verdict, kind=EpisodeKind.CHAIN, failure=f)
        for m in self._near_misses.get(ep.node, ()):
            if m.start_time - self.slack <= ep.start_time <= m.end_time + self.slack:
                return ScoredEpisode(verdict=verdict, kind=EpisodeKind.NEAR_MISS)
        return ScoredEpisode(verdict=verdict, kind=EpisodeKind.CLUTTER)

    # ------------------------------------------------------------------
    def evaluate(self, verdicts: Sequence[EpisodeVerdict]) -> EvaluationResult:
        """Score all verdicts and tally the confusion counts."""
        scored = [self.classify(v) for v in verdicts]
        tp = fp = fn = tn = 0
        covered: set[tuple[object, float]] = set()
        for s in scored:
            if s.kind is EpisodeKind.CHAIN:
                assert s.failure is not None
                covered.add((s.failure.node, s.failure.terminal_time))
                if s.flagged:
                    tp += 1
                else:
                    fn += 1
            else:
                if s.flagged:
                    fp += 1
                else:
                    tn += 1
        uncovered = [
            f
            for f in self.ground_truth.failures
            if (f.node, f.terminal_time) not in covered
        ]
        fn += len(uncovered)
        return EvaluationResult(
            scored=scored,
            uncovered_failures=uncovered,
            counts=ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn),
        )


def evaluate_model(
    model,
    records: Sequence,
    ground_truth: GroundTruth,
    *,
    store=None,
    slack: float = 30.0,
) -> EvaluationResult:
    """Score *model* over raw *records* and tally against *ground_truth*.

    With *store* (a :class:`~repro.pipeline.ArtifactStore`), the encoded
    test stream is cached keyed by (vocabulary, records) — repeated
    evaluations of the same log skip the parse entirely and only re-run
    phase-3 scoring.  ``store=None`` parses inline (no caching).
    """
    from ..pipeline.facade import cached_transform

    parsed = cached_transform(model.parser, records, store)
    sequences = [
        seq for seq in parsed.by_node().values() if seq.node is not None
    ]
    verdicts = model.score_sequences(sequences)
    return Evaluator(ground_truth, slack=slack).evaluate(verdicts)
