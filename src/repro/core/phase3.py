"""Phase 3: per-node inference — flag failures and predict lead times.

Section 3.3: the test data is encoded into the same (dT, phrase) vectors
as phase 2, per node ("the vectors are not concatenated across nodes as
in phase 1 and 2 ... we form batches corresponding to distinct nodes").
The trained LSTM predicts the next sample of each window; the prediction
is compared with the observed test vector and the MSE computed.  "We use
a threshold of 0.5 for inferring node failures" — windows with
MSE <= 0.5 are matches against the trained failure chains.  The dT of
the sample at which the failure is flagged is the predicted lead time:
"if a failure is flagged after checking P3 we get 2.5 minutes lead time
... the earlier we flag the longer the lead" (Section 4.2).

The *flag position* — how many anomalous events must be observed before
a flag may be raised — is the sensitivity knob of Figure 8: requiring
fewer events flags earlier (longer lead times, more false positives).

An *online* scoring mode (:meth:`Phase3Predictor.score_partial`) anchors
the dT encoding at the newest observed event instead of the episode end,
so a live monitor can score a growing episode without future knowledge;
the model's own predicted dT, decoded back to seconds, is the lead-time
estimate.  This goes beyond the paper's offline evaluation but exercises
the identical model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import Phase3Config
from ..errors import PredictionError
from ..obs import current_tracer, metrics_registry, obs_enabled
from ..events import EventSequence, ParsedEvent
from ..nn.batched import BatchedScorer
from ..nn.model import SequenceRegressor
from ..topology.cray import CrayNodeId
from .chains import Episode, segment_episodes
from .deltas import LeadTimeScaler

__all__ = [
    "Phase3Predictor",
    "EpisodeVerdict",
    "FailurePrediction",
    "PartialScore",
]


def _passing_windows(
    mses: np.ndarray,
    *,
    history: int,
    pad_len: int,
    n_real: int,
    flag_position: int,
    threshold: float,
) -> np.ndarray:
    """Window indices whose MSE passes the flag test, in window order.

    Window ``w`` predicts padded sample ``w + history``; subtracting the
    padding gives the real event index under decision.  A window passes
    when that index is a real event at or past ``flag_position`` and its
    MSE is at or below ``threshold``.  One vectorized pass over the
    whole episode keeps the per-window cost of the measured
    ``phase3.prediction_ms`` path flat.
    """
    if not len(mses):
        return np.empty(0, dtype=np.intp)
    real_idx = np.arange(len(mses)) + history - pad_len
    ok = (
        (real_idx >= flag_position)
        & (real_idx < n_real)
        & (mses <= threshold)
    )
    return np.nonzero(ok)[0]


@dataclass(frozen=True)
class EpisodeVerdict:
    """Scoring outcome for one candidate episode."""

    episode: Episode
    flagged: bool
    mse: float
    decision_index: int = -1
    decision_time: float = float("nan")
    lead_seconds: float = 0.0

    @property
    def node(self) -> Optional[CrayNodeId]:
        """The node the scored episode belongs to."""
        return self.episode.node


@dataclass(frozen=True)
class PartialScore:
    """Outcome of scoring one growing episode on the batched path.

    ``error`` carries the per-unit :class:`~repro.errors.PredictionError`
    when scoring that unit failed; callers replicate the sequential
    path's error handling from it (the other fields are then defaults).
    """

    flagged: bool
    mse: float
    lead_seconds: float
    error: Optional[PredictionError] = None


@dataclass(frozen=True)
class FailurePrediction:
    """A raised failure flag: which node, when, and how much warning."""

    node: Optional[CrayNodeId]
    decision_time: float
    lead_seconds: float
    mse: float

    @property
    def predicted_failure_time(self) -> float:
        """Absolute time at which the node is expected to fail."""
        return self.decision_time + self.lead_seconds


class Phase3Predictor:
    """Score per-node episodes against the trained failure-chain model."""

    def __init__(
        self,
        regressor: SequenceRegressor,
        scaler: LeadTimeScaler,
        *,
        config: Phase3Config | None = None,
        episode_gap: float = 600.0,
    ) -> None:
        if episode_gap <= 0:
            raise PredictionError("episode_gap must be > 0")
        self.regressor = regressor
        self.scaler = scaler
        self.config = config if config is not None else Phase3Config()
        self.episode_gap = episode_gap
        self._scorer: Optional[BatchedScorer] = None

    @property
    def scorer(self) -> BatchedScorer:
        """The shared batch-major scoring core (built on first use)."""
        if self._scorer is None:
            self._scorer = BatchedScorer(
                self.regressor,
                self.scaler,
                history=self.config.history_size,
            )
        return self._scorer

    # ------------------------------------------------------------------
    # offline (paper) scoring
    # ------------------------------------------------------------------
    def score_episode(self, episode: Episode) -> EpisodeVerdict:
        """Score one episode with the retrospective (paper) encoding.

        The flag is raised at the first window whose MSE is at or below
        the threshold, provided at least ``flag_position`` real events
        precede the decision sample; the decision sample's dT is the
        predicted lead time.

        Episodes are scored once whole and then with up to
        ``max_suffix_skip`` leading events removed — ambient anomalies
        that happened shortly before a chain get swept into the same
        episode and would otherwise misalign every window.  Within a
        suffix, at least ``confirmation_windows`` windows must match for
        the episode to be flagged; the decision point is the first match.
        The earliest flag across all suffixes wins (longest lead time).
        """
        timed = obs_enabled()
        start = time.perf_counter() if timed else 0.0
        verdict, windows = self._score_episode(episode)
        if timed and windows:
            self._observe_prediction(
                (time.perf_counter() - start) * 1e3 / windows
            )
        registry = metrics_registry()
        registry.counter("phase3.episodes").inc()
        if verdict.flagged:
            registry.counter("phase3.flags").inc()
        return verdict

    def _score_episode(
        self, episode: Episode
    ) -> tuple[EpisodeVerdict, int]:
        """The scoring body; returns the verdict and the windows scored.

        Every suffix's window stack goes through one chunked
        :meth:`BatchedScorer.predict_batch` call; each suffix's rows are
        then sliced back out for the flag rule.
        """
        cfg = self.config
        if len(episode) < cfg.min_chain_events:
            verdict = EpisodeVerdict(
                episode=episode, flagged=False, mse=float("inf")
            )
            return verdict, 0
        all_ts = episode.timestamps()
        all_ids = episode.phrase_ids()
        max_skip = min(cfg.max_suffix_skip, len(episode) - cfg.min_chain_events)
        suffixes = [
            self.scorer.chain_matrix(all_ts[skip:], all_ids[skip:])
            for skip in range(max_skip + 1)
        ]
        x = np.concatenate([sx for sx, _, _ in suffixes], axis=0)
        y = np.concatenate([sy for _, sy, _ in suffixes], axis=0)
        all_mses: np.ndarray = self.scaler.mse_paper_units(
            self.scorer.predict_batch(x, chunk=cfg.scoring_batch), y
        )
        best_flag: EpisodeVerdict | None = None
        offset = 0
        for skip, (sx, _, pad_len) in enumerate(suffixes):
            mses = all_mses[offset : offset + len(sx)]
            offset += len(sx)
            hits = _passing_windows(
                mses,
                history=cfg.history_size,
                pad_len=pad_len,
                n_real=len(all_ts) - skip,
                flag_position=cfg.flag_position,
                threshold=cfg.mse_threshold,
            )
            if len(hits) < cfg.confirmation_windows:
                continue
            first = int(hits[0])
            decision_index = skip + first + cfg.history_size - pad_len
            if best_flag is None or decision_index < best_flag.decision_index:
                decision_time = float(all_ts[decision_index])
                best_flag = EpisodeVerdict(
                    episode=episode,
                    flagged=True,
                    mse=float(mses[first]),
                    decision_index=decision_index,
                    decision_time=decision_time,
                    lead_seconds=float(episode.end_time - decision_time),
                )
        if best_flag is not None:
            return best_flag, len(x)
        verdict = EpisodeVerdict(
            episode=episode, flagged=False, mse=float(np.min(all_mses))
        )
        return verdict, len(x)

    def predict_sequences(
        self, sequences: Sequence[EventSequence]
    ) -> list[EpisodeVerdict]:
        """Segment every node stream into episodes and score them all."""
        with current_tracer().span(
            "phase3.predict_sequences", sequences=len(sequences)
        ) as span:
            verdicts: list[EpisodeVerdict] = []
            for seq in sequences:
                if seq.node is None:
                    continue
                for episode in segment_episodes(
                    seq,
                    gap=self.episode_gap,
                    min_events=self.config.min_chain_events,
                ):
                    verdicts.append(self.score_episode(episode))
            span.set(
                episodes=len(verdicts),
                flagged=sum(1 for v in verdicts if v.flagged),
            )
        return verdicts

    def predictions(
        self, verdicts: Sequence[EpisodeVerdict]
    ) -> list[FailurePrediction]:
        """The raised flags among *verdicts*, as operator-facing predictions."""
        return [
            FailurePrediction(
                node=v.node,
                decision_time=v.decision_time,
                lead_seconds=v.lead_seconds,
                mse=v.mse,
            )
            for v in verdicts
            if v.flagged
        ]

    # ------------------------------------------------------------------
    # online scoring (live-monitor extension)
    # ------------------------------------------------------------------
    def _partial_matrix(
        self, events: Sequence[ParsedEvent]
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Window stack and targets for one growing episode."""
        timestamps = np.array([e.timestamp for e in events], dtype=np.float64)
        phrase_ids = np.array([e.phrase_id for e in events], dtype=np.int64)
        x, y, _ = self.scorer.chain_matrix(timestamps, phrase_ids)
        return x, y

    def _verdict_from(
        self, pred: np.ndarray, y: np.ndarray
    ) -> "tuple[bool, float, float]":
        """Turn one unit's predictions into ``(flagged, mse, lead)``.

        The lead estimate is the last window's predicted next dT decoded
        to seconds — read off the main forward's final row instead of a
        separate single-window call, so scoring a unit costs exactly one
        batched forward (and the single-row GEMM whose rounding differed
        from the batched kernel is gone entirely).
        """
        mses = self.scaler.mse_paper_units(pred, y)
        best = float(np.min(mses))
        lead = float(self.scaler.decode_lead_seconds(pred[-1, 0]))
        return best <= self.config.mse_threshold, best, lead

    def _observe_prediction(self, per_prediction_ms: float) -> None:
        """The single ``phase3.prediction_ms`` observation site."""
        metrics_registry().histogram("phase3.prediction_ms").observe(
            per_prediction_ms
        )

    def score_partial(
        self, events: Sequence[ParsedEvent]
    ) -> tuple[bool, float, float]:
        """Score a *growing* episode without knowing its end.

        The dT encoding is anchored at the newest observed event.  Returns
        ``(flagged, mse, lead_estimate_seconds)`` where the lead estimate
        is the model's predicted next dT decoded to seconds — how far
        ahead of the current event the model still expects chain activity
        before the terminal.

        Routed through the same :class:`~repro.nn.batched.BatchedScorer`
        kernel as :meth:`score_partial_batch`, so a unit scored alone is
        bitwise identical to the same unit scored inside a batched flush.
        """
        cfg = self.config
        if len(events) < max(2, cfg.min_chain_events):
            return False, float("inf"), 0.0
        timed = obs_enabled()
        start = time.perf_counter() if timed else 0.0
        x, y = self._partial_matrix(events)
        pred = self.scorer.predict_batch(x, chunk=cfg.scoring_batch)
        flagged, best, lead = self._verdict_from(pred, y)
        if timed and len(x):
            self._observe_prediction(
                (time.perf_counter() - start) * 1e3 / len(x)
            )
        return flagged, best, lead

    def score_partial_batch(
        self, units: "Sequence[Sequence[ParsedEvent]]"
    ) -> "list[PartialScore]":
        """Score many growing episodes through one batched forward.

        Window stacks of all scoreable units are concatenated and run as
        one (chunked) batch-major forward; per-row bit-independence of
        the inference kernel makes each unit's scores exactly equal to a
        lone :meth:`score_partial` call.  Units below the minimum event
        count return the same early-out triple the sequential path uses.
        If the batched forward itself raises
        :class:`~repro.errors.PredictionError`, scoring falls back to
        per-unit sequential calls so the error is attributed to exactly
        the unit(s) that fail, matching sequential semantics.

        ``phase3.prediction_ms`` is observed once per scored unit with
        the true per-prediction latency (batch elapsed / windows scored),
        never the whole-batch latency.
        """
        cfg = self.config
        results: "list[Optional[PartialScore]]" = [None] * len(units)
        mats: "list[tuple[int, np.ndarray, np.ndarray]]" = []
        for index, events in enumerate(units):
            if len(events) < max(2, cfg.min_chain_events):
                results[index] = PartialScore(False, float("inf"), 0.0)
                continue
            x, y = self._partial_matrix(events)
            mats.append((index, x, y))
        if not mats:
            return results
        timed = obs_enabled()
        start = time.perf_counter() if timed else 0.0
        if len(mats) == 1:
            stacked = mats[0][1]
        else:
            stacked = np.concatenate([x for _, x, _ in mats], axis=0)
        try:
            preds = self.scorer.predict_batch(stacked, chunk=cfg.scoring_batch)
        except PredictionError:
            for index, x, y in mats:
                unit_start = time.perf_counter() if timed else 0.0
                try:
                    pred = self.scorer.predict_batch(x, chunk=cfg.scoring_batch)
                except PredictionError as exc:
                    results[index] = PartialScore(
                        False, float("inf"), 0.0, error=exc
                    )
                    continue
                results[index] = PartialScore(*self._verdict_from(pred, y))
                if timed:
                    self._observe_prediction(
                        (time.perf_counter() - unit_start) * 1e3 / len(x)
                    )
            return results
        offset = 0
        for index, x, y in mats:
            pred = preds[offset : offset + len(x)]
            offset += len(x)
            results[index] = PartialScore(*self._verdict_from(pred, y))
        if timed:
            per_prediction_ms = (
                (time.perf_counter() - start) * 1e3 / len(stacked)
            )
            for _ in mats:
                self._observe_prediction(per_prediction_ms)
        return results
