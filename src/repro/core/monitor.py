"""Streaming failure monitor: online scoring over a live record feed.

The paper evaluates offline ("the training phases 1 and 2 are performed
offline"), but its motivation is operational: warn *before* the node
dies so jobs can be migrated.  :class:`StreamingMonitor` provides that
deployment surface over a trained model — it consumes raw log records
as they arrive, maintains per-node episode buffers in time order (an
anomalous event that arrives late is inserted at its time-sorted
position, so one reordered line cannot poison a node's window stack),
scores each growing episode with the phase-3 online mode, and emits one
:class:`~repro.core.alerts.FailureWarning` per matched episode.

The per-episode single-alert rule mirrors real alerting practice: once a
node is flagged, further events of the same episode do not re-alert;
the buffer closes when the episode ends (terminal seen — closed
eagerly — or the inter-event gap exceeds the episode window).

The monitor is hardened for unattended production use:

* per-node episode buffers are **bounded** (oldest events dropped) and
  the node table is **LRU-evicted** at a configurable capacity, so a
  cluster-wide event storm cannot grow memory without bound;
* a scoring failure on one node's episode degrades to a **counted
  skip** instead of killing the feed loop — one poisoned episode must
  not take down the monitor for every other node;
* raw lines can be fed directly through the hardened ingest front-end
  (:meth:`feed_line_batch`), which quarantines unparseable input
  against an error budget;
* :meth:`health` returns a stats snapshot for operator dashboards,
  including a coarse ``status`` that transitions healthy → degraded on
  a scoring failure and degraded → recovered after a configurable run
  of successful scorings;
* the serving layer can force the monitor into **degraded mode**
  (:attr:`degraded_mode`), in which events are still buffered but
  scoring is skipped — the path a tripped circuit breaker routes
  through — and can snapshot/restore the complete mutable state
  (:meth:`state_dict` / :meth:`load_state_dict`) for bit-identical
  checkpoint resume.

Feeding is **batch-major**: :meth:`feed_batch` accumulates a batch of
records' pending per-node updates and flushes them through *one* batched
LSTM forward (:meth:`Phase3Predictor.score_partial_batch`, the only
online scoring path) instead of one forward per record.  :meth:`feed`
is the batch of one, and :meth:`feed_line_batch` puts the hardened
ingest front-end ahead of :meth:`feed_batch`.  The batched
flush is engineered to be observably identical to sequential feeding —
same scores bit for bit, same warning order, same counters, same health
transitions, same ``state_dict`` — see the module's flush notes below.

Flush design: buffer mutations (LRU touch/evict, gap close, event-cap
drop, append, eager terminal close) are applied immediately at submit
time, because a record's buffer snapshot depends only on *earlier*
records — exactly as in sequential feeding.  Mutations of the per-node
alert latch and the health-status machine are *deferred* into an ordered
operation list replayed at flush time, because a latch add depends on a
scoring outcome.  Which units to score is decided with a "surely
latched" preview set (the latch set with only the batch's discards
applied): a node already latched under discards-only stays latched under
any interleaving of adds, so it is provably skipped; every other unit is
scored speculatively in the batched forward and its result dropped at
replay if an earlier record's flag latched the node first.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from ..errors import ConfigError, IngestError
from ..events import Label, ParsedEvent
from ..obs import metrics_registry
from ..simlog.record import LogRecord
from ..topology.cray import CrayNodeId
from .alerts import FailureWarning
from .desh import DeshModel

__all__ = ["FeedOutcome", "StreamingMonitor", "MonitorHealth"]


@dataclass(frozen=True)
class MonitorHealth:
    """Point-in-time stats snapshot of a :class:`StreamingMonitor`.

    ``status`` is the coarse operator-facing state: ``"healthy"`` until
    the first scoring failure, ``"degraded"`` while failures are recent,
    and ``"recovered"`` once ``recovery_successes`` consecutive scorings
    have succeeded after the last failure.
    """

    records_seen: int
    warnings_raised: int
    open_episodes: int
    tracked_nodes: int
    degraded_skips: int
    events_evicted: int
    nodes_evicted: int
    episodes_closed: int
    ingest: "dict | None" = field(default=None)
    status: str = "healthy"
    scores_attempted: int = 0

    def as_dict(self) -> dict:
        """The snapshot as a plain dict (for JSON dashboards)."""
        out = {
            "status": self.status,
            "records_seen": self.records_seen,
            "warnings_raised": self.warnings_raised,
            "open_episodes": self.open_episodes,
            "tracked_nodes": self.tracked_nodes,
            "degraded_skips": self.degraded_skips,
            "scores_attempted": self.scores_attempted,
            "events_evicted": self.events_evicted,
            "nodes_evicted": self.nodes_evicted,
            "episodes_closed": self.episodes_closed,
        }
        if self.ingest is not None:
            out["ingest"] = self.ingest
        return out


@dataclass(frozen=True)
class FeedOutcome:
    """Per-record result of a batched feed.

    ``attempted`` mirrors the sequential path's ``scores_attempted``
    increment for this record, ``skipped`` its ``degraded_skips``
    increment; the serving layer replays circuit-breaker bookkeeping
    from these instead of diffing monitor counters around each call.
    ``ingest_error`` is set (and the record not fed) when the raw-line
    path quarantined the line past its error budget.
    """

    warning: Optional[FailureWarning] = None
    attempted: bool = False
    skipped: bool = False
    ingest_error: Optional[IngestError] = None


class StreamingMonitor:
    """Per-node streaming episode tracker over a trained Desh model.

    Parameters
    ----------
    model:
        The trained :class:`~repro.core.desh.DeshModel` to score with.
    episode_gap:
        Inter-event gap (seconds) that closes an episode.
    max_nodes:
        Capacity of the per-node buffer table; the least recently active
        node is evicted when a new node would exceed it.
    max_events_per_node:
        Cap on one node's open episode buffer; the oldest buffered event
        is dropped to admit a new one.
    ingest_config:
        Optional :class:`~repro.resilience.IngestConfig` for the
        raw-line path (:meth:`feed_line_batch`).
    recovery_successes:
        Consecutive successful scorings after a failure before the
        health status flips from ``"degraded"`` to ``"recovered"``.
    """

    def __init__(
        self,
        model: DeshModel,
        *,
        episode_gap: float = 600.0,
        max_nodes: int = 4096,
        max_events_per_node: int = 512,
        ingest_config=None,
        recovery_successes: int = 3,
    ) -> None:
        if max_nodes < 1:
            raise ConfigError(f"max_nodes must be >= 1, got {max_nodes}")
        if max_events_per_node < 2:
            raise ConfigError(
                f"max_events_per_node must be >= 2, got {max_events_per_node}"
            )
        if recovery_successes < 1:
            raise ConfigError(
                f"recovery_successes must be >= 1, got {recovery_successes}"
            )
        self.model = model
        self.gap = episode_gap
        self.max_nodes = max_nodes
        self.max_events_per_node = max_events_per_node
        self.recovery_successes = recovery_successes
        self._buffers: "OrderedDict[CrayNodeId, list[ParsedEvent]]" = OrderedDict()
        self._alerted: set[CrayNodeId] = set()
        self._ingestor = None
        self._ingest_config = ingest_config
        self.records_seen = 0
        self.warnings_raised = 0
        self.degraded_skips = 0
        self.scores_attempted = 0
        self.events_evicted = 0
        self.nodes_evicted = 0
        self.episodes_closed = 0
        self.degraded_mode = False
        self._status = "healthy"
        self._successes_since_skip = 0

    # ------------------------------------------------------------------
    def feed(self, record: LogRecord) -> Optional[FailureWarning]:
        """Consume one record; returns a warning when a flag fires.

        Safe-labeled, out-of-vocabulary and system-level records never
        alert.  A node alerts at most once per episode.  A per-node
        scoring failure (:class:`~repro.errors.PredictionError`) is
        converted into a counted degraded-mode skip — the monitor keeps
        serving every other node.

        This is the batch of one: all semantics live in
        :meth:`feed_batch`, so single-record and batched feeding cannot
        drift apart.
        """
        return self.feed_batch([record])[0].warning

    def feed_batch(self, records: "Sequence[LogRecord]") -> "list[FeedOutcome]":
        """Consume a batch of records through one batched scoring flush.

        Observably identical to calling :meth:`feed` on each record in
        order (same warnings, counters, buffers, latches, and health
        transitions — scores bit for bit), but all scoreable pending
        updates run through a single
        :meth:`~repro.core.phase3.Phase3Predictor.score_partial_batch`
        forward.  See the module docstring for the submit/replay design.
        """
        registry = metrics_registry()
        outcomes: "list[FeedOutcome]" = [FeedOutcome()] * len(records)
        # Deferred alert-latch / health-machine operations, in record
        # order.  Forms: ("discard", node), ("skip",), ("latched",),
        # and ("score", outcome_index, node, snapshot, unit_index).
        ops: "list[tuple]" = []
        units: "list[tuple[ParsedEvent, ...]]" = []
        # The latch set as it would look with only this batch's discards
        # applied — the provably-still-latched preview (adds only ever
        # grow the set, so membership here means a guaranteed skip).
        preview = set(self._alerted)
        for index, record in enumerate(records):
            self.records_seen += 1
            registry.counter("monitor.records").inc()
            event = self.model.parser.encode(record)
            if event is None or event.node is None or event.label == Label.SAFE:
                continue
            node = event.node
            buf, evicted = self._touch(node)
            for cold in evicted:
                ops.append(("discard", cold))
                preview.discard(cold)
            if buf and event.timestamp - buf[-1].timestamp > self.gap:
                buf.clear()
                ops.append(("discard", node))
                preview.discard(node)
                self.episodes_closed += 1
            if len(buf) >= self.max_events_per_node:
                del buf[0]
                self.events_evicted += 1
            if buf and event.timestamp < buf[-1].timestamp:
                # A late line: keep the buffer time-sorted, which the
                # window encoding requires.
                bisect.insort(buf, event, key=lambda e: e.timestamp)
            else:
                buf.append(event)
            if self.degraded_mode:
                # Forced degraded path (tripped circuit breaker): keep
                # buffering so episodes stay warm, but skip scoring.
                self.degraded_skips += 1
                registry.counter("monitor.degraded_skips").inc()
                ops.append(("skip",))
                outcomes[index] = FeedOutcome(skipped=True)
            else:
                self.scores_attempted += 1
                outcomes[index] = FeedOutcome(attempted=True)
                if node in preview:
                    # Latched even before any of this batch's flags can
                    # land: the sequential path would early-return from
                    # its alert check and note a success.
                    ops.append(("latched",))
                else:
                    snapshot = tuple(buf)
                    ops.append(("score", index, node, snapshot, len(units)))
                    units.append(snapshot)
            if event.terminal:
                # Close terminal episodes eagerly: the node went down, so
                # its next record necessarily starts a fresh episode, and
                # pending_nodes() must not report the dead episode as open.
                self._buffers.pop(node, None)
                ops.append(("discard", node))
                preview.discard(node)
                self.episodes_closed += 1
        if units:
            scores = self.model.predictor.score_partial_batch(units)
        else:
            scores = []
        for op in ops:
            kind = op[0]
            if kind == "discard":
                self._alerted.discard(op[1])
            elif kind == "skip":
                self._note_skip()
            elif kind == "latched":
                self._note_success()
            else:
                index, node, snapshot, unit_index = op[1:]
                if node in self._alerted:
                    # An earlier record in this batch latched the node
                    # first; its speculative score is dropped, exactly
                    # like the sequential early return.
                    self._note_success()
                    continue
                result = scores[unit_index]
                if result.error is not None:
                    self.degraded_skips += 1
                    registry.counter("monitor.degraded_skips").inc()
                    self._note_skip()
                    outcomes[index] = FeedOutcome(attempted=True, skipped=True)
                    continue
                self._note_success()
                if result.flagged:
                    self._alerted.add(node)
                    self.warnings_raised += 1
                    registry.counter("monitor.warnings").inc()
                    likely = None
                    if self.model.classifier is not None:
                        from .chains import Episode

                        likely = self.model.classifier.classify(
                            Episode(node, snapshot)
                        ).value
                    outcomes[index] = FeedOutcome(
                        warning=FailureWarning(
                            node=node,
                            decision_time=snapshot[-1].timestamp,
                            lead_seconds=result.lead_seconds,
                            mse=result.mse,
                            likely_class=likely,
                        ),
                        attempted=True,
                    )
        return outcomes

    def _note_skip(self) -> None:
        """A scoring opportunity was skipped: enter the degraded status."""
        self._status = "degraded"
        self._successes_since_skip = 0

    def _note_success(self) -> None:
        """A scoring attempt succeeded: progress toward recovery."""
        if self._status == "degraded":
            self._successes_since_skip += 1
            if self._successes_since_skip >= self.recovery_successes:
                self._status = "recovered"

    @property
    def status(self) -> str:
        """Coarse health state: ``healthy`` / ``degraded`` / ``recovered``."""
        return self._status

    def _touch(
        self, node: CrayNodeId
    ) -> "tuple[list[ParsedEvent], list[CrayNodeId]]":
        """LRU-access *node*'s buffer, evicting the coldest at capacity.

        Returns the buffer and the evicted nodes; the caller owns the
        corresponding alert-latch discards (they are replayed in record
        order by the batched flush).
        """
        evicted: "list[CrayNodeId]" = []
        buf = self._buffers.get(node)
        if buf is None:
            while len(self._buffers) >= self.max_nodes:
                cold, _ = self._buffers.popitem(last=False)
                evicted.append(cold)
                self.nodes_evicted += 1
            buf = self._buffers[node] = []
        else:
            self._buffers.move_to_end(node)
        return buf, evicted

    def run(
        self, records: Iterable[LogRecord], *, batch_size: int = 64
    ) -> Iterator[FailureWarning]:
        """Generator form: yield warnings while replaying a record feed.

        Records are fed in batches of *batch_size* (each batch one
        batched scoring flush); warnings come out in the same order as
        sequential feeding, in per-batch bursts.
        """
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        batch: "list[LogRecord]" = []
        for record in records:
            batch.append(record)
            if len(batch) >= batch_size:
                for outcome in self.feed_batch(batch):
                    if outcome.warning is not None:
                        yield outcome.warning
                batch = []
        if batch:
            for outcome in self.feed_batch(batch):
                if outcome.warning is not None:
                    yield outcome.warning

    # ------------------------------------------------------------------
    # raw-line path (hardened ingest front-end)
    # ------------------------------------------------------------------
    def _get_ingestor(self):
        if self._ingestor is None:
            from ..resilience.ingest import HardenedIngestor

            self._ingestor = HardenedIngestor(self._ingest_config)
        return self._ingestor

    def feed_line_batch(self, lines: "Sequence[str]") -> "list[FeedOutcome]":
        """Consume raw lines through ingest plus one batched feed.

        Unparseable lines are quarantined and duplicates within the
        dedup window dropped; an over-budget line is reported in its
        outcome's ``ingest_error`` instead of raising, so one poisoned
        line does not abort the whole batch — the caller decides (the
        serving shards count it and move on).  Ingest runs strictly in
        line order (dedup windows are order-sensitive); surviving
        records flush through :meth:`feed_batch`, so a batch of lines
        is observably identical to the same lines fed one per batch.
        """
        outcomes: "list[Optional[FeedOutcome]]" = [None] * len(lines)
        records: "list[LogRecord]" = []
        fed_indices: "list[int]" = []
        ingestor = self._get_ingestor()
        for index, line in enumerate(lines):
            try:
                record = ingestor.accept_line(line)
            except IngestError as exc:
                outcomes[index] = FeedOutcome(ingest_error=exc)
                continue
            if record is None:
                outcomes[index] = FeedOutcome()
                continue
            records.append(record)
            fed_indices.append(index)
        for index, outcome in zip(fed_indices, self.feed_batch(records)):
            outcomes[index] = outcome
        return outcomes

    # ------------------------------------------------------------------
    def health(self) -> MonitorHealth:
        """Stats snapshot: counters, open state, and ingest accounting."""
        ingest = (
            self._ingestor.stats.as_dict() if self._ingestor is not None else None
        )
        return MonitorHealth(
            records_seen=self.records_seen,
            warnings_raised=self.warnings_raised,
            open_episodes=sum(1 for buf in self._buffers.values() if buf),
            tracked_nodes=len(self._buffers),
            degraded_skips=self.degraded_skips,
            events_evicted=self.events_evicted,
            nodes_evicted=self.nodes_evicted,
            episodes_closed=self.episodes_closed,
            ingest=ingest,
            status=self._status,
            scores_attempted=self.scores_attempted,
        )

    def pending_nodes(self) -> list[CrayNodeId]:
        """Nodes with an open (non-empty) anomalous episode."""
        return [node for node, buf in self._buffers.items() if buf]

    def open_episode(self, node: CrayNodeId) -> tuple[ParsedEvent, ...]:
        """The node's currently buffered episode (empty when untracked)."""
        buf = self._buffers.get(node)
        return tuple(buf) if buf else ()

    def has_alerted(self, node: CrayNodeId) -> bool:
        """Whether *node*'s open episode has already raised its warning."""
        return node in self._alerted

    def reset(self) -> None:
        """Clear all per-node state (e.g. after a maintenance window)."""
        self._buffers.clear()
        self._alerted.clear()
        if self._ingestor is not None:
            self._ingestor.reset()

    # ------------------------------------------------------------------
    # checkpointable state (service graceful-shutdown / resume path)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The complete mutable state as a JSON-serializable dict.

        Captures counters, the per-node buffers *in LRU order*, the
        per-episode alert latches, the health-status machine and — when
        the raw-line path has been used — the hardened ingestor's stats
        and dedup window, so :meth:`load_state_dict` resumes a feed
        bit-identically.
        """
        buffers = [
            [str(node), [_event_state(e) for e in buf]]
            for node, buf in self._buffers.items()
        ]
        return {
            "version": 1,
            "records_seen": self.records_seen,
            "warnings_raised": self.warnings_raised,
            "degraded_skips": self.degraded_skips,
            "scores_attempted": self.scores_attempted,
            "events_evicted": self.events_evicted,
            "nodes_evicted": self.nodes_evicted,
            "episodes_closed": self.episodes_closed,
            "status": self._status,
            "successes_since_skip": self._successes_since_skip,
            "buffers": buffers,
            "alerted": sorted(str(node) for node in self._alerted),
            "ingest": (
                self._ingestor.state_dict()
                if self._ingestor is not None
                else None
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        version = state.get("version")
        if version != 1:
            raise ConfigError(
                f"unsupported monitor state version {version!r} (expected 1)"
            )
        self.reset()
        self.records_seen = int(state["records_seen"])
        self.warnings_raised = int(state["warnings_raised"])
        self.degraded_skips = int(state["degraded_skips"])
        self.scores_attempted = int(state["scores_attempted"])
        self.events_evicted = int(state["events_evicted"])
        self.nodes_evicted = int(state["nodes_evicted"])
        self.episodes_closed = int(state["episodes_closed"])
        self._status = str(state["status"])
        self._successes_since_skip = int(state["successes_since_skip"])
        for node_text, events in state["buffers"]:
            node = CrayNodeId.parse(node_text)
            self._buffers[node] = [_event_from_state(s) for s in events]
        self._alerted = {CrayNodeId.parse(text) for text in state["alerted"]}
        if state.get("ingest") is not None:
            self._get_ingestor().load_state_dict(state["ingest"])


def _event_state(event: ParsedEvent) -> list:
    """Serialize one buffered event (inverse of :func:`_event_from_state`)."""
    return [
        event.timestamp,
        event.phrase_id,
        str(event.node) if event.node is not None else None,
        event.label,
        event.terminal,
    ]


def _event_from_state(state: list) -> ParsedEvent:
    """Rebuild one buffered event from its serialized form."""
    timestamp, phrase_id, node_text, label, terminal = state
    return ParsedEvent(
        timestamp=float(timestamp),
        phrase_id=int(phrase_id),
        node=CrayNodeId.parse(node_text) if node_text is not None else None,
        label=str(label),
        terminal=bool(terminal),
    )
