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
* raw lines can be fed directly through the hardened ingest front-end
  (:meth:`feed_line_batch`), which quarantines unparseable input
  against an error budget;
* a raw-line batch **commits all or nothing**: if anything inside
  :meth:`feed_line_batch` raises (parsing, scoring, classification),
  the monitor is left exactly as it was before the call, so a serving
  shard that crashes mid-item and replays the item gets the fault-free
  result;
* :meth:`health` returns a stats snapshot for operator dashboards, and
  :meth:`state_dict` / :meth:`load_state_dict` snapshot and restore the
  complete mutable state for bit-identical checkpoint resume.

Feeding is **batch-major**: :meth:`feed_batch` accumulates a batch of
records' pending per-node updates and flushes them through *one* batched
LSTM forward (:meth:`Phase3Predictor.score_partial_batch`, the only
online scoring path) instead of one forward per record.  :meth:`feed`
is the batch of one, and :meth:`feed_line_batch` puts the hardened
ingest front-end ahead of :meth:`feed_batch`.  The batched
flush is engineered to be observably identical to sequential feeding —
same scores bit for bit, same warning order, same counters, same
``state_dict`` — see the module's flush notes below.

Flush design: buffer mutations (LRU touch/evict, gap close, event-cap
drop, append, eager terminal close) are applied immediately at submit
time, because a record's buffer snapshot depends only on *earlier*
records — exactly as in sequential feeding.  Mutations of the per-node
alert latch are *deferred* into an ordered operation list replayed at
flush time, because a latch add depends on a scoring outcome.  Which units to score is decided with a "surely
latched" preview set (the latch set with only the batch's discards
applied): a node already latched under discards-only stays latched under
any interleaving of adds, so it is provably skipped; every other unit is
scored speculatively in the batched forward and its result dropped at
replay if an earlier record's flag latched the node first.
"""

from __future__ import annotations

import bisect
import copy
from collections import OrderedDict
from dataclasses import dataclass, fields
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
    """Point-in-time stats snapshot of a :class:`StreamingMonitor`."""

    records_seen: int
    warnings_raised: int
    open_episodes: int
    tracked_nodes: int
    scores_attempted: int
    events_evicted: int
    nodes_evicted: int
    episodes_closed: int
    ingest: dict

    def as_dict(self) -> dict:
        """The snapshot as a plain dict (for JSON dashboards)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class FeedOutcome:
    """Per-record result of a batched feed.

    ``ingest_error`` is set (and the record not fed) when the raw-line
    path quarantined the line past its error budget.
    """

    warning: Optional[FailureWarning] = None
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
    """

    def __init__(
        self,
        model: DeshModel,
        *,
        episode_gap: float = 600.0,
        max_nodes: int = 4096,
        max_events_per_node: int = 512,
    ) -> None:
        from ..resilience.ingest import HardenedIngestor

        if max_nodes < 1:
            raise ConfigError(f"max_nodes must be >= 1, got {max_nodes}")
        if max_events_per_node < 2:
            raise ConfigError(
                f"max_events_per_node must be >= 2, got {max_events_per_node}"
            )
        self.model = model
        self.gap = episode_gap
        self.max_nodes = max_nodes
        self.max_events_per_node = max_events_per_node
        self._buffers: "OrderedDict[CrayNodeId, list[ParsedEvent]]" = OrderedDict()
        self._alerted: set[CrayNodeId] = set()
        self._ingestor = HardenedIngestor()
        self.records_seen = 0
        self.warnings_raised = 0
        self.scores_attempted = 0
        self.events_evicted = 0
        self.nodes_evicted = 0
        self.episodes_closed = 0

    # ------------------------------------------------------------------
    def feed(self, record: LogRecord) -> Optional[FailureWarning]:
        """Consume one record; returns a warning when a flag fires.

        Safe-labeled, out-of-vocabulary and system-level records never
        alert.  A node alerts at most once per episode.

        This is the batch of one: all semantics live in
        :meth:`feed_batch`, so single-record and batched feeding cannot
        drift apart.
        """
        return self.feed_batch([record])[0].warning

    def feed_batch(self, records: "Sequence[LogRecord]") -> "list[FeedOutcome]":
        """Consume a batch of records through one batched scoring flush.

        Observably identical to calling :meth:`feed` on each record in
        order (same warnings, counters, buffers and latches — scores bit
        for bit), but all scoreable pending updates run through a single
        :meth:`~repro.core.phase3.Phase3Predictor.score_partial_batch`
        forward.  See the module docstring for the submit/replay design.
        """
        registry = metrics_registry()
        outcomes: "list[FeedOutcome]" = [FeedOutcome()] * len(records)
        # Deferred alert-latch operations, in record order.  Forms:
        # ("discard", node) and ("score", outcome_index, node, snapshot,
        # unit_index).
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
            self.scores_attempted += 1
            if node not in preview:
                # Not latched before any of this batch's flags can land
                # (a latched node is the sequential early return).
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
            if op[0] == "discard":
                self._alerted.discard(op[1])
                continue
            index, node, snapshot, unit_index = op[1:]
            if node in self._alerted:
                # An earlier record in this batch latched the node first;
                # its speculative score is dropped, exactly like the
                # sequential early return.
                continue
            result = scores[unit_index]
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
                    )
                )
        return outcomes

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
    def feed_line_batch(self, lines: "Sequence[str]") -> "list[FeedOutcome]":
        """Consume raw lines through ingest plus one batched feed.

        Unparseable lines are quarantined; an over-budget line is
        reported in its outcome's ``ingest_error`` instead of raising,
        so one poisoned line does not abort the whole batch — the caller
        decides (the serving shards count it and move on).  Surviving
        records flush through :meth:`feed_batch`, so a batch of lines is
        observably identical to the same lines fed one per batch.

        The batch commits all or nothing: when anything in here raises,
        the buffers, LRU order, latches, counters, ingest stats and dead
        letters are rolled back before the exception propagates, so a
        retry of the same lines gives the fault-free result.
        """
        saved = self._save()
        try:
            outcomes: "list[Optional[FeedOutcome]]" = [None] * len(lines)
            records: "list[LogRecord]" = []
            fed_indices: "list[int]" = []
            for index, line in enumerate(lines):
                try:
                    record = self._ingestor.accept_line(line)
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
        except BaseException:  # deshlint: allow[R4] rollback boundary: whatever fails mid-batch, undo the batch and re-raise it unchanged
            self._rollback(saved)
            raise

    def _save(self) -> tuple:
        """What :meth:`_rollback` needs to undo one raw-line batch.

        A copy of the buffers (in LRU order) and latches plus the
        counters — not :meth:`state_dict`, which serializes every event
        and costs several times more per batch.
        """
        ingestor = self._ingestor
        return (
            [(node, buf[:]) for node, buf in self._buffers.items()],
            set(self._alerted),
            (
                self.records_seen,
                self.warnings_raised,
                self.scores_attempted,
                self.events_evicted,
                self.nodes_evicted,
                self.episodes_closed,
            ),
            copy.copy(ingestor.stats),
            len(ingestor.dead_letters),
        )

    def _rollback(self, saved: tuple) -> None:
        """Restore the state captured by :meth:`_save`."""
        buffers, alerted, counters, stats, dead_letters = saved
        self._buffers = OrderedDict(buffers)
        self._alerted = alerted
        (
            self.records_seen,
            self.warnings_raised,
            self.scores_attempted,
            self.events_evicted,
            self.nodes_evicted,
            self.episodes_closed,
        ) = counters
        self._ingestor.stats = stats
        del self._ingestor.dead_letters[dead_letters:]

    # ------------------------------------------------------------------
    def health(self) -> MonitorHealth:
        """Stats snapshot: counters, open state, and ingest accounting."""
        return MonitorHealth(
            records_seen=self.records_seen,
            warnings_raised=self.warnings_raised,
            open_episodes=sum(1 for buf in self._buffers.values() if buf),
            tracked_nodes=len(self._buffers),
            scores_attempted=self.scores_attempted,
            events_evicted=self.events_evicted,
            nodes_evicted=self.nodes_evicted,
            episodes_closed=self.episodes_closed,
            ingest=self._ingestor.stats.as_dict(),
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
        self._ingestor.reset()

    # ------------------------------------------------------------------
    # checkpointable state (service graceful-shutdown / resume path)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The complete mutable state as a JSON-serializable dict.

        Captures counters, the per-node buffers *in LRU order*, the
        per-episode alert latches and the hardened ingestor's stats and
        dead letters, so :meth:`load_state_dict` resumes a feed
        bit-identically.
        """
        buffers = [
            [str(node), [_event_state(e) for e in buf]]
            for node, buf in self._buffers.items()
        ]
        return {
            "version": 2,
            "records_seen": self.records_seen,
            "warnings_raised": self.warnings_raised,
            "scores_attempted": self.scores_attempted,
            "events_evicted": self.events_evicted,
            "nodes_evicted": self.nodes_evicted,
            "episodes_closed": self.episodes_closed,
            "buffers": buffers,
            "alerted": sorted(str(node) for node in self._alerted),
            "ingest": self._ingestor.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        version = state.get("version")
        if version != 2:
            raise ConfigError(
                f"unsupported monitor state version {version!r} (expected 2)"
            )
        self.reset()
        self.records_seen = int(state["records_seen"])
        self.warnings_raised = int(state["warnings_raised"])
        self.scores_attempted = int(state["scores_attempted"])
        self.events_evicted = int(state["events_evicted"])
        self.nodes_evicted = int(state["nodes_evicted"])
        self.episodes_closed = int(state["episodes_closed"])
        for node_text, events in state["buffers"]:
            node = CrayNodeId.parse(node_text)
            self._buffers[node] = [_event_from_state(s) for s in events]
        self._alerted = {CrayNodeId.parse(text) for text in state["alerted"]}
        self._ingestor.load_state_dict(state["ingest"])


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
