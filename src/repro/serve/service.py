"""The fault-tolerant prediction service over sharded monitor state.

:class:`PredictionService` is the long-running deployment surface the
paper's lead-time predictions need: it fronts ``num_shards``
independent :class:`~repro.core.monitor.StreamingMonitor` instances
(each with its own hardened ingestor, LRU node table and episode
buffers) behind bounded queues and a supervisor.  Robustness is the
design center:

* **ingest** hash-dedups each line, routes it to its owning shard, and
  admits it to that shard's bounded queue — waiting briefly for space
  (backpressure) and then **shedding** the batch with a retry-after
  hint rather than blocking or buffering without bound;
* **shard workers** consume queue items under a peek/commit contract.
  A fault anywhere in an item — parsing, scoring, a crash — is the one
  fault path: the monitor rolls the item back, the worker dies, the
  :class:`~repro.serve.supervisor.Supervisor` restarts it and the item
  replays with the fault-free result; ``/health`` reads ``degraded``
  until the shard commits again;
* **prediction calls carry deadlines**: an on-demand
  :meth:`PredictionService.predict` rides the shard queue like any
  other item, and if its deadline expires while queued the caller gets
  an explicit *degraded answer* instead of an error or an unbounded
  wait;
* **graceful shutdown** seals ingest, drains every queue, stops the
  workers and writes an atomic
  :class:`~repro.resilience.CheckpointManager` checkpoint of the entire
  mutable state — monitors, dedup window, alert ring — so a restarted
  service resumes the stream bit-identically.

Everything is stdlib ``asyncio`` + the repo's own subsystems; the HTTP
front-end lives in :mod:`repro.serve.server`.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core.alerts import FailureWarning
from ..core.monitor import StreamingMonitor
from ..errors import ConfigError, ServeError
from ..obs import metrics_registry
from ..resilience.checkpoint import CheckpointManager
from ..topology.cray import NODE_ID_RE, CrayNodeId
from .queues import HashDeduper, ShardQueue
from .router import ShardRouter
from .supervisor import RestartPolicy, Supervisor

__all__ = ["ServeConfig", "IngestResult", "PredictionService"]


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of the prediction service.

    Attributes
    ----------
    num_shards:
        Independent monitor shards (and workers, queues).
    queue_depth:
        Per-shard queue capacity in items (one item = one routed batch
        or one prediction request).
    drain_batch_items:
        Max queue items a shard worker takes per wake
        (:meth:`~repro.serve.queues.ShardQueue.peek_many`); an ingest
        burst drains as a few large batched scoring flushes instead of
        many single-item ones.  Each item still commits individually,
        so crash-replay granularity is unchanged.
    backpressure_wait:
        Seconds ingest waits for queue space before shedding a batch.
    retry_after:
        The ``Retry-After`` hint (seconds) returned with shed batches.
    dedup_window:
        Ingest-level hash-dedup window in lines (0 disables).
    deadline_seconds:
        Default deadline for on-demand prediction calls.
    drain_timeout:
        Seconds graceful shutdown waits per queue before giving up on a
        drain (a permanently failed worker must not wedge shutdown).
    alert_buffer:
        Retained alert ring size (``alerts_since`` replay window).
    subscriber_buffer:
        Per-subscriber queue depth; a slower consumer drops alerts (an
        SSE stream then re-reads the ones the ring still holds).
    episode_gap / max_nodes_per_shard / max_events_per_node:
        Forwarded to each shard's
        :class:`~repro.core.monitor.StreamingMonitor`.
    restart:
        The shard workers' restart policy.
    checkpoint_dir:
        When set, graceful shutdown writes a service checkpoint here
        and :meth:`PredictionService.start` restores the latest one.
    checkpoint_keep:
        Retention for service checkpoints (see ``CheckpointManager``).
    seed:
        Seed for the supervisor's deterministic restart jitter.
    """

    num_shards: int = 4
    queue_depth: int = 256
    drain_batch_items: int = 8
    backpressure_wait: float = 0.05
    retry_after: float = 1.0
    dedup_window: int = 4096
    deadline_seconds: float = 0.25
    drain_timeout: float = 5.0
    alert_buffer: int = 1024
    subscriber_buffer: int = 256
    episode_gap: float = 600.0
    max_nodes_per_shard: int = 4096
    max_events_per_node: int = 512
    restart: RestartPolicy = field(default_factory=RestartPolicy)
    checkpoint_dir: Optional[str] = None
    checkpoint_keep: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.queue_depth < 1:
            raise ConfigError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.drain_batch_items < 1:
            raise ConfigError(
                f"drain_batch_items must be >= 1, got {self.drain_batch_items}"
            )
        for name in (
            "backpressure_wait",
            "retry_after",
            "deadline_seconds",
            "drain_timeout",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if self.dedup_window < 0:
            raise ConfigError(
                f"dedup_window must be >= 0, got {self.dedup_window}"
            )
        if self.alert_buffer < 1:
            raise ConfigError(
                f"alert_buffer must be >= 1, got {self.alert_buffer}"
            )
        if self.subscriber_buffer < 1:
            raise ConfigError(
                f"subscriber_buffer must be >= 1, got {self.subscriber_buffer}"
            )
        if self.checkpoint_keep < 1:
            raise ConfigError(
                f"checkpoint_keep must be >= 1, got {self.checkpoint_keep}"
            )


@dataclass
class IngestResult:
    """Accounting of one ingest batch: every line ends up in a bucket."""

    received: int = 0
    accepted: int = 0
    deduped: int = 0
    shed: int = 0
    retry_after: Optional[float] = None
    #: The shed lines themselves (not serialized): a driver that must
    #: not lose data (e.g. the soak harness) retries exactly these.
    shed_lines: list = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-serializable form (the ingest endpoint's response body)."""
        out = {
            "received": self.received,
            "accepted": self.accepted,
            "deduped": self.deduped,
            "shed": self.shed,
        }
        if self.retry_after is not None:
            out["retry_after"] = self.retry_after
        return out


class _Shard:
    """One shard's state bundle: monitor, queue, counters."""

    def __init__(
        self, index: int, monitor: StreamingMonitor, queue: ShardQueue
    ) -> None:
        self.index = index
        self.monitor = monitor
        self.queue = queue
        self.items_taken = 0
        self.lines_processed = 0
        self.ingest_errors = 0


def _finite(value: float) -> Optional[float]:
    """*value* as a JSON-safe float (None for inf/NaN)."""
    return float(value) if math.isfinite(value) else None


class PredictionService:
    """Sharded, supervised, backpressured serving over a trained model.

    Parameters
    ----------
    model:
        The trained :class:`~repro.core.desh.DeshModel` every shard
        monitor scores with (shared, read-only).
    config:
        A :class:`ServeConfig`; defaults are production-ish.
    fault_hook:
        Chaos-soak hook called as ``fault_hook(shard_index,
        item_index)`` before each queue item is processed (i.e. at an
        item boundary, before any monitor mutation).  It may raise
        :class:`~repro.errors.InjectedFaultError` to crash the worker
        or return a positive float to stall it that many seconds.
    """

    def __init__(
        self,
        model,
        config: ServeConfig | None = None,
        *,
        fault_hook: Optional[Callable[[int, int], Optional[float]]] = None,
    ) -> None:
        self.model = model
        self.config = config if config is not None else ServeConfig()
        self.router = ShardRouter(self.config.num_shards)
        self.dedup = HashDeduper(self.config.dedup_window)
        self._fault_hook = fault_hook
        self._shards = [
            _Shard(
                index,
                StreamingMonitor(
                    model,
                    episode_gap=self.config.episode_gap,
                    max_nodes=self.config.max_nodes_per_shard,
                    max_events_per_node=self.config.max_events_per_node,
                ),
                ShardQueue(self.config.queue_depth),
            )
            for index in range(self.config.num_shards)
        ]
        self.supervisor = Supervisor(
            self._worker_main,
            self.config.num_shards,
            policy=self.config.restart,
            seed=self.config.seed,
            on_give_up=self._seal_shard,
        )
        self._subscribers: list[asyncio.Queue] = []
        self._alerts: deque = deque(maxlen=self.config.alert_buffer)
        self._alert_seq = 0
        self._accepting = False
        self._started = False
        self._checkpoints = (
            CheckpointManager(
                self.config.checkpoint_dir, keep=self.config.checkpoint_keep
            )
            if self.config.checkpoint_dir is not None
            else None
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, *, restore: bool = True) -> bool:
        """Start the shard workers; returns True when a checkpoint was
        restored (requires ``checkpoint_dir`` and an intact manifest)."""
        if self._started:
            raise ServeError("service already started")
        restored = False
        if restore and self._checkpoints is not None:
            restored = self._restore_latest()
        self._started = True
        self._accepting = True
        await self.supervisor.start()
        return restored

    def _restore_latest(self) -> bool:
        from .state import restore_service_state

        loaded = self._checkpoints.load_latest()
        if loaded is None:
            return False
        _step, _arrays, meta = loaded
        restore_service_state(self, meta)
        metrics_registry().counter("serve.restores").inc()
        return True

    async def stop(self, *, checkpoint: bool = True) -> Optional[str]:
        """Graceful shutdown: seal, drain, stop workers, checkpoint.

        Returns the checkpoint payload path (as str) when one was
        written.  Queues that fail to drain within ``drain_timeout``
        (e.g. behind a permanently failed worker) are abandoned; their
        still-queued items are *not* part of the checkpoint, which only
        captures committed state.
        """
        self._accepting = False
        for shard in self._shards:
            shard.queue.close()
        for shard in self._shards:
            drained = await shard.queue.join(self.config.drain_timeout)
            if not drained:
                metrics_registry().counter("serve.drain_timeouts").inc()
        await self.supervisor.stop()
        self._started = False
        path: Optional[str] = None
        if checkpoint and self._checkpoints is not None:
            from .state import save_service_checkpoint

            path = str(save_service_checkpoint(self._checkpoints, self))
        for queue in list(self._subscribers):
            try:
                queue.put_nowait(None)  # shutdown sentinel for streamers
            except asyncio.QueueFull:
                continue
        return path

    def _seal_shard(self, index: int) -> None:
        """A worker exhausted its restart budget: stop feeding its queue."""
        self._shards[index].queue.close()

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    async def ingest_lines(self, lines: Sequence[str]) -> IngestResult:
        """Admit a batch of raw log lines: dedup → route → offer.

        Never raises on full queues or a sealed service — load is shed
        and reported, with a retry-after hint.  Shedding composes with
        the dedup window to make client retries idempotent.
        """
        result = IngestResult(received=len(lines))
        registry = metrics_registry()
        if not self._accepting:
            result.shed = len(lines)
            result.shed_lines = list(lines)
            result.retry_after = self.config.retry_after
            registry.counter("serve.ingest.shed").inc(result.shed)
            return result
        batches: list[list[str]] = [[] for _ in self._shards]
        digests: list[list[bytes]] = [[] for _ in self._shards]
        for line in lines:
            if self.dedup.window > 0:
                digest = self.dedup.digest(line)
                # reserve() is the atomic check-then-stage: it runs
                # before any await, so a concurrent ingest carrying the
                # same line dedups against the reservation instead of
                # racing the post-backpressure record().
                if not self.dedup.reserve(digest):
                    result.deduped += 1
                    self.dedup.duplicates += 1
                    continue
            else:
                digest = b""
            index = self.router.shard_of_line(line)
            batches[index].append(line)
            digests[index].append(digest)
        if result.deduped:
            registry.counter("serve.ingest.deduped").inc(result.deduped)
        for shard, batch, batch_digests in zip(self._shards, batches, digests):
            if not batch:
                continue
            admitted = await shard.queue.offer_wait(
                ("lines", batch), self.config.backpressure_wait
            )
            if admitted:
                result.accepted += len(batch)
                # Dedup records only *admitted* lines, so a client retry
                # of a shed batch is not mistaken for a duplicate.
                if self.dedup.window > 0:
                    for digest in batch_digests:
                        # deshlint: allow[F4] safe: the digest was reserved before the await, which made the check-then-act atomic; commit only promotes already-staged state
                        self.dedup.commit_reserved(digest)
            else:
                result.shed += len(batch)
                result.shed_lines.extend(batch)
                if self.dedup.window > 0:
                    for digest in batch_digests:
                        # deshlint: allow[F4] safe: dropping a pre-await reservation leaves no window state, so the client retry of this shed batch is admitted
                        self.dedup.release(digest)
            registry.gauge(f"serve.shard{shard.index}.queue_depth").set(
                shard.queue.depth
            )
        if result.accepted:
            registry.counter("serve.ingest.accepted").inc(result.accepted)
        if result.shed:
            registry.counter("serve.ingest.shed").inc(result.shed)
            result.retry_after = self.config.retry_after
        return result

    # ------------------------------------------------------------------
    # shard worker
    # ------------------------------------------------------------------
    async def _worker_main(self, index: int) -> None:
        """One shard's consume loop (supervised; may crash and restart)."""
        shard = self._shards[index]
        while True:
            # Drain a run of queued items in one wake so ingest bursts
            # amortize into large batched scoring flushes; each item
            # still commits individually, so a crash mid-run leaves the
            # failed item at the head for bit-identical replay.
            items = await shard.queue.peek_many(self.config.drain_batch_items)
            for item in items:
                if self._fault_hook is not None:
                    # Fault injection fires at the item boundary, before
                    # any monitor mutation — a crash here replays the
                    # item after restart with bit-identical results.
                    stall = self._fault_hook(index, shard.items_taken)
                    if stall:
                        metrics_registry().counter("serve.stalls").inc()
                        await asyncio.sleep(stall)
                kind = item[0]
                if kind == "lines":
                    self._process_lines(shard, item[1])
                elif kind == "predict":
                    self._process_predict(shard, item)
                else:  # pragma: no cover - internal invariant
                    raise ServeError(f"unknown queue item kind {kind!r}")
                shard.queue.commit()
                shard.items_taken += 1
                self.supervisor.note_progress(index)
                metrics_registry().gauge(
                    f"serve.shard{shard.index}.queue_depth"
                ).set(shard.queue.depth)
            # Yield so long drains cannot starve the event loop.
            await asyncio.sleep(0)

    def _process_lines(self, shard: _Shard, batch: list[str]) -> None:
        registry = metrics_registry()
        # feed_line_batch commits all or nothing: if it raises, the
        # monitor is as it was before the item, the worker dies with
        # the item uncommitted, and the restarted worker replays it.
        for outcome in shard.monitor.feed_line_batch(batch):
            shard.lines_processed += 1
            if outcome.ingest_error is not None:
                # Budget exhaustion is an operational signal, not a
                # reason to kill the worker: the line is already
                # quarantined, so count and keep serving.
                shard.ingest_errors += 1
                registry.counter("serve.ingest_budget_errors").inc()
                continue
            if outcome.warning is not None:
                self._publish(outcome.warning)

    def _process_predict(self, shard: _Shard, item: tuple) -> None:
        _kind, node_text, deadline, future = item
        if future.done():
            return
        loop = asyncio.get_running_loop()
        registry = metrics_registry()
        if deadline is not None and loop.time() > deadline:
            registry.counter("serve.predict.deadline_expired").inc()
            future.set_result(
                self._degraded_answer(node_text, "deadline-expired")
            )
            return
        try:
            node = CrayNodeId.parse(node_text)
        except Exception:  # deshlint: allow[R4] NodeIdError inherits ValueError; any unparseable id degrades to a typed answer instead of crashing the worker
            future.set_result(self._degraded_answer(node_text, "bad-node-id"))
            return
        episode = shard.monitor.open_episode(node)
        answer = {
            "node": node_text,
            "degraded": False,
            "open_events": len(episode),
            "alerted": shard.monitor.has_alerted(node),
            "flagged": False,
            "mse": None,
            "lead_seconds": 0.0,
        }
        if episode:
            score = self.model.predictor.score_partial_batch([episode])[0]
            answer.update(
                flagged=bool(score.flagged),
                mse=_finite(score.mse),
                lead_seconds=float(score.lead_seconds),
            )
        future.set_result(answer)

    @staticmethod
    def _degraded_answer(node_text: str, reason: str) -> dict:
        """The explicit degraded response shape (never an exception)."""
        return {
            "node": node_text,
            "degraded": True,
            "reason": reason,
            "flagged": False,
            "mse": None,
            "lead_seconds": 0.0,
        }

    # ------------------------------------------------------------------
    # on-demand prediction with deadline
    # ------------------------------------------------------------------
    async def predict(
        self, node_text: str, *, deadline_seconds: Optional[float] = None
    ) -> dict:
        """Deadline-bounded prediction for one node's open episode.

        The request rides the owning shard's queue like any other item;
        a full queue, a deadline that expires while queued or an
        unparseable node id gives the caller a dict with
        ``degraded: true`` and a ``reason`` instead of an error.
        """
        budget = (
            deadline_seconds
            if deadline_seconds is not None
            else self.config.deadline_seconds
        )
        if budget <= 0:
            raise ConfigError(f"deadline must be > 0, got {budget}")
        shard = self._shards[self.router.shard_of_key(node_text)]
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        item = ("predict", node_text, loop.time() + budget, future)
        if not shard.queue.offer(item):
            metrics_registry().counter("serve.predict.shed").inc()
            return self._degraded_answer(node_text, "queue-full")
        try:
            return await asyncio.wait_for(future, budget)
        except asyncio.TimeoutError:
            metrics_registry().counter("serve.predict.deadline_expired").inc()
            return self._degraded_answer(node_text, "deadline-expired")

    # ------------------------------------------------------------------
    # alerts
    # ------------------------------------------------------------------
    def _publish(self, warning: FailureWarning) -> None:
        self._alert_seq += 1
        payload = {
            "seq": self._alert_seq,
            "node": str(warning.node),
            "decision_time": warning.decision_time,
            "lead_seconds": warning.lead_seconds,
            "mse": _finite(warning.mse),
            "likely_class": warning.likely_class,
            "message": warning.message(),
        }
        self._alerts.append(payload)
        metrics_registry().counter("serve.alerts").inc()
        for queue in list(self._subscribers):
            try:
                queue.put_nowait(payload)
            except asyncio.QueueFull:
                # Slow consumer: drop for this subscriber, never stall
                # the shard worker.  An SSE stream re-reads what it
                # missed from the ring on its next wake.
                metrics_registry().counter("serve.subscriber_drops").inc()

    def subscribe(self) -> asyncio.Queue:
        """A live alert queue (``None`` is the shutdown sentinel)."""
        queue: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.subscriber_buffer
        )
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Detach a subscriber queue obtained from :meth:`subscribe`."""
        try:
            self._subscribers.remove(queue)
        except ValueError:
            return

    def alerts_since(self, seq: int = 0) -> list[dict]:
        """Buffered alerts with sequence numbers above *seq*."""
        return [alert for alert in self._alerts if alert["seq"] > seq]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def node_status(self, node_text: str) -> Optional[dict]:
        """Per-node serving state, or ``None`` for an unparseable id."""
        if not NODE_ID_RE.match(node_text.strip()):
            return None
        node = CrayNodeId.parse(node_text)
        shard = self._shards[self.router.shard_of_key(node_text)]
        episode = shard.monitor.open_episode(node)
        return {
            "node": str(node),
            "shard": shard.index,
            "open_events": len(episode),
            "alerted": shard.monitor.has_alerted(node),
            "last_timestamp": episode[-1].timestamp if episode else None,
        }

    def health(self) -> dict:
        """The full operator-facing health document.

        The service reads ``degraded`` while any shard worker has
        crashed without committing an item since (its item is being
        replayed) or has been given up on.
        """
        shards = []
        degraded = False
        for shard, worker in zip(self._shards, self.supervisor.states):
            if worker.failed or worker.consecutive_failures > 0:
                degraded = True
            shards.append(
                {
                    "shard": shard.index,
                    "monitor": shard.monitor.health().as_dict(),
                    "worker": worker.as_dict(),
                    "queue": {
                        "depth": shard.queue.depth,
                        "capacity": shard.queue.capacity,
                        "offered": shard.queue.offered,
                        "committed": shard.queue.committed,
                        "high_water": shard.queue.high_water,
                        "closed": shard.queue.closed,
                    },
                    "items_taken": shard.items_taken,
                    "lines_processed": shard.lines_processed,
                    "ingest_errors": shard.ingest_errors,
                }
            )
        return {
            "status": "degraded" if degraded else "ok",
            "accepting": self._accepting,
            "num_shards": self.config.num_shards,
            "restarts": self.supervisor.total_restarts,
            "alerts_buffered": len(self._alerts),
            "alert_seq": self._alert_seq,
            "deduped": self.dedup.duplicates,
            "shards": shards,
        }
