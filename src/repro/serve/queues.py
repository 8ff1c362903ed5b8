"""Bounded per-shard work queues and hash-based ingest deduplication.

:class:`ShardQueue` is the service's backpressure primitive: a bounded
FIFO with **peek/commit** consumption.  The shard worker peeks the head
item, processes it, and only then commits (removes) it — so a worker
that crashes mid-item leaves the item at the head of the queue and the
restarted worker reprocesses it.  Combined with the monitor's
all-or-nothing raw-line batches (a raising item leaves no trace), this
is what makes per-node predictions after a crash — at an item boundary
or in the middle of an item — bit-identical to a fault-free run.

Producers never block indefinitely: :meth:`ShardQueue.offer` is
non-blocking and :meth:`ShardQueue.offer_wait` waits for space only up
to a backpressure budget, after which the caller *sheds* the batch
(HTTP 429 with ``Retry-After``).  Shedding composes with
:class:`HashDeduper`: a client that retries a partially shed batch has
its already-accepted lines dropped by the dedup window, so retries are
idempotent.

All of this is single-event-loop ``asyncio``; there are no threads and
no locks, only condition-free event signalling sized for one consumer
per queue (the shard worker) and any number of producers.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
from collections import deque
from typing import Optional

from ..errors import ConfigError

__all__ = ["ShardQueue", "HashDeduper"]


class ShardQueue:
    """Bounded FIFO with non-blocking offer and peek/commit consumption.

    One consumer (the shard worker) and any number of producers.  The
    consumer contract is strictly ``peek → process → commit``; an item
    is only removed once the worker survived processing it.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.closed = False
        self.offered = 0
        self.committed = 0
        self.high_water = 0
        self._items: deque = deque()
        self._not_empty = asyncio.Event()
        self._space = asyncio.Event()
        self._empty = asyncio.Event()
        self._empty.set()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth(self) -> int:
        """Number of items currently queued (admitted, not committed)."""
        return len(self._items)

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def offer(self, item: object) -> bool:
        """Admit *item* without blocking; False when full or closed."""
        if self.closed or len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        self.offered += 1
        if len(self._items) > self.high_water:
            self.high_water = len(self._items)
        self._empty.clear()
        self._not_empty.set()
        return True

    async def offer_wait(self, item: object, timeout: float) -> bool:
        """Admit *item*, waiting up to *timeout* seconds for space.

        This is the backpressure phase: the producer is slowed down by
        at most *timeout* before the batch is shed.  Returns ``False``
        (shed) when space never appeared or the queue closed.
        """
        if self.offer(item):
            return True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0 or self.closed:
                return False
            # deshlint: allow[F4] optimistic retry: offer() re-checks right after the clear, so a wakeup between clear and wait costs one loop turn, never a lost item
            self._space.clear()
            if self.offer(item):  # re-check after clear: no lost wakeup
                return True
            try:
                await asyncio.wait_for(self._space.wait(), remaining)
            except asyncio.TimeoutError:
                return self.offer(item)

    # ------------------------------------------------------------------
    # consumer side (single consumer)
    # ------------------------------------------------------------------
    async def peek(self) -> object:
        """Wait for a head item and return it *without* removing it."""
        while not self._items:
            # deshlint: allow[F4] single consumer: the while re-checks emptiness after every wait, so a stale clear costs one loop turn, never a lost wakeup
            self._not_empty.clear()
            await self._not_empty.wait()
        return self._items[0]

    async def peek_many(self, max_items: int) -> "list[object]":
        """Wait for a head item, then return up to *max_items* from the
        head without removing any.

        The batched-drain twin of :meth:`peek`: a worker that wakes to a
        burst takes the whole run of queued items in one look and
        commits them one by one as each survives processing, so the
        crash-replay contract (head item replayed after a restart) is
        unchanged.
        """
        if max_items < 1:
            raise ConfigError(f"max_items must be >= 1, got {max_items}")
        while not self._items:
            # deshlint: allow[F4] single consumer: the while re-checks emptiness after every wait, so a stale clear costs one loop turn, never a lost wakeup
            self._not_empty.clear()
            await self._not_empty.wait()
        return list(itertools.islice(self._items, max_items))

    def commit(self) -> None:
        """Remove the head item after it has been fully processed."""
        if not self._items:
            raise ConfigError("commit() with no in-flight item")
        self._items.popleft()
        self.committed += 1
        self._space.set()
        if not self._items:
            self._empty.set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admitting new items (queued items still drain)."""
        self.closed = True
        self._space.set()

    async def join(self, timeout: Optional[float] = None) -> bool:
        """Wait until every admitted item has been committed.

        Returns ``True`` when the queue drained, ``False`` on timeout
        (a permanently failed worker must not wedge shutdown).
        """
        if not self._items:
            return True
        try:
            await asyncio.wait_for(self._empty.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True


class HashDeduper:
    """Sliding-window exact-duplicate detection over line digests.

    Keeps BLAKE2b digests (not the lines themselves) of the last
    ``window`` lines, so the memory cost of the dedup window is fixed
    regardless of line length.  The window contents are part of the
    service checkpoint: ingest dedup that forgot its window across a
    restart would re-admit duplicates straddling the restart and break
    bit-identical resume.
    """

    _DIGEST_SIZE = 16

    def __init__(self, window: int) -> None:
        if window < 0:
            raise ConfigError(f"dedup window must be >= 0, got {window}")
        self.window = window
        self.duplicates = 0
        self._ring: deque = deque(maxlen=max(1, window))
        self._counts: dict[bytes, int] = {}
        # Digests staged by in-flight ingest batches: reserved before
        # the backpressure await, committed (recorded) or released
        # after.  Transient by design — never checkpointed, because a
        # reservation's batch either commits before the checkpoint is
        # taken or is replayed by the client after a restart.
        self._reserved: set[bytes] = set()

    def digest(self, line: str) -> bytes:
        """The window digest of *line* (stable across processes)."""
        return hashlib.blake2b(
            line.encode("utf-8", "replace"), digest_size=self._DIGEST_SIZE
        ).digest()

    def contains(self, digest: bytes) -> bool:
        """Whether *digest* is in the window (query only, no recording)."""
        return digest in self._counts

    def record(self, digest: bytes) -> None:
        """Admit *digest* into the window, evicting the oldest at capacity.

        Split from :meth:`contains` so ingest can dedup-check a batch up
        front but record only the lines that were actually *admitted* —
        a shed batch leaves no trace, so the client's retry of it is not
        mistaken for a duplicate.
        """
        if self.window == 0:
            return
        if len(self._ring) == self._ring.maxlen:
            oldest = self._ring[0]
            remaining = self._counts.get(oldest, 0) - 1
            if remaining <= 0:
                self._counts.pop(oldest, None)
            else:
                self._counts[oldest] = remaining
        self._ring.append(digest)
        self._counts[digest] = self._counts.get(digest, 0) + 1

    # ------------------------------------------------------------------
    # reservation protocol (concurrent ingest batches)
    # ------------------------------------------------------------------
    def reserve(self, digest: bytes) -> bool:
        """Atomically test-and-stage *digest* for admission.

        ``contains`` + later ``record`` is a check-then-act: when the
        admission decision sits on the far side of an await (ingest
        waits out backpressure before recording), a concurrent batch
        carrying the same line passes the ``contains`` check too and
        the duplicate is admitted twice.  ``reserve`` closes the race
        without a lock — it runs synchronously before the await, so
        the second batch sees the reservation and dedups against it.

        Returns ``False`` when the digest is already in the window or
        already reserved by an in-flight batch.
        """
        if self.window == 0:
            return True
        if digest in self._counts or digest in self._reserved:
            return False
        self._reserved.add(digest)
        return True

    def release(self, digest: bytes) -> None:
        """Drop a reservation without recording it (the batch was shed)."""
        self._reserved.discard(digest)

    def commit_reserved(self, digest: bytes) -> None:
        """Record a reserved digest into the window (batch admitted)."""
        self._reserved.discard(digest)
        self.record(digest)

    # ------------------------------------------------------------------
    # checkpointable state
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The window contents and counters, JSON-serializable."""
        return {
            "version": 1,
            "duplicates": self.duplicates,
            "ring": [digest.hex() for digest in self._ring],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        version = state.get("version")
        if version != 1:
            raise ConfigError(
                f"unsupported dedup state version {version!r} (expected 1)"
            )
        self._ring.clear()
        self._counts.clear()
        self._reserved.clear()
        self.duplicates = int(state["duplicates"])
        for hexdigest in state["ring"]:
            digest = bytes.fromhex(hexdigest)
            self._ring.append(digest)
            self._counts[digest] = self._counts.get(digest, 0) + 1
