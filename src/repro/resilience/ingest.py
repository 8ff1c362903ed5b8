"""Hardened ingest front-end: quarantine, dedup, bounded re-sorting.

Production log feeds contain exactly the faults :mod:`.chaos` models.
:class:`HardenedIngestor` converts a hostile raw-line stream into a
clean :class:`~repro.simlog.record.LogRecord` stream with *bounded,
measured* degradation instead of crashes:

* unparseable lines are **quarantined** into a capped dead-letter
  buffer — the pipeline only raises :class:`~repro.errors.IngestError`
  when the bad-line ratio exceeds a configurable error budget (a feed
  that is mostly garbage is an operational incident, not noise);
* exact duplicates within a sliding window of one
  :meth:`~HardenedIngestor.ingest_lines` stream are **deduplicated**
  (syslog relays retransmit);
* mildly out-of-order lines are **re-sorted** by a bounded min-heap on
  the record timestamp, restoring chronological order as long as the
  displacement stays within the heap window.

Every line is accounted for: ``stats.records_out + stats.quarantined +
stats.duplicates_dropped + stats.blank_skipped == stats.lines_seen``
holds at all times, which the chaos acceptance test asserts.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Optional

from ..errors import ConfigError, IngestError, ParseError
from ..obs import metrics_registry
from ..simlog.record import LogRecord, parse_line

__all__ = ["IngestConfig", "IngestStats", "DeadLetter", "HardenedIngestor"]

# Dead-letter lines are clipped so a single multi-megabyte garbage line
# cannot balloon the quarantine buffer.
_DEAD_LETTER_CLIP = 240


@dataclass(frozen=True)
class IngestConfig:
    """Tuning knobs of the hardened ingest front-end.

    Attributes
    ----------
    max_bad_ratio:
        Error budget: the tolerated fraction of quarantined lines.  Once
        at least ``min_lines_for_budget`` lines have been seen, a ratio
        above this raises :class:`~repro.errors.IngestError`.
    min_lines_for_budget:
        Grace period (in lines) before the budget is enforced, so a bad
        first line of a short stream does not trip a 100% ratio.
    dead_letter_cap:
        Maximum number of quarantined lines kept for inspection; beyond
        the cap only the counter advances (lines are still dropped).
    dedup_window:
        Number of recent lines :meth:`HardenedIngestor.ingest_lines`
        checks for exact duplicates (0 disables deduplication).
    reorder_window:
        Size of the timestamp re-sorting heap (0 disables re-sorting).
        Records displaced further than the window stay out of order —
        the downstream parser's global sort remains the backstop.
    """

    max_bad_ratio: float = 0.10
    min_lines_for_budget: int = 100
    dead_letter_cap: int = 1000
    dedup_window: int = 512
    reorder_window: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_bad_ratio <= 1.0:
            raise ConfigError(
                f"max_bad_ratio must be in [0, 1], got {self.max_bad_ratio!r}"
            )
        if self.min_lines_for_budget < 1:
            raise ConfigError(
                "min_lines_for_budget must be >= 1, got "
                f"{self.min_lines_for_budget}"
            )
        for name in ("dead_letter_cap", "dedup_window", "reorder_window"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined line: where it was, what it was, why it failed."""

    lineno: int
    line: str
    reason: str


@dataclass
class IngestStats:
    """Counters maintained by :class:`HardenedIngestor`.

    The conservation invariant ``lines_seen == records_out + quarantined
    + duplicates_dropped + blank_skipped + in_flight`` holds at every
    point of the stream (``in_flight`` being records still buffered in
    the re-sorting heap; it is zero once the stream is exhausted).
    """

    lines_seen: int = 0
    records_out: int = 0
    quarantined: int = 0
    duplicates_dropped: int = 0
    blank_skipped: int = 0
    resorted: int = 0

    @property
    def bad_ratio(self) -> float:
        """Fraction of seen lines that were quarantined."""
        if self.lines_seen == 0:
            return 0.0
        return self.quarantined / self.lines_seen

    def as_dict(self) -> dict[str, float]:
        """All counters plus the bad ratio, as a plain dict."""
        out: dict[str, float] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        out["bad_ratio"] = self.bad_ratio
        return out


class HardenedIngestor:
    """Parse a hostile raw-line stream into clean, ordered records.

    One ingestor instance carries the stats and dead-letter buffer of
    one feed; reuse across feeds accumulates counters (call
    :meth:`reset` between feeds to start fresh).
    """

    def __init__(self, config: IngestConfig | None = None) -> None:
        self.config = config if config is not None else IngestConfig()
        self.stats = IngestStats()
        self.dead_letters: list[DeadLetter] = []

    # ------------------------------------------------------------------
    # single-line path (used by the streaming monitor)
    # ------------------------------------------------------------------
    def accept_line(self, line: str) -> Optional[LogRecord]:
        """Parse one line, quarantining it when it does not parse.

        Returns the parsed record, or ``None`` when the line was blank
        or quarantined.  Raises :class:`~repro.errors.IngestError` once
        the error budget is exhausted.  There is no dedup here: the
        serving layer dedups before routing, and :meth:`ingest_lines`
        dedups its own stream.
        """
        self.stats.lines_seen += 1
        if not line.strip():
            self.stats.blank_skipped += 1
            return None
        try:
            record = parse_line(line)
        except ParseError as exc:
            self._quarantine(line, str(exc))
            return None
        self.stats.records_out += 1
        return record

    def _quarantine(self, line: str, reason: str) -> None:
        self.stats.quarantined += 1
        metrics_registry().counter("ingest.quarantined").inc()
        if len(self.dead_letters) < self.config.dead_letter_cap:
            self.dead_letters.append(
                DeadLetter(
                    lineno=self.stats.lines_seen,
                    line=line[:_DEAD_LETTER_CLIP],
                    reason=reason[:_DEAD_LETTER_CLIP],
                )
            )
        if (
            self.stats.lines_seen >= self.config.min_lines_for_budget
            and self.stats.bad_ratio > self.config.max_bad_ratio
        ):
            raise IngestError(
                f"bad-line ratio {self.stats.bad_ratio:.1%} exceeds the "
                f"{self.config.max_bad_ratio:.1%} error budget after "
                f"{self.stats.lines_seen} lines "
                f"({self.stats.quarantined} quarantined)"
            )

    # ------------------------------------------------------------------
    # stream path
    # ------------------------------------------------------------------
    def ingest_lines(self, lines: Iterable[str]) -> Iterator[LogRecord]:
        """Yield clean records for *lines*, re-sorted within the window.

        Exact duplicates of any of the last ``dedup_window`` non-blank
        lines of this stream are dropped.  The re-sorting heap holds up
        to ``reorder_window`` records; the smallest timestamp is
        released whenever the heap is full, so records displaced by at
        most the window come out in true chronological order.
        """
        window = self.config.reorder_window
        records = self._deduplicated(lines)
        if window <= 1:
            yield from records
            return
        heap: list[tuple[float, int, LogRecord]] = []
        arrival = 0
        emitted = 0
        for record in records:
            heapq.heappush(heap, (record.timestamp, arrival, record))
            arrival += 1
            if len(heap) >= window:
                yield self._pop_in_order(heap, emitted)
                emitted += 1
        while heap:
            yield self._pop_in_order(heap, emitted)
            emitted += 1

    def _deduplicated(self, lines: Iterable[str]) -> Iterator[LogRecord]:
        """:meth:`accept_line` over *lines*, dropping recent duplicates."""
        window = self.config.dedup_window
        recent: deque[str] = deque()
        counts: dict[str, int] = {}
        for line in lines:
            if window and line.strip():
                seen = counts.get(line, 0)
                if len(recent) == window:
                    oldest = recent.popleft()
                    if counts[oldest] == 1:
                        del counts[oldest]
                    else:
                        counts[oldest] -= 1
                recent.append(line)
                counts[line] = seen + 1
                if seen:
                    self.stats.lines_seen += 1
                    self.stats.duplicates_dropped += 1
                    metrics_registry().counter("ingest.duplicates").inc()
                    continue
            record = self.accept_line(line)
            if record is not None:
                yield record

    def _pop_in_order(
        self, heap: list[tuple[float, int, LogRecord]], emitted: int
    ) -> LogRecord:
        _, order, record = heapq.heappop(heap)
        if order != emitted:  # the heap actually moved this record
            self.stats.resorted += 1
        return record

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear stats and dead letters for a new feed."""
        self.stats = IngestStats()
        self.dead_letters.clear()

    # ------------------------------------------------------------------
    # checkpointable state (service graceful-shutdown / resume path)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Stats and dead letters, JSON-serializable."""
        return {
            "version": 2,
            "stats": {
                f.name: getattr(self.stats, f.name)
                for f in fields(IngestStats)
            },
            "dead_letters": [
                [d.lineno, d.line, d.reason] for d in self.dead_letters
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        version = state.get("version")
        if version != 2:
            raise ConfigError(
                f"unsupported ingest state version {version!r} (expected 2)"
            )
        self.reset()
        for f in fields(IngestStats):
            setattr(self.stats, f.name, int(state["stats"][f.name]))
        self.dead_letters.extend(
            DeadLetter(lineno=int(n), line=str(line), reason=str(reason))
            for n, line, reason in state["dead_letters"]
        )
