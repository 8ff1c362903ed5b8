"""Shared event containers used by the parsing pipeline and the Desh core.

A :class:`ParsedEvent` is the unit the whole pipeline operates on: one log
record reduced to (timestamp, node, phrase id, label).  An
:class:`EventSequence` is a time-ordered list of events belonging to one
node — the per-node streams Desh trains on (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ChainExtractionError
from .topology.cray import CrayNodeId

__all__ = ["Label", "ParsedEvent", "EventSequence", "group_by_node"]


class Label:
    """The three phrase categories of Table 3."""

    SAFE = "safe"
    UNKNOWN = "unknown"
    ERROR = "error"

    ALL = (SAFE, UNKNOWN, ERROR)


@dataclass(frozen=True, order=True)
class ParsedEvent:
    """One parsed log event.

    Ordering is by ``(timestamp, phrase_id)`` so sorting a mixed stream
    yields a stable chronological order.
    """

    timestamp: float
    phrase_id: int = field(compare=True)
    node: Optional[CrayNodeId] = field(compare=False, default=None)
    label: str = field(compare=False, default=Label.UNKNOWN)
    terminal: bool = field(compare=False, default=False)

    def __post_init__(self) -> None:
        if self.label not in Label.ALL:
            raise ChainExtractionError(f"invalid label {self.label!r}")
        if self.phrase_id < 0:
            raise ChainExtractionError(f"phrase_id must be >= 0, got {self.phrase_id}")


_ORDER = attrgetter("timestamp", "phrase_id")


class EventSequence:
    """Time-ordered events of a single node.

    Provides the array views the neural phases consume: ``phrase_ids()``
    and ``timestamps()`` as NumPy arrays (no copies are made after the
    first materialization).
    """

    def __init__(
        self, node: Optional[CrayNodeId], events: Iterable[ParsedEvent]
    ) -> None:
        self.node = node
        # The key sort makes the same comparisons as ParsedEvent's
        # ordering, without a dataclass __lt__ call per comparison.
        self.events: list[ParsedEvent] = sorted(events, key=_ORDER)
        for e in self.events:
            if e.node is not node and e.node != node:
                raise ChainExtractionError(
                    f"event node {e.node} does not match sequence node {node}"
                )
        self._ids: Optional[np.ndarray] = None
        self._times: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ParsedEvent]:
        return iter(self.events)

    def __getitem__(self, i: int) -> ParsedEvent:
        return self.events[i]

    def phrase_ids(self) -> np.ndarray:
        """Phrase ids as an ``int64`` array (cached)."""
        if self._ids is None:
            self._ids = np.array([e.phrase_id for e in self.events], dtype=np.int64)
        return self._ids

    def timestamps(self) -> np.ndarray:
        """Timestamps as a ``float64`` array (cached)."""
        if self._times is None:
            self._times = np.array([e.timestamp for e in self.events], dtype=np.float64)
        return self._times

    def terminals(self) -> list[int]:
        """Indices of terminal events within this sequence."""
        return [i for i, e in enumerate(self.events) if e.terminal]


def group_by_node(
    events: Iterable[ParsedEvent],
) -> dict[Optional[CrayNodeId], EventSequence]:
    """Partition a mixed event stream into per-node sequences."""
    buckets: dict[Optional[CrayNodeId], list[ParsedEvent]] = {}
    for e in events:
        buckets.setdefault(e.node, []).append(e)
    return {node: EventSequence(node, evs) for node, evs in buckets.items()}
