"""Cray ``cA-BcCsSnN`` node identifiers.

The paper (Section 4.5) explains that the node id encodes the exact
physical location of a node::

    c<X>-<Y>c<C>s<S>n<N>
     |    |  |   |   +-- node number within the blade
     |    |  |   +------ blade slot within the chassis
     |    |  +---------- chassis within the cabinet
     |    +------------- cabinet row
     +------------------ cabinet column

e.g. ``c1-0c1s1n0`` is cabinet column 1, row 0, chassis 1, slot 1, node 0.
Real Cray XC machines have 3 chassis per cabinet, 16 blade slots per
chassis and 4 nodes per blade; those are the defaults used by
:class:`repro.topology.cluster.ClusterTopology`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

from ..errors import NodeIdError

__all__ = ["CrayNodeId", "parse_node_id", "format_node_id", "NODE_ID_RE"]

NODE_ID_RE = re.compile(
    r"^c(?P<col>\d+)-(?P<row>\d+)c(?P<chassis>\d+)s(?P<slot>\d+)n(?P<node>\d+)$"
)


@total_ordering
@dataclass(frozen=True)
class CrayNodeId:
    """Physical location of one compute node in a Cray machine."""

    col: int
    row: int
    chassis: int
    slot: int
    node: int

    def __post_init__(self) -> None:
        for name in ("col", "row", "chassis", "slot", "node"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise NodeIdError(f"{name} must be a non-negative int, got {v!r}")

    # ------------------------------------------------------------------
    # codec
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "CrayNodeId":
        """Parse ``cA-BcCsSnN`` text into a :class:`CrayNodeId`."""
        m = NODE_ID_RE.match(text.strip())
        if m is None:
            raise NodeIdError(f"not a valid Cray node id: {text!r}")
        return cls(
            col=int(m.group("col")),
            row=int(m.group("row")),
            chassis=int(m.group("chassis")),
            slot=int(m.group("slot")),
            node=int(m.group("node")),
        )

    def __str__(self) -> str:
        return f"c{self.col}-{self.row}c{self.chassis}s{self.slot}n{self.node}"

    # ------------------------------------------------------------------
    # location helpers
    # ------------------------------------------------------------------
    @property
    def cabinet(self) -> tuple[int, int]:
        """(column, row) pair identifying the cabinet."""
        return (self.col, self.row)

    @property
    def blade(self) -> tuple[int, int, int, int]:
        """(col, row, chassis, slot) identifying the blade."""
        return (self.col, self.row, self.chassis, self.slot)

    def same_cabinet(self, other: "CrayNodeId") -> bool:
        """True when both nodes live in the same physical cabinet."""
        return self.cabinet == other.cabinet

    def location_phrase(self) -> str:
        """Human-readable location, for failure warnings.

        >>> CrayNodeId(1, 0, 2, 5, 3).location_phrase()
        'cabinet c1-0, chassis 2, blade 5, node 3'
        """
        return (
            f"cabinet c{self.col}-{self.row}, chassis {self.chassis}, "
            f"blade {self.slot}, node {self.node}"
        )

    # ------------------------------------------------------------------
    # ordering — lexicographic by physical position
    # ------------------------------------------------------------------
    def _key(self) -> tuple[int, int, int, int, int]:
        return (self.col, self.row, self.chassis, self.slot, self.node)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, CrayNodeId):
            return NotImplemented
        return self._key() < other._key()


def parse_node_id(text: str) -> CrayNodeId:
    """Module-level convenience wrapper around :meth:`CrayNodeId.parse`."""
    return CrayNodeId.parse(text)


def format_node_id(node: CrayNodeId) -> str:
    """Render a :class:`CrayNodeId` in canonical ``cA-BcCsSnN`` form."""
    return str(node)
