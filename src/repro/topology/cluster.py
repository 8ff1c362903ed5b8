"""Whole-machine topology: cabinets x chassis x blades x nodes.

The generator uses a :class:`ClusterTopology` to enumerate node ids, to
pick spatially-correlated victims for cascading faults, and to size the
synthetic M1-M4 systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import TopologyError
from .cray import CrayNodeId

__all__ = ["ClusterTopology"]


@dataclass(frozen=True)
class ClusterTopology:
    """Rectangular Cray-style machine layout.

    Parameters mirror real Cray XC geometry: ``chassis_per_cabinet`` is 3,
    ``slots_per_chassis`` 16 and ``nodes_per_blade`` 4 on XC30/XC40 systems;
    smaller values produce the scaled-down test machines.
    """

    cabinet_cols: int = 2
    cabinet_rows: int = 1
    chassis_per_cabinet: int = 3
    slots_per_chassis: int = 16
    nodes_per_blade: int = 4

    def __post_init__(self) -> None:
        for name in (
            "cabinet_cols",
            "cabinet_rows",
            "chassis_per_cabinet",
            "slots_per_chassis",
            "nodes_per_blade",
        ):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise TopologyError(f"{name} must be a positive int, got {v!r}")

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    @property
    def num_cabinets(self) -> int:
        """Total cabinet count (columns x rows)."""
        return self.cabinet_cols * self.cabinet_rows

    @property
    def nodes_per_chassis(self) -> int:
        """Compute nodes housed in one chassis."""
        return self.slots_per_chassis * self.nodes_per_blade

    @property
    def nodes_per_cabinet(self) -> int:
        """Compute nodes housed in one cabinet."""
        return self.chassis_per_cabinet * self.nodes_per_chassis

    @property
    def num_nodes(self) -> int:
        """Total compute-node count of the machine."""
        return self.num_cabinets * self.nodes_per_cabinet

    # ------------------------------------------------------------------
    # enumeration / indexing
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[CrayNodeId]:
        """Yield every node id in canonical physical order."""
        for col in range(self.cabinet_cols):
            for row in range(self.cabinet_rows):
                for chassis in range(self.chassis_per_cabinet):
                    for slot in range(self.slots_per_chassis):
                        for node in range(self.nodes_per_blade):
                            yield CrayNodeId(col, row, chassis, slot, node)

    def node_at(self, index: int) -> CrayNodeId:
        """Return the node id at flat *index* in canonical order."""
        if not 0 <= index < self.num_nodes:
            raise TopologyError(
                f"node index {index} out of range [0, {self.num_nodes})"
            )
        node = index % self.nodes_per_blade
        index //= self.nodes_per_blade
        slot = index % self.slots_per_chassis
        index //= self.slots_per_chassis
        chassis = index % self.chassis_per_cabinet
        index //= self.chassis_per_cabinet
        row = index % self.cabinet_rows
        col = index // self.cabinet_rows
        return CrayNodeId(col, row, chassis, slot, node)

    def _check_bounds(self, node: CrayNodeId) -> None:
        if (
            node.col >= self.cabinet_cols
            or node.row >= self.cabinet_rows
            or node.chassis >= self.chassis_per_cabinet
            or node.slot >= self.slots_per_chassis
            or node.node >= self.nodes_per_blade
        ):
            raise TopologyError(f"node {node} outside topology {self}")

    # ------------------------------------------------------------------
    # spatial neighbourhoods (for correlated fault injection)
    # ------------------------------------------------------------------
    def cabinet_mates(self, node: CrayNodeId) -> list[CrayNodeId]:
        """All other nodes sharing *node*'s cabinet."""
        self._check_bounds(node)
        out: list[CrayNodeId] = []
        for chassis in range(self.chassis_per_cabinet):
            for slot in range(self.slots_per_chassis):
                for n in range(self.nodes_per_blade):
                    cand = CrayNodeId(node.col, node.row, chassis, slot, n)
                    if cand != node:
                        out.append(cand)
        return out

    def sample_nodes(
        self, rng: np.random.Generator, count: int, *, replace: bool = False
    ) -> list[CrayNodeId]:
        """Sample *count* node ids uniformly without (or with) replacement."""
        if count < 0:
            raise TopologyError(f"count must be >= 0, got {count}")
        if not replace and count > self.num_nodes:
            raise TopologyError(
                f"cannot sample {count} distinct nodes from {self.num_nodes}"
            )
        idx = rng.choice(self.num_nodes, size=count, replace=replace)
        return [self.node_at(int(i)) for i in np.atleast_1d(idx)]

    @classmethod
    def with_at_least(cls, min_nodes: int, **fixed: int) -> "ClusterTopology":
        """Build the smallest topology (by adding cabinets) with >= *min_nodes*.

        Keyword arguments override the per-cabinet geometry.
        """
        if min_nodes <= 0:
            raise TopologyError(f"min_nodes must be positive, got {min_nodes}")
        geometry = {
            "chassis_per_cabinet": 3,
            "slots_per_chassis": 16,
            "nodes_per_blade": 4,
        }
        geometry.update(fixed)
        probe = cls(cabinet_cols=1, cabinet_rows=1, **geometry)
        per_cabinet = probe.nodes_per_cabinet
        cabinets = -(-min_nodes // per_cabinet)  # ceil division
        return cls(cabinet_cols=cabinets, cabinet_rows=1, **geometry)

    def node_list(self) -> Sequence[CrayNodeId]:
        """Materialize :meth:`nodes` as a list."""
        return list(self.nodes())
