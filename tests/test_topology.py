"""Tests for Cray node ids and cluster topology."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import NodeIdError, TopologyError
from repro.topology import ClusterTopology, CrayNodeId, parse_node_id


node_ids = st.builds(
    CrayNodeId,
    col=st.integers(0, 99),
    row=st.integers(0, 9),
    chassis=st.integers(0, 2),
    slot=st.integers(0, 15),
    node=st.integers(0, 3),
)


class TestCrayNodeId:
    def test_paper_example_parses(self):
        """c1-0c1s1n0 is the example in the paper's Table 2."""
        n = parse_node_id("c1-0c1s1n0")
        assert (n.col, n.row, n.chassis, n.slot, n.node) == (1, 0, 1, 1, 0)

    def test_str_round_trip(self):
        n = CrayNodeId(3, 1, 2, 15, 3)
        assert CrayNodeId.parse(str(n)) == n

    @given(node_ids)
    def test_property_round_trip(self, n):
        assert CrayNodeId.parse(str(n)) == n

    @pytest.mark.parametrize(
        "bad",
        ["", "c1-0c1s1", "x1-0c1s1n0", "c1_0c1s1n0", "c1-0c1s1n0extra", "c-1-0c1s1n0"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(NodeIdError):
            CrayNodeId.parse(bad)

    def test_rejects_negative_fields(self):
        with pytest.raises(NodeIdError):
            CrayNodeId(-1, 0, 0, 0, 0)

    def test_cabinet_and_blade_keys(self):
        n = CrayNodeId(2, 1, 0, 5, 3)
        assert n.cabinet == (2, 1)
        assert n.blade == (2, 1, 0, 5)

    def test_same_cabinet_not_same_blade(self):
        a = CrayNodeId(1, 0, 2, 3, 0)
        b = CrayNodeId(1, 0, 1, 3, 0)
        assert a.same_cabinet(b) and a.blade != b.blade

    def test_ordering_is_physical(self):
        assert CrayNodeId(0, 0, 0, 0, 1) < CrayNodeId(0, 0, 0, 1, 0)
        assert CrayNodeId(0, 0, 0, 0, 0) < CrayNodeId(1, 0, 0, 0, 0)

    def test_location_phrase_contains_all_parts(self):
        phrase = CrayNodeId(1, 0, 2, 5, 3).location_phrase()
        for fragment in ("c1-0", "chassis 2", "blade 5", "node 3"):
            assert fragment in phrase

    def test_hashable(self):
        assert len({CrayNodeId(0, 0, 0, 0, 0), CrayNodeId(0, 0, 0, 0, 0)}) == 1


class TestClusterTopology:
    def test_num_nodes(self, small_topology):
        assert small_topology.num_nodes == 2 * 1 * 2 * 2 * 2

    def test_nodes_enumeration_count(self, small_topology):
        assert len(list(small_topology.nodes())) == small_topology.num_nodes

    def test_nodes_are_unique(self, small_topology):
        nodes = list(small_topology.nodes())
        assert len(set(nodes)) == len(nodes)

    def test_node_at_index_round_trip(self, small_topology):
        nodes = list(small_topology.nodes())
        for i in range(small_topology.num_nodes):
            assert nodes.index(small_topology.node_at(i)) == i

    @given(st.integers(0, 15))
    def test_property_round_trip(self, i):
        topo = ClusterTopology(2, 1, 2, 2, 2)
        assert list(topo.nodes()).index(topo.node_at(i)) == i

    def test_node_at_out_of_range(self, small_topology):
        with pytest.raises(TopologyError):
            small_topology.node_at(small_topology.num_nodes)
        with pytest.raises(TopologyError):
            small_topology.node_at(-1)

    def test_cabinet_mates(self, small_topology):
        node = small_topology.node_at(0)
        mates = small_topology.cabinet_mates(node)
        assert len(mates) == small_topology.nodes_per_cabinet - 1
        assert all(node.same_cabinet(m) for m in mates)

    def test_sample_nodes_without_replacement(self, small_topology, rng):
        nodes = small_topology.sample_nodes(rng, small_topology.num_nodes)
        assert len(set(nodes)) == small_topology.num_nodes

    def test_sample_too_many_raises(self, small_topology, rng):
        with pytest.raises(TopologyError):
            small_topology.sample_nodes(rng, small_topology.num_nodes + 1)

    def test_sample_with_replacement_allows_more(self, small_topology, rng):
        nodes = small_topology.sample_nodes(
            rng, small_topology.num_nodes + 5, replace=True
        )
        assert len(nodes) == small_topology.num_nodes + 5

    def test_with_at_least(self):
        topo = ClusterTopology.with_at_least(100)
        assert topo.num_nodes >= 100

    def test_with_at_least_custom_geometry(self):
        topo = ClusterTopology.with_at_least(
            10, chassis_per_cabinet=1, slots_per_chassis=2, nodes_per_blade=2
        )
        assert topo.num_nodes >= 10
        assert topo.chassis_per_cabinet == 1

    def test_with_at_least_rejects_nonpositive(self):
        with pytest.raises(TopologyError):
            ClusterTopology.with_at_least(0)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(TopologyError):
            ClusterTopology(cabinet_cols=0)

    def test_node_list_matches_nodes(self, small_topology):
        assert list(small_topology.nodes()) == list(small_topology.node_list())
