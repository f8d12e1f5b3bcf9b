"""Unit tests for nodes, racks and cluster topology."""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterTopology, Node, Rack


class TestNode:
    def test_defaults(self):
        node = Node(node_id=0, rack_id=0)
        assert node.map_slots == 4
        assert node.reduce_slots == 1
        assert node.speed_factor == 1.0

    def test_bad_slots(self):
        with pytest.raises(ValueError):
            Node(node_id=0, rack_id=0, map_slots=-1)

    def test_bad_speed(self):
        with pytest.raises(ValueError):
            Node(node_id=0, rack_id=0, speed_factor=0.0)


class TestBuilders:
    def test_homogeneous(self):
        topo = ClusterTopology.homogeneous(12, 3)
        assert topo.num_nodes == 12
        assert topo.num_racks == 3
        assert all(len(rack) == 4 for rack in topo.racks)

    def test_homogeneous_uneven_rejected(self):
        with pytest.raises(ValueError):
            ClusterTopology.homogeneous(10, 3)

    def test_homogeneous_zero_racks(self):
        with pytest.raises(ValueError):
            ClusterTopology.homogeneous(10, 0)

    def test_from_rack_sizes(self):
        topo = ClusterTopology.from_rack_sizes([3, 2], map_slots=2)
        assert topo.num_nodes == 5
        assert topo.nodes_in_rack(0) == (0, 1, 2)
        assert topo.nodes_in_rack(1) == (3, 4)
        assert topo.node(0).map_slots == 2

    def test_from_rack_sizes_speed_factors(self):
        topo = ClusterTopology.from_rack_sizes([2, 2], speed_factors=[1, 1, 0.5, 0.5])
        assert topo.node(2).speed_factor == 0.5

    def test_speed_factor_count_mismatch(self):
        with pytest.raises(ValueError):
            ClusterTopology.from_rack_sizes([2, 2], speed_factors=[1.0])

    def test_empty_rack_rejected(self):
        with pytest.raises(ValueError):
            ClusterTopology.from_rack_sizes([3, 0])

    def test_from_nodes_infers_racks(self):
        nodes = [Node(node_id=i, rack_id=i // 2) for i in range(4)]
        topo = ClusterTopology.from_nodes(nodes)
        assert topo.num_racks == 2
        assert topo.rack_of(3) == 1


class TestValidation:
    def test_duplicate_node_ids(self):
        nodes = [Node(node_id=0, rack_id=0), Node(node_id=0, rack_id=0)]
        with pytest.raises(ValueError):
            ClusterTopology.from_nodes(nodes)

    def test_rack_membership_consistency(self):
        nodes = (Node(node_id=0, rack_id=0),)
        racks = (Rack(rack_id=0, node_ids=(0,)), Rack(rack_id=1, node_ids=(0,)))
        with pytest.raises(ValueError):
            ClusterTopology(nodes=nodes, racks=racks)


class TestQueries:
    def test_node_lookup(self, small_topology):
        assert small_topology.node(4).node_id == 4
        with pytest.raises(KeyError):
            small_topology.node(99)

    def test_rack_lookup(self, small_topology):
        assert small_topology.rack(1).rack_id == 1
        with pytest.raises(KeyError):
            small_topology.rack(9)

    def test_node_ids_sorted(self, small_topology):
        assert list(small_topology.node_ids()) == list(range(6))
