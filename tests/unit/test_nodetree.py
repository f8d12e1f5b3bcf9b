"""Unit tests for the NodeTree transfer router."""

from __future__ import annotations

import pytest

from repro.cluster.network import NetworkSpec
from repro.cluster.nodetree import NodeTree


@pytest.fixture
def tree(sim, small_topology):
    return NodeTree(sim, small_topology, NetworkSpec(rack_download_bw=10.0))


class TestPaths:
    def test_same_node_empty(self, tree):
        assert tree.path(0, 0) == []

    def test_intra_rack_uses_nics_only(self, tree):
        assert tree.path(0, 2) == ["node0:out", "node2:in"]

    def test_cross_rack_uses_rack_links(self, tree):
        assert tree.path(0, 4) == ["node0:out", "rack0:up", "rack1:down", "node4:in"]

    def test_rack_path_cross(self, tree):
        assert tree.rack_path(0, 4) == ["rack0:up", "rack1:down", "node4:in"]

    def test_rack_path_same_rack(self, tree):
        assert tree.rack_path(1, 4) == ["node4:in"]

    def test_is_cross_rack(self, tree):
        assert tree.is_cross_rack(0, 4)
        assert not tree.is_cross_rack(0, 1)


class TestTransferTiming:
    def test_single_cross_rack_transfer(self, sim, tree):
        log = []

        def proc():
            yield tree.transfer(0, 4, 100.0)
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [10.0]

    def test_two_downloads_same_rack_halve(self, sim, tree):
        """The motivating example's contention: both finish at double time."""
        log = []

        def proc(src, dst):
            yield tree.transfer(src, dst, 100.0)
            log.append((dst, sim.now))

        sim.spawn(proc(3, 0))
        sim.spawn(proc(4, 1))
        sim.run()
        assert dict(log) == {0: 20.0, 1: 20.0}

    def test_intra_rack_pairs_parallel(self, sim, tree):
        """Distinct intra-rack pairs do not contend (non-blocking switch)."""
        log = []

        def proc(src, dst):
            yield tree.transfer(src, dst, 100.0)
            log.append((dst, sim.now))

        sim.spawn(proc(0, 1))
        sim.spawn(proc(2, 0))  # shares no NIC direction with 0->1
        sim.run()
        assert dict(log) == {1: 10.0, 0: 10.0}

    def test_shared_source_nic_contends(self, sim, tree):
        log = []

        def proc(src, dst):
            yield tree.transfer(src, dst, 100.0)
            log.append((dst, sim.now))

        sim.spawn(proc(0, 1))
        sim.spawn(proc(0, 2))  # same source NIC
        sim.run()
        assert dict(log) == {1: 20.0, 2: 20.0}


class TestModels:
    def test_exclusive_model_serialises(self, sim, small_topology):
        tree = NodeTree(
            sim, small_topology, NetworkSpec(rack_download_bw=10.0), model="exclusive"
        )
        log = []

        def proc(src, dst):
            yield tree.transfer(src, dst, 100.0)
            log.append((dst, sim.now))

        sim.spawn(proc(3, 0))
        sim.spawn(proc(4, 1))
        sim.run()
        assert sorted(time for _, time in log) == [10.0, 20.0]

    def test_unknown_model(self, sim, small_topology):
        with pytest.raises(ValueError):
            NodeTree(sim, small_topology, NetworkSpec(rack_download_bw=1.0), model="magic")
