"""Unit tests for the HdfsRaidCluster facade."""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterTopology
from repro.ec.codec import CodeParams
from repro.storage.hdfs import HdfsRaidCluster


@pytest.fixture
def cluster(rng):
    topology = ClusterTopology.from_rack_sizes([3, 3, 3])
    return HdfsRaidCluster(
        topology, CodeParams(6, 4), num_native_blocks=32, placement="declustered", rng=rng
    )


class TestConstruction:
    def test_zero_blocks_rejected(self, rng):
        topology = ClusterTopology.from_rack_sizes([3, 3, 3])
        with pytest.raises(ValueError):
            HdfsRaidCluster(topology, CodeParams(6, 4), 0, "random", rng)

    def test_block_map_complete(self, cluster):
        # 32 natives / k=4 -> 8 stripes x 6 blocks.
        assert len(cluster.block_map.all_blocks()) == 48


class TestFailureView:
    def test_partition_is_exact(self, cluster):
        view = cluster.failure_view(frozenset({3}))
        lost = set(view.lost_blocks)
        available = set(view.available_blocks)
        assert lost.isdisjoint(available)
        assert len(lost) + len(available) == 32
        for block in lost:
            assert cluster.node_of(block) == 3

    def test_no_failure_view(self, cluster):
        view = cluster.failure_view(frozenset())
        assert view.lost_blocks == ()
        assert len(view.available_blocks) == 32

    def test_unrecoverable_failure_raises(self, cluster):
        stripe_nodes = [s.node_id for s in cluster.block_map.stripe_blocks(0)]
        with pytest.raises(RuntimeError):
            cluster.failure_view(frozenset(stripe_nodes[:3]))
