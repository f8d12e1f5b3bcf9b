"""Unit tests for the degraded-read planner."""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterTopology
from repro.ec.codec import CodeParams
from repro.sim.rng import RngStreams
from repro.storage.degraded import SourceSelection
from repro.storage.hdfs import HdfsRaidCluster


@pytest.fixture
def cluster(rng):
    topology = ClusterTopology.from_rack_sizes([3, 3, 3])
    return HdfsRaidCluster(
        topology, CodeParams(6, 4), num_native_blocks=24, placement="random", rng=rng
    )


class TestPlan:
    def test_plan_has_k_sources(self, cluster, rng):
        failed = frozenset({0})
        lost = cluster.block_map.lost_native_blocks(failed)
        if not lost:
            pytest.skip("seeded placement put no natives on node 0")
        plan = cluster.planner.plan(lost[0], reader_node=1, failed_nodes=failed, rng=rng)
        assert len(plan.sources) == 4

    def test_sources_exclude_failed_and_lost(self, cluster, rng):
        failed = frozenset({0})
        lost = cluster.block_map.lost_native_blocks(failed)
        if not lost:
            pytest.skip("seeded placement put no natives on node 0")
        plan = cluster.planner.plan(lost[0], reader_node=1, failed_nodes=failed, rng=rng)
        for source in plan.sources:
            assert source.node_id != 0
            assert source.block != lost[0]

    def test_insufficient_survivors(self, rng):
        topology = ClusterTopology.from_rack_sizes([3, 3, 3])
        cluster = HdfsRaidCluster(
            topology, CodeParams(6, 4), num_native_blocks=8, placement="random", rng=rng
        )
        block = cluster.block_map.native_blocks()[0]
        stripe_nodes = {s.node_id for s in cluster.block_map.stripe_blocks(block.stripe_id)}
        # Fail 3 of the stripe's nodes: only 3 survivors < k=4.
        failed = frozenset(list(stripe_nodes)[:3])
        planner = cluster.planner
        with pytest.raises(RuntimeError):
            planner.plan(block, reader_node=7, failed_nodes=failed, rng=rng)


class TestSourceFiltering:
    """Regression: the planner must never select dead or unusable sources."""

    def _lost_and_failed(self, cluster):
        failed = frozenset({0})
        lost = cluster.block_map.lost_native_blocks(failed)
        if not lost:
            pytest.skip("seeded placement put no natives on node 0")
        return lost[0], failed

    def test_avoid_set_excluded_from_sources(self, cluster, rng):
        block, failed = self._lost_and_failed(cluster)
        survivors = cluster.block_map.readable_stripe_blocks(block.stripe_id, failed)
        avoidable = next(
            s.node_id for s in survivors if s.block != block
        )
        plan = cluster.planner.plan(
            block, reader_node=1, failed_nodes=failed, rng=rng,
            avoid=frozenset({avoidable}),
        )
        assert all(source.node_id != avoidable for source in plan.sources)

    def test_avoid_below_k_raises_typed_error(self, cluster, rng):
        from repro.faults.errors import DataUnavailableError

        block, failed = self._lost_and_failed(cluster)
        survivors = {
            s.node_id
            for s in cluster.block_map.readable_stripe_blocks(block.stripe_id, failed)
            if s.block != block
        }
        # Avoiding two of the five candidate sources leaves 3 < k=4.
        avoid = frozenset(sorted(survivors)[:2])
        with pytest.raises(DataUnavailableError) as excinfo:
            cluster.planner.plan(block, 1, failed, rng, avoid=avoid)
        assert excinfo.value.stripe_id == block.stripe_id

    def test_corrupt_survivor_never_selected(self, cluster, rng):
        block, failed = self._lost_and_failed(cluster)
        survivors = cluster.block_map.readable_stripe_blocks(block.stripe_id, failed)
        bad = next(s for s in survivors if s.block != block)
        cluster.block_map.mark_corrupt(bad.block)
        plan = cluster.planner.plan(block, 1, failed, rng)
        assert all(source.block != bad.block for source in plan.sources)

    def test_empty_avoid_matches_default_draw(self, cluster):
        block, failed = self._lost_and_failed(cluster)
        default = cluster.planner.plan(block, 1, failed, RngStreams(9))
        explicit = cluster.planner.plan(
            block, 1, failed, RngStreams(9), avoid=frozenset()
        )
        assert default == explicit


class TestSelectionPolicies:
    def test_rack_local_first_prefers_reader_rack(self, rng):
        topology = ClusterTopology.from_rack_sizes([3, 3, 3])
        cluster = HdfsRaidCluster(
            topology,
            CodeParams(6, 4),
            num_native_blocks=24,
            placement="random",
            rng=rng,
            source_selection=SourceSelection.RACK_LOCAL_FIRST,
        )
        failed = frozenset({0})
        lost = cluster.block_map.lost_native_blocks(failed)
        if not lost:
            pytest.skip("seeded placement put no natives on node 0")
        block = lost[0]
        reader = 1
        plan = cluster.planner.plan(block, reader, failed, rng)
        survivors = [
            s
            for s in cluster.block_map.surviving_stripe_blocks(block.stripe_id, failed)
            if s.block != block
        ]
        local_available = sum(
            1 for s in survivors if topology.rack_of(s.node_id) == topology.rack_of(reader)
        )
        chosen_local = sum(
            1 for s in plan.sources if topology.rack_of(s.node_id) == topology.rack_of(reader)
        )
        assert chosen_local == min(local_available, 4)

    def test_random_selection_deterministic_per_stream(self, cluster):
        failed = frozenset({0})
        lost = cluster.block_map.lost_native_blocks(failed)
        if not lost:
            pytest.skip("seeded placement put no natives on node 0")
        first = cluster.planner.plan(lost[0], 1, failed, RngStreams(3))
        second = cluster.planner.plan(lost[0], 1, failed, RngStreams(3))
        assert first == second
