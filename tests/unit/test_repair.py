"""Unit tests for the full-node repair planner."""

from __future__ import annotations

import pytest

from repro.cluster.network import NetworkSpec
from repro.cluster.topology import ClusterTopology
from repro.ec.codec import CodeParams
from repro.storage.hdfs import HdfsRaidCluster
from repro.storage.repair import RepairPlanner


@pytest.fixture
def setup(rng):
    topology = ClusterTopology.from_rack_sizes([3, 3, 3])
    cluster = HdfsRaidCluster(
        topology, CodeParams(6, 4), num_native_blocks=36,
        placement="declustered", rng=rng,
    )
    planner = RepairPlanner(cluster.block_map, topology)
    return topology, cluster, planner


class TestPlan:
    def test_repairs_every_lost_block(self, setup, rng):
        topology, cluster, planner = setup
        failed = frozenset({0})
        plan = planner.plan(failed, rng)
        lost = [
            stored.block
            for stored in cluster.block_map.all_blocks()
            if stored.node_id == 0
        ]
        assert plan.lost_block_count == len(lost)
        assert {repair.block for repair in plan.repairs} == set(lost)

    def test_sources_are_k_live_stripe_members(self, setup, rng):
        topology, cluster, planner = setup
        failed = frozenset({0})
        plan = planner.plan(failed, rng)
        for repair in plan.repairs:
            assert len(repair.sources) == 4
            for source in repair.sources:
                assert source.node_id not in failed
                assert source.block.stripe_id == repair.block.stripe_id

    def test_destination_keeps_distinct_node_invariant(self, setup, rng):
        topology, cluster, planner = setup
        plan = planner.plan(frozenset({0}), rng)
        for repair in plan.repairs:
            stripe_nodes = {
                stored.node_id
                for stored in cluster.block_map.surviving_stripe_blocks(
                    repair.block.stripe_id, {0}
                )
            }
            assert repair.destination not in stripe_nodes
            assert repair.destination != 0

    def test_destinations_balanced(self, setup, rng):
        topology, cluster, planner = setup
        plan = planner.plan(frozenset({0}), rng)
        counts: dict[int, int] = {}
        for repair in plan.repairs:
            counts[repair.destination] = counts.get(repair.destination, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 2

    def test_unrecoverable_failure_rejected(self, setup, rng):
        topology, cluster, planner = setup
        stripe_nodes = [s.node_id for s in cluster.block_map.stripe_blocks(0)]
        with pytest.raises(RuntimeError):
            planner.plan(frozenset(stripe_nodes[:3]), rng)


class TestExclusion:
    """Regression: blacklisted nodes are never a source or destination."""

    def test_excluded_node_never_source_or_destination(self, setup, rng):
        topology, cluster, planner = setup
        excluded = frozenset({4})
        plan = planner.plan(frozenset({0}), rng, excluded=excluded)
        for repair in plan.repairs:
            assert repair.destination != 4
            assert all(source.node_id != 4 for source in repair.sources)

    def test_no_exclusion_matches_default_draw(self, setup):
        from repro.sim.rng import RngStreams

        topology, cluster, planner = setup
        default = planner.plan(frozenset({0}), RngStreams(5))
        explicit = planner.plan(frozenset({0}), RngStreams(5), excluded=frozenset())
        assert default.repairs == explicit.repairs

    def test_corrupt_block_rebuilt_in_place(self, setup, rng):
        topology, cluster, planner = setup
        stored = cluster.block_map.stripe_blocks(0)[0]
        cluster.block_map.mark_corrupt(stored.block)
        repair = planner.plan_block(stored.block, frozenset(), rng)
        assert repair.destination == stored.node_id
        assert all(source.block != stored.block for source in repair.sources)

    def test_corrupt_survivor_not_a_repair_source(self, setup, rng):
        topology, cluster, planner = setup
        blocks = cluster.block_map.stripe_blocks(0)
        # Block 0 is lost with its node; block 1 is corrupt on a live node.
        lost, bad = blocks[0], blocks[1]
        cluster.block_map.mark_corrupt(bad.block)
        repair = planner.plan_block(lost.block, frozenset({lost.node_id}), rng)
        assert all(source.block != bad.block for source in repair.sources)


class TestTrafficAccounting:
    def test_bytes_per_destination(self, setup, rng):
        topology, cluster, planner = setup
        plan = planner.plan(frozenset({0}), rng)
        block_size = 1000.0
        totals = plan.bytes_per_destination(block_size)
        # Every repair fetches k blocks (destination never holds a source).
        assert sum(totals.values()) == pytest.approx(
            plan.lost_block_count * 4 * block_size
        )

    def test_cross_rack_bytes_bounded(self, setup, rng):
        topology, cluster, planner = setup
        plan = planner.plan(frozenset({0}), rng)
        block_size = 1000.0
        cross = plan.cross_rack_bytes(topology, block_size)
        total = plan.lost_block_count * 4 * block_size
        assert 0.0 <= cross <= total

    def test_estimated_duration_positive(self, setup, rng):
        topology, cluster, planner = setup
        plan = planner.plan(frozenset({0}), rng)
        network = NetworkSpec(rack_download_bw=1e6)
        parallel = plan.estimated_duration(topology, network, 1000.0)
        # One repair process downloading each destination's bytes in turn.
        serial = sum(
            amount / network.node_bandwidth
            for amount in plan.bytes_per_destination(1000.0).values()
        )
        assert 0.0 < parallel <= serial

    def test_empty_plan_zero_duration(self, setup, rng):
        topology, cluster, planner = setup
        plan = planner.plan(frozenset(), rng)
        network = NetworkSpec(rack_download_bw=1e6)
        assert plan.estimated_duration(topology, network, 1000.0) == 0.0
