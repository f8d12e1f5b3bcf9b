"""Unit tests for the placement policies."""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterTopology
from repro.ec.codec import CodeParams
from repro.sim.rng import RngStreams
from repro.storage.placement import (
    ParityDeclusteredPlacement,
    PlacementError,
    RackConstrainedRandomPlacement,
    RoundRobinPlacement,
    make_placement_policy,
    rack_rule_feasible,
)


def rack_histogram(topology, nodes):
    histogram = {}
    for node in nodes:
        rack = topology.rack_of(node)
        histogram[rack] = histogram.get(rack, 0) + 1
    return histogram


@pytest.fixture
def topo_4x4():
    return ClusterTopology.from_rack_sizes([4, 4, 4, 4])


class TestFeasibility:
    def test_too_few_nodes(self, small_topology):
        with pytest.raises(PlacementError):
            RackConstrainedRandomPlacement(small_topology, CodeParams(8, 6))

    def test_rack_constraint_unsatisfiable(self, small_topology):
        # 2 racks x 3 nodes, (6,4): cap 2/rack allows only 4 < 6, so the
        # policy turns the rule off instead of refusing the layout.
        policy = RackConstrainedRandomPlacement(small_topology, CodeParams(6, 4))
        assert policy.rack_cap == 0

    def test_relaxed_mode_allows_it(self, small_topology):
        policy = RackConstrainedRandomPlacement(small_topology, CodeParams(6, 4))
        assert sorted(policy.place_stripe(0, RngStreams(0))) == list(range(6))

    @pytest.mark.parametrize(
        "racks,code,feasible",
        [
            ([3, 3], CodeParams(6, 4), False),  # cap 2/rack allows only 4 < 6
            ([3, 3], CodeParams(4, 2), True),
            ([4, 4, 4], CodeParams(12, 10), False),  # the paper's testbed
            ([4, 4, 4], CodeParams(6, 4), True),
            ([4, 4, 4, 4], CodeParams(8, 6), True),
            ([1, 1, 4], CodeParams(6, 4), False),  # small racks cap below n-k
        ],
    )
    def test_rack_rule_feasible_agrees_with_the_policy(self, racks, code, feasible):
        topology = ClusterTopology.from_rack_sizes(racks)
        assert rack_rule_feasible(topology, code) is feasible
        assert RoundRobinPlacement(topology, code).rack_cap == (code.parity if feasible else 0)


class TestRandomPlacement:
    def test_invariants(self, topo_4x4, rng):
        params = CodeParams(8, 6)
        policy = RackConstrainedRandomPlacement(topo_4x4, params)
        assignment = policy.place_file(10, rng)
        assert len(assignment) == 80
        for stripe_id in range(10):
            nodes = [
                assignment[block]
                for block in assignment
                if block.stripe_id == stripe_id
            ]
            assert len(set(nodes)) == params.n  # distinct nodes
            worst = max(rack_histogram(topo_4x4, nodes).values())
            assert worst <= params.parity

    def test_deterministic_for_seed(self, topo_4x4):
        params = CodeParams(8, 6)
        first = RackConstrainedRandomPlacement(topo_4x4, params).place_file(
            4, RngStreams(5)
        )
        second = RackConstrainedRandomPlacement(topo_4x4, params).place_file(
            4, RngStreams(5)
        )
        assert first == second


class TestRoundRobin:
    def test_rotation_spreads_natives(self):
        """On the paper's testbed layout every node gets equal natives."""
        topo = ClusterTopology.from_rack_sizes([4, 4, 4])
        policy = RoundRobinPlacement(topo, CodeParams(12, 10))
        assignment = policy.place_file(24, RngStreams(0))
        natives_per_node: dict[int, int] = {}
        for block, node in assignment.items():
            if block.is_native and block.native_index < 240:
                natives_per_node[node] = natives_per_node.get(node, 0) + 1
        assert set(natives_per_node.values()) == {20}

    def test_respects_rack_cap(self, topo_4x4, rng):
        policy = RoundRobinPlacement(topo_4x4, CodeParams(8, 6))
        for stripe_id in range(6):
            nodes = policy.place_stripe(stripe_id, rng)
            worst = max(rack_histogram(topo_4x4, nodes).values())
            assert worst <= 2


class TestDeclustered:
    def test_balances_load(self, topo_4x4, rng):
        policy = ParityDeclusteredPlacement(topo_4x4, CodeParams(8, 6))
        assignment = policy.place_file(20, rng)
        per_node: dict[int, int] = {}
        for node in assignment.values():
            per_node[node] = per_node.get(node, 0) + 1
        assert max(per_node.values()) - min(per_node.values()) <= 1


class TestRegistry:
    def test_make_by_name(self, topo_4x4):
        for name in ("random", "round-robin", "declustered"):
            policy = make_placement_policy(name, topo_4x4, CodeParams(8, 6))
            assert policy is not None

    def test_unknown_name(self, topo_4x4):
        with pytest.raises(ValueError):
            make_placement_policy("striped", topo_4x4, CodeParams(8, 6))
