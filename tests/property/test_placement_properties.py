"""Property-based tests of placement-policy invariants."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.ec.codec import CodeParams
from repro.sim.rng import RngStreams
from repro.storage.placement import PlacementError, make_placement_policy, rack_rule_feasible


@st.composite
def feasible_setup(draw):
    """A topology + code where the rack constraint is satisfiable."""
    num_racks = draw(st.integers(min_value=2, max_value=5))
    nodes_per_rack = draw(st.integers(min_value=2, max_value=5))
    parity = draw(st.integers(min_value=2, max_value=4))
    max_n = min(num_racks * min(nodes_per_rack, parity), num_racks * nodes_per_rack)
    if max_n < 3:
        n = 3
    else:
        n = draw(st.integers(min_value=3, max_value=max_n))
    k = n - parity
    if k < 1:
        k = 1
        n = k + parity
    topology = ClusterTopology.from_rack_sizes([nodes_per_rack] * num_racks)
    params = CodeParams(n, k)
    # The policies turn the rack rule off where the layout cannot hold it.
    assume(rack_rule_feasible(topology, params))
    return topology, params


@settings(max_examples=30, deadline=None)
@given(
    feasible_setup(),
    st.sampled_from(["random", "round-robin", "declustered"]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=8),
)
def test_placement_invariants(setup, policy_name, seed, num_stripes):
    """Every policy: distinct nodes per stripe, at most n-k per rack."""
    topology, params = setup
    try:
        policy = make_placement_policy(policy_name, topology, params)
    except PlacementError:
        return  # some drawn setups are infeasible for this policy; fine
    assignment = policy.place_file(num_stripes, RngStreams(seed))
    assert len(assignment) == num_stripes * params.n
    for stripe_id in range(num_stripes):
        nodes = [
            node for block, node in assignment.items() if block.stripe_id == stripe_id
        ]
        assert len(set(nodes)) == params.n
        per_rack: dict[int, int] = {}
        for node in nodes:
            rack = topology.rack_of(node)
            per_rack[rack] = per_rack.get(rack, 0) + 1
        assert max(per_rack.values()) <= params.parity


@settings(max_examples=20, deadline=None)
@given(feasible_setup(), st.integers(min_value=0, max_value=2**16))
def test_single_rack_failure_always_survivable(setup, seed):
    """The Section III guarantee: any one rack can vanish."""
    topology, params = setup
    try:
        policy = make_placement_policy("random", topology, params)
    except PlacementError:
        return
    assignment = policy.place_file(4, RngStreams(seed))
    from repro.storage.namenode import BlockMap

    block_map = BlockMap(params, assignment, num_native_blocks=4 * params.k)
    for rack in topology.racks:
        block_map.check_recoverable(set(rack.node_ids))  # must not raise


@settings(max_examples=20, deadline=None)
@given(feasible_setup(), st.integers(min_value=0, max_value=2**16))
def test_double_node_failure_always_survivable(setup, seed):
    topology, params = setup
    try:
        policy = make_placement_policy("declustered", topology, params)
    except PlacementError:
        return
    assignment = policy.place_file(3, RngStreams(seed))
    from repro.storage.namenode import BlockMap

    block_map = BlockMap(params, assignment, num_native_blocks=3 * params.k)
    nodes = sorted(topology.node_ids())
    for first in nodes[:4]:
        for second in nodes[-3:]:
            if first != second:
                block_map.check_recoverable({first, second})
