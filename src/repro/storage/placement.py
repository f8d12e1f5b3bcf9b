"""Block placement policies for erasure-coded stripes.

The paper's placement rule (Section III) adapts the HDFS replica rule to
HDFS-RAID: the code must have ``n - k >= 2``, and **at most ``n - k`` blocks
of any stripe may land in the same rack**, so that an arbitrary single-rack
failure (and any double-node failure) leaves at least ``k`` survivors per
stripe.  Every policy here enforces that invariant wherever the layout
admits it, and always places the blocks of one stripe on distinct nodes.

Three policies are provided:

* :class:`RackConstrainedRandomPlacement` -- the simulator default
  ("randomly place them in the nodes based on the requirements in
  Section III").
* :class:`RoundRobinPlacement` -- the testbed layout ("blocks are placed in
  the slaves in a round-robin manner for load balancing").
* :class:`ParityDeclusteredPlacement` -- spreads stripes evenly over all
  nodes as in parity declustering [19], the assumption of the analysis.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.cluster.topology import ClusterTopology
from repro.ec.codec import CodeParams
from repro.sim.rng import RngStreams
from repro.storage.block import BlockId


class PlacementError(RuntimeError):
    """Raised when a stripe cannot be placed under the rack constraint."""


def rack_rule_feasible(topology: ClusterTopology, params: CodeParams) -> bool:
    """Whether ``topology`` can hold stripes with at most ``n - k`` blocks per rack.

    The paper's own testbed layout cannot: each (12,10) stripe spans all 12
    slaves, 4 per rack, so that layout tolerates node failures only.
    """
    return sum(min(len(rack), params.parity) for rack in topology.racks) >= params.n


class PlacementPolicy(ABC):
    """Assigns the ``n`` blocks of each stripe to nodes.

    Parameters
    ----------
    topology:
        The cluster layout.
    params:
        The erasure-code parameters.

    The paper's Section III rule -- at most ``n - k`` blocks of a stripe per
    rack, so any single-rack failure is survivable -- holds wherever the
    layout admits it (:func:`rack_rule_feasible`); on a layout that cannot
    satisfy it, such as the paper's testbed, ``rack_cap`` is 0 and only the
    distinct-node rule applies.
    """

    def __init__(self, topology: ClusterTopology, params: CodeParams) -> None:
        self.topology = topology
        self.params = params
        if topology.num_nodes < params.n:
            raise PlacementError(
                f"cannot place stripes of width n={params.n} on {topology.num_nodes} nodes"
            )
        self.rack_cap = params.parity if rack_rule_feasible(topology, params) else 0

    @abstractmethod
    def place_stripe(self, stripe_id: int, rng: RngStreams) -> list[int]:
        """Return the node id for each of the stripe's ``n`` positions."""

    def place_file(self, num_stripes: int, rng: RngStreams) -> dict[BlockId, int]:
        """Place ``num_stripes`` stripes; returns block -> node id."""
        assignment: dict[BlockId, int] = {}
        for stripe_id in range(num_stripes):
            nodes = self.place_stripe(stripe_id, rng)
            self._check_stripe(nodes)
            for position, node_id in enumerate(nodes):
                block = BlockId(stripe_id=stripe_id, position=position, k=self.params.k)
                assignment[block] = node_id
        return assignment

    def _check_stripe(self, nodes: list[int]) -> None:
        """Enforce the distinct-node and per-rack invariants."""
        if len(nodes) != self.params.n:
            raise PlacementError(f"stripe got {len(nodes)} placements, expected {self.params.n}")
        if len(set(nodes)) != len(nodes):
            raise PlacementError(f"stripe placed two blocks on one node: {nodes}")
        if self.rack_cap == 0:
            return
        per_rack: dict[int, int] = {}
        for node_id in nodes:
            rack = self.topology.rack_of(node_id)
            per_rack[rack] = per_rack.get(rack, 0) + 1
        worst = max(per_rack.values())
        if worst > self.rack_cap:
            raise PlacementError(
                f"rack constraint violated: {worst} blocks in one rack, "
                f"allowed at most n-k={self.rack_cap}"
            )


class RackConstrainedRandomPlacement(PlacementPolicy):
    """Random placement subject to the at-most-``n-k``-per-rack rule.

    Nodes are drawn uniformly without replacement; candidates from racks
    that already hold ``n - k`` blocks of the stripe are excluded as the
    draw proceeds.
    """

    def place_stripe(self, stripe_id: int, rng: RngStreams) -> list[int]:
        cap = self.rack_cap
        chosen: list[int] = []
        rack_counts: dict[int, int] = {}
        candidates = list(self.topology.node_ids())
        rng.spawn("placement").shuffle(str(stripe_id), candidates)
        for node_id in candidates:
            if len(chosen) == self.params.n:
                break
            rack = self.topology.rack_of(node_id)
            if cap > 0 and rack_counts.get(rack, 0) >= cap:
                continue
            chosen.append(node_id)
            rack_counts[rack] = rack_counts.get(rack, 0) + 1
        if len(chosen) < self.params.n:
            raise PlacementError(
                f"could not place stripe {stripe_id}: only {len(chosen)} of "
                f"{self.params.n} positions satisfiable"
            )
        return chosen


class RoundRobinPlacement(PlacementPolicy):
    """Deterministic rotation of stripes over nodes (the testbed layout).

    Stripe ``i`` starts at node ``(i * k) mod N`` and takes the next ``n``
    nodes in id order, skipping nodes whose rack is full for this stripe.
    Advancing by ``k`` (not ``n``) per stripe keeps the *native* blocks
    evenly spread: on the paper's testbed (N=12, (12,10), 240 natives) each
    slave ends up with exactly 20 native blocks, as Section VI reports,
    whereas advancing by ``n`` would pin all parity to the last two nodes.
    """

    def place_stripe(self, stripe_id: int, rng: RngStreams) -> list[int]:
        del rng  # deterministic policy
        cap = self.rack_cap
        node_ids = sorted(self.topology.node_ids())
        total = len(node_ids)
        start = (stripe_id * self.params.k) % total
        chosen: list[int] = []
        rack_counts: dict[int, int] = {}
        offset = 0
        while len(chosen) < self.params.n and offset < 2 * total:
            node_id = node_ids[(start + offset) % total]
            offset += 1
            if node_id in chosen:
                continue
            rack = self.topology.rack_of(node_id)
            if cap > 0 and rack_counts.get(rack, 0) >= cap:
                continue
            chosen.append(node_id)
            rack_counts[rack] = rack_counts.get(rack, 0) + 1
        if len(chosen) < self.params.n:
            raise PlacementError(f"round-robin could not place stripe {stripe_id}")
        return chosen


class ParityDeclusteredPlacement(PlacementPolicy):
    """Balanced placement: every node holds (nearly) the same block count.

    Greedy: each stripe picks the ``n`` least-loaded nodes that keep the
    rack constraint, breaking ties by a per-stripe random shuffle.  This is
    the "distribute the stripes evenly among the N nodes (as in parity
    declustering)" assumption used by the analysis.
    """

    def __init__(self, topology: ClusterTopology, params: CodeParams) -> None:
        super().__init__(topology, params)
        self._load: dict[int, int] = {node_id: 0 for node_id in topology.node_ids()}

    def place_stripe(self, stripe_id: int, rng: RngStreams) -> list[int]:
        cap = self.rack_cap
        candidates = list(self.topology.node_ids())
        rng.spawn("placement").shuffle(str(stripe_id), candidates)
        candidates.sort(key=lambda node_id: self._load[node_id])
        chosen: list[int] = []
        rack_counts: dict[int, int] = {}
        for node_id in candidates:
            if len(chosen) == self.params.n:
                break
            rack = self.topology.rack_of(node_id)
            if cap > 0 and rack_counts.get(rack, 0) >= cap:
                continue
            chosen.append(node_id)
            rack_counts[rack] = rack_counts.get(rack, 0) + 1
        if len(chosen) < self.params.n:
            raise PlacementError(f"declustered placement failed for stripe {stripe_id}")
        for node_id in chosen:
            self._load[node_id] += 1
        return chosen


#: Registry of policy names accepted by configuration files and the CLI.
POLICIES = {
    "random": RackConstrainedRandomPlacement,
    "round-robin": RoundRobinPlacement,
    "declustered": ParityDeclusteredPlacement,
}


def make_placement_policy(
    name: str, topology: ClusterTopology, params: CodeParams
) -> PlacementPolicy:
    """Instantiate a placement policy by registry name."""
    try:
        policy_cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown placement policy {name!r}; choose from {sorted(POLICIES)}")
    return policy_cls(topology, params)
