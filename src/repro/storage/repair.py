"""Full-node repair planning: rebuilding a failed node's blocks.

Degraded reads (what the paper schedules around) serve *reads* during
failure; eventually the storage system also *repairs* — re-creates every
lost block on surviving nodes.  This module plans that reconstruction the
conventional way (each lost block is rebuilt from ``k`` surviving blocks of
its stripe) and estimates its cost, so users can reason about repair
traffic alongside MapReduce traffic.

The planner balances rebuilt blocks across surviving nodes (subject to the
same distinct-node / rack-cap placement rules) and accounts the bytes each
link carries, the quantity the paper's related work (e.g. XORing Elephants)
optimises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.network import NetworkSpec
from repro.cluster.topology import ClusterTopology
from repro.faults.errors import DataUnavailableError
from repro.sim.rng import RngStreams
from repro.storage.block import BlockId, StoredBlock
from repro.storage.namenode import BlockMap


@dataclass(frozen=True)
class BlockRepair:
    """The plan for rebuilding one lost block."""

    block: BlockId
    destination: int
    sources: tuple[StoredBlock, ...]


@dataclass
class RepairPlan:
    """A full-node reconstruction plan plus traffic accounting."""

    failed_nodes: frozenset[int]
    repairs: list[BlockRepair] = field(default_factory=list)

    @property
    def lost_block_count(self) -> int:
        """Number of blocks being rebuilt."""
        return len(self.repairs)

    def bytes_per_destination(self, block_size: float) -> dict[int, float]:
        """Bytes each rebuilding node must download."""
        totals: dict[int, float] = {}
        for repair in self.repairs:
            fetched = sum(
                block_size for source in repair.sources if source.node_id != repair.destination
            )
            totals[repair.destination] = totals.get(repair.destination, 0.0) + fetched
        return totals

    def cross_rack_bytes(self, topology: ClusterTopology, block_size: float) -> float:
        """Total bytes crossing the core switch during repair."""
        total = 0.0
        for repair in self.repairs:
            dst_rack = topology.rack_of(repair.destination)
            for source in repair.sources:
                if topology.rack_of(source.node_id) != dst_rack:
                    total += block_size
        return total

    def estimated_duration(
        self,
        topology: ClusterTopology,
        network: NetworkSpec,
        block_size: float,
    ) -> float:
        """A bandwidth-bound repair-time estimate.

        Every rebuilding node downloads concurrently; the bottleneck is the
        busier of the per-node NIC and the rack downlink shared by that
        rack's rebuilders.
        """
        per_destination = self.bytes_per_destination(block_size)
        if not per_destination:
            return 0.0
        nic_bound = max(
            amount / network.node_bandwidth for amount in per_destination.values()
        )
        per_rack_cross: dict[int, float] = {}
        for repair in self.repairs:
            dst_rack = topology.rack_of(repair.destination)
            for source in repair.sources:
                if topology.rack_of(source.node_id) != dst_rack:
                    per_rack_cross[dst_rack] = per_rack_cross.get(dst_rack, 0.0) + block_size
        downlink_bound = max(
            (amount / network.rack_download_bw for amount in per_rack_cross.values()),
            default=0.0,
        )
        return max(nic_bound, downlink_bound)


class RepairPlanner:
    """Plans conventional (k-source) reconstruction of failed nodes.

    Parameters
    ----------
    block_map:
        Placement metadata of the stored file.
    topology:
        Cluster layout.

    Destinations prefer racks holding fewer than the placement rule's
    ``n - k`` blocks of the stripe; the cap is relaxed when no candidate
    satisfies it.
    """

    def __init__(self, block_map: BlockMap, topology: ClusterTopology) -> None:
        self.block_map = block_map
        self.topology = topology
        self.rack_cap = block_map.params.parity

    def plan(
        self,
        failed_nodes: frozenset[int],
        rng: RngStreams,
        excluded: frozenset[int] = frozenset(),
    ) -> RepairPlan:
        """Build a repair plan for every block (native *and* parity) lost.

        Destinations are the least-loaded live nodes that do not already
        hold a block of the same stripe (keeping the distinct-node
        invariant) and whose rack is not already full for the stripe;
        sources are ``k`` random readable survivors.  Nodes in ``excluded``
        (e.g. blacklisted trackers) are never chosen as either.
        """
        self.block_map.check_recoverable(failed_nodes)
        plan = RepairPlan(failed_nodes=failed_nodes)
        load: dict[int, int] = {
            node_id: 0
            for node_id in self.topology.node_ids()
            if node_id not in failed_nodes and node_id not in excluded
        }
        lost_blocks = [
            stored.block
            for stored in self.block_map.all_blocks()
            if stored.node_id in failed_nodes
        ]
        # Destinations planned so far, per stripe: later blocks of the same
        # stripe must count them against the rack cap and the distinct-node
        # invariant even though the BlockMap has not been updated yet.
        planned_racks: dict[int, dict[int, int]] = {}
        planned_nodes: dict[int, set[int]] = {}
        for block in lost_blocks:
            repair = self.plan_block(
                block,
                failed_nodes,
                rng,
                load=load,
                excluded=excluded,
                extra_rack_counts=planned_racks.get(block.stripe_id),
                extra_stripe_nodes=planned_nodes.get(block.stripe_id),
            )
            racks = planned_racks.setdefault(block.stripe_id, {})
            dst_rack = self.topology.rack_of(repair.destination)
            racks[dst_rack] = racks.get(dst_rack, 0) + 1
            planned_nodes.setdefault(block.stripe_id, set()).add(
                repair.destination
            )
            plan.repairs.append(repair)
        return plan

    def plan_block(
        self,
        block: BlockId,
        failed_nodes: frozenset[int],
        rng: RngStreams,
        *,
        load: dict[int, int] | None = None,
        excluded: frozenset[int] = frozenset(),
        extra_rack_counts: dict[int, int] | None = None,
        extra_stripe_nodes: set[int] | None = None,
    ) -> BlockRepair:
        """Plan the reconstruction of one lost or corrupt block.

        A block whose home node is still live (the corruption case) is
        rewritten in place; a lost block is relocated to the least-loaded
        live, non-``excluded`` node outside its stripe, preferring racks
        that hold fewer than ``rack_cap`` blocks of the stripe.  Raises
        :class:`~repro.faults.errors.DataUnavailableError` when fewer than
        ``k`` readable sources remain.
        """
        k = self.block_map.params.k
        readable = [
            stored
            for stored in self.block_map.readable_stripe_blocks(
                block.stripe_id, failed_nodes
            )
            if stored.block != block and stored.node_id not in excluded
        ]
        if len(readable) < k:
            raise DataUnavailableError(
                f"stripe {block.stripe_id} has only {len(readable)} readable "
                f"survivors, need k={k}; block {block} cannot be rebuilt",
                stripe_id=block.stripe_id,
            )
        home = self.block_map.node_of(block)
        if home not in failed_nodes and home not in excluded:
            destination = home  # checksum-bad copy: rewrite in place
        else:
            destination = self._pick_destination(
                block, failed_nodes, excluded, load, extra_rack_counts,
                extra_stripe_nodes,
            )
            if load is not None:
                load[destination] += 1
        sources = tuple(
            sorted(
                rng.spawn("repair").sample(str(block), readable, k),
                key=lambda stored: stored.block,
            )
        )
        return BlockRepair(block=block, destination=destination, sources=sources)

    def _pick_destination(
        self,
        block: BlockId,
        failed_nodes: frozenset[int],
        excluded: frozenset[int],
        load: dict[int, int] | None,
        extra_rack_counts: dict[int, int] | None,
        extra_stripe_nodes: set[int] | None = None,
    ) -> int:
        """Least-loaded live destination, with graceful constraint fallback."""
        if load is None:
            load = {
                node_id: 0
                for node_id in self.topology.node_ids()
                if node_id not in failed_nodes and node_id not in excluded
            }
        if not load:
            raise RuntimeError(
                f"no live destination node available to rebuild block {block}"
            )
        survivors = self.block_map.surviving_stripe_blocks(
            block.stripe_id, failed_nodes
        )
        stripe_nodes = {stored.node_id for stored in survivors}
        if extra_stripe_nodes:
            stripe_nodes |= extra_stripe_nodes
        rack_counts: dict[int, int] = dict(extra_rack_counts or {})
        for stored in survivors:
            rack = self.topology.rack_of(stored.node_id)
            rack_counts[rack] = rack_counts.get(rack, 0) + 1
        distinct = [node_id for node_id in load if node_id not in stripe_nodes]
        under_cap = [
            node_id
            for node_id in distinct
            if self.rack_cap <= 0
            or rack_counts.get(self.topology.rack_of(node_id), 0) < self.rack_cap
        ]
        # Tiered fallback: rack cap, then distinct-node, then double-up
        # (stripes as wide as the cluster -- the paper's testbed layout --
        # leave no survivor without a block; real HDFS-RAID doubles up until
        # a replacement node joins).
        candidates = under_cap or distinct or list(load)
        return min(candidates, key=lambda node_id: (load[node_id], node_id))
