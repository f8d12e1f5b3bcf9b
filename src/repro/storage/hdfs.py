"""The HDFS-RAID cluster facade.

:class:`HdfsRaidCluster` ties together a topology, an erasure code and a
placement policy, and answers the questions the MapReduce layer asks:
where every block lives, which map tasks are local / remote / degraded for a
given failure set, and how a degraded read should be sourced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import ClusterTopology
from repro.ec.codec import CodeParams
from repro.sim.rng import RngStreams
from repro.storage.block import BlockId
from repro.storage.degraded import DegradedReadPlanner, SourceSelection
from repro.storage.namenode import BlockMap
from repro.storage.placement import make_placement_policy


@dataclass(frozen=True)
class FailureView:
    """The scheduler's view of one file under a concrete failure set.

    ``lost_blocks`` need degraded tasks; ``available_blocks`` are natives on
    live nodes and become local or remote map tasks.
    """

    failed_nodes: frozenset[int]
    lost_blocks: tuple[BlockId, ...]
    available_blocks: tuple[BlockId, ...]


class HdfsRaidCluster:
    """An erasure-coded storage cluster holding one (logical) file.

    Parameters
    ----------
    topology:
        Cluster layout.
    params:
        Erasure-code parameters ``(n, k)``.
    num_native_blocks:
        Number of native (data) blocks in the stored file.
    placement:
        Placement policy name (``random``, ``round-robin``, ``declustered``).
    rng:
        Random streams used by randomized placement.
    source_selection:
        Degraded-read source policy.

    The at-most-``n-k``-blocks-per-rack rule (see
    :mod:`repro.storage.placement`) is enforced wherever the layout admits
    it; on layouts like the paper's testbed, where stripes are wider than
    any rack allows, the file tolerates node failures only.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        params: CodeParams,
        num_native_blocks: int,
        placement: str,
        rng: RngStreams,
        source_selection: SourceSelection = SourceSelection.RANDOM,
    ) -> None:
        if num_native_blocks <= 0:
            raise ValueError(f"need a positive native block count, got {num_native_blocks}")
        self.topology = topology
        self.params = params
        policy = make_placement_policy(placement, topology, params)
        num_stripes = -(-num_native_blocks // params.k)
        assignment = policy.place_file(num_stripes, rng)
        self.block_map = BlockMap(params, assignment, num_native_blocks)
        self.planner = DegradedReadPlanner(self.block_map, topology, source_selection)

    def failure_view(
        self, failed_nodes: frozenset[int], strict: bool = True
    ) -> FailureView:
        """Split native blocks into lost vs available for this failure set.

        With ``strict`` (the default) raises
        :class:`~repro.faults.errors.DataUnavailableError` if the failure
        exceeds the code's tolerance for any stripe.  Non-strict callers
        (the job tracker, which handles unavailability lazily per task)
        still get the lost/available split; undecodable blocks simply stay
        in ``lost_blocks`` and fail -- or park -- when a task tries to read
        them.
        """
        if strict:
            self.block_map.check_recoverable(failed_nodes)
        lost = tuple(self.block_map.lost_native_blocks(failed_nodes))
        lost_set = set(lost)
        available = tuple(
            block for block in self.block_map.native_blocks() if block not in lost_set
        )
        return FailureView(
            failed_nodes=failed_nodes, lost_blocks=lost, available_blocks=available
        )

    def node_of(self, block: BlockId) -> int:
        """Node holding ``block``."""
        return self.block_map.node_of(block)
