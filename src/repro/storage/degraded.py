"""Degraded-read planning: which ``k`` survivors to download.

A degraded task must fetch ``k`` surviving blocks of the lost block's stripe
and decode.  The paper's convention (and its analysis) is that the task
"randomly picks k out of n-1 blocks to download"; an alternative heuristic
that prefers survivors in the reader's own rack is also provided, since the
choice only affects inter-rack traffic volume and is a natural ablation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cluster.topology import ClusterTopology
from repro.faults.errors import DataUnavailableError
from repro.sim.rng import RngStreams
from repro.storage.block import BlockId, StoredBlock
from repro.storage.namenode import BlockMap


class SourceSelection(enum.Enum):
    """How a degraded read picks its ``k`` source blocks."""

    RANDOM = "random"
    RACK_LOCAL_FIRST = "rack-local-first"


@dataclass(frozen=True)
class DegradedReadPlan:
    """The concrete download set for one degraded read.

    ``sources`` lists the ``k`` surviving blocks to fetch.
    """

    lost_block: BlockId
    reader_node: int
    sources: tuple[StoredBlock, ...]


class DegradedReadPlanner:
    """Builds :class:`DegradedReadPlan` objects for lost blocks.

    Parameters
    ----------
    block_map:
        The file's placement metadata.
    topology:
        Cluster layout, used by the rack-local-first selection.
    selection:
        Source-selection policy.
    """

    def __init__(
        self,
        block_map: BlockMap,
        topology: ClusterTopology,
        selection: SourceSelection = SourceSelection.RANDOM,
    ) -> None:
        self.block_map = block_map
        self.topology = topology
        self.selection = selection

    def plan(
        self,
        lost_block: BlockId,
        reader_node: int,
        failed_nodes: frozenset[int],
        rng: RngStreams,
        avoid: frozenset[int] = frozenset(),
    ) -> DegradedReadPlan:
        """Choose ``k`` surviving source blocks for reconstructing ``lost_block``.

        Sources are drawn only from the *readable* live view: nodes in
        ``failed_nodes`` (the master's view) or ``avoid`` (nodes a reader
        observed dead before the master declared them, during re-planning)
        never appear, and neither do checksum-bad blocks.  Fewer than ``k``
        such sources raises :class:`DataUnavailableError`.
        """
        k = self.block_map.params.k
        survivors = self.block_map.readable_stripe_blocks(lost_block.stripe_id, failed_nodes)
        survivors = [
            stored
            for stored in survivors
            if stored.block != lost_block and stored.node_id not in avoid
        ]
        if len(survivors) < k:
            raise DataUnavailableError(
                f"stripe {lost_block.stripe_id} has only {len(survivors)} readable "
                f"survivors, need k={k}",
                stripe_id=lost_block.stripe_id,
            )
        draws = rng.spawn("degraded")
        if self.selection is SourceSelection.RANDOM:
            chosen = draws.sample(str(lost_block), survivors, k)
        elif self.selection is SourceSelection.RACK_LOCAL_FIRST:
            reader_rack = self.topology.rack_of(reader_node)
            local = [s for s in survivors if self.topology.rack_of(s.node_id) == reader_rack]
            remote = [s for s in survivors if self.topology.rack_of(s.node_id) != reader_rack]
            draws.shuffle(str(lost_block), local)
            draws.shuffle(str(lost_block), remote)
            chosen = (local + remote)[:k]
        else:
            raise AssertionError(f"unhandled selection {self.selection}")
        ordered = tuple(sorted(chosen, key=lambda stored: stored.block))
        return DegradedReadPlan(lost_block=lost_block, reader_node=reader_node, sources=ordered)
