"""The block map: which node holds which block, and failure-mode views.

:class:`BlockMap` is the namenode's metadata for one erasure-coded file: a
mapping from :class:`~repro.storage.block.BlockId` to node id, plus the
queries the scheduler needs — which native blocks are lost for a given
failure set, and which survivors remain in each stripe.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.ec.codec import CodeParams
from repro.faults.errors import DataUnavailableError
from repro.storage.block import BlockId, StoredBlock


class BlockMap:
    """Placement metadata for one erasure-coded file.

    Parameters
    ----------
    params:
        The ``(n, k)`` code parameters.
    assignment:
        Mapping of every block of every stripe to its node id.
    num_native_blocks:
        Count of *real* native blocks (the last stripe may be padded; padded
        positions still exist in ``assignment`` but produce no map task).
    """

    def __init__(
        self,
        params: CodeParams,
        assignment: Mapping[BlockId, int],
        num_native_blocks: int,
    ) -> None:
        self.params = params
        self._assignment = dict(assignment)
        self.num_native_blocks = num_native_blocks
        #: Blocks whose stored copy is checksum-bad (their node may be live).
        self._corrupt: set[BlockId] = set()
        if num_native_blocks < 0:
            raise ValueError("negative native block count")
        self.num_stripes = -(-num_native_blocks // params.k) if num_native_blocks else 0
        for stripe_id in range(self.num_stripes):
            for position in range(params.n):
                block = BlockId(stripe_id=stripe_id, position=position, k=params.k)
                if block not in self._assignment:
                    raise ValueError(f"assignment missing block {block}")

    # -- basic queries -----------------------------------------------------

    def node_of(self, block: BlockId) -> int:
        """Node holding ``block``."""
        try:
            return self._assignment[block]
        except KeyError:
            raise KeyError(f"unknown block {block}") from None

    def blocks_on_node(self, node_id: int) -> list[BlockId]:
        """All blocks stored on ``node_id``, sorted."""
        return sorted(block for block, node in self._assignment.items() if node == node_id)

    def native_blocks(self) -> list[BlockId]:
        """The real native blocks of the file, in file order."""
        blocks = []
        for index in range(self.num_native_blocks):
            stripe_id, position = divmod(index, self.params.k)
            blocks.append(BlockId(stripe_id=stripe_id, position=position, k=self.params.k))
        return blocks

    def stripe_blocks(self, stripe_id: int) -> list[StoredBlock]:
        """All ``n`` blocks of a stripe with their locations."""
        stored = []
        for position in range(self.params.n):
            block = BlockId(stripe_id=stripe_id, position=position, k=self.params.k)
            stored.append(StoredBlock(block=block, node_id=self._assignment[block]))
        return stored

    def all_blocks(self) -> list[StoredBlock]:
        """Every stored block with its location."""
        return [StoredBlock(block=block, node_id=node) for block, node in sorted(self._assignment.items())]

    # -- mutation (online repair + corruption faults) ------------------------

    def reassign(self, block: BlockId, node_id: int) -> None:
        """Move ``block``'s home to ``node_id`` (a repaired copy landed there)."""
        if block not in self._assignment:
            raise KeyError(f"unknown block {block}")
        self._assignment[block] = node_id

    def mark_corrupt(self, block: BlockId) -> None:
        """Record that the stored copy of ``block`` is checksum-bad."""
        if block not in self._assignment:
            raise KeyError(f"unknown block {block}")
        self._corrupt.add(block)

    def clear_corrupt(self, block: BlockId) -> None:
        """A good copy of ``block`` was rewritten; drop the corruption mark."""
        self._corrupt.discard(block)

    def is_corrupt(self, block: BlockId) -> bool:
        """Whether ``block``'s stored copy is checksum-bad."""
        return block in self._corrupt

    # -- failure-mode views --------------------------------------------------

    def lost_native_blocks(self, failed_nodes: Iterable[int]) -> list[BlockId]:
        """Native blocks whose nodes are down — each needs a degraded task."""
        failed = set(failed_nodes)
        return [block for block in self.native_blocks() if self._assignment[block] in failed]

    def surviving_stripe_blocks(
        self, stripe_id: int, failed_nodes: Iterable[int]
    ) -> list[StoredBlock]:
        """Blocks of a stripe still on live nodes."""
        failed = set(failed_nodes)
        return [
            stored
            for stored in self.stripe_blocks(stripe_id)
            if stored.node_id not in failed
        ]

    def readable_stripe_blocks(
        self, stripe_id: int, failed_nodes: Iterable[int]
    ) -> list[StoredBlock]:
        """Surviving blocks of a stripe that are also checksum-good.

        These are the blocks a degraded read or a repair may actually use
        as sources; :meth:`surviving_stripe_blocks` is the location-only
        view (a corrupt block still *occupies* its node for placement).
        """
        return [
            stored
            for stored in self.surviving_stripe_blocks(stripe_id, failed_nodes)
            if stored.block not in self._corrupt
        ]

    def is_recoverable(self, stripe_id: int, failed_nodes: Iterable[int]) -> bool:
        """Whether the stripe still has at least ``k`` surviving blocks."""
        return len(self.surviving_stripe_blocks(stripe_id, failed_nodes)) >= self.params.k

    def is_decodable(self, stripe_id: int, failed_nodes: Iterable[int]) -> bool:
        """Whether at least ``k`` survivors of the stripe are checksum-good."""
        return len(self.readable_stripe_blocks(stripe_id, failed_nodes)) >= self.params.k

    def check_recoverable(self, failed_nodes: Iterable[int]) -> None:
        """Raise :class:`DataUnavailableError` if any stripe lost > ``n - k`` blocks."""
        for stripe_id in range(self.num_stripes):
            if not self.is_recoverable(stripe_id, failed_nodes):
                raise DataUnavailableError(
                    f"stripe {stripe_id} is unrecoverable under failures "
                    f"{sorted(set(failed_nodes))}",
                    stripe_id=stripe_id,
                )
