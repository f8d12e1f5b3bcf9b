"""In-memory datanodes and the HDFS-RAID filesystem of the testbed.

Real bytes, real coding: ``write_file`` splits a byte string into blocks,
encodes each group of ``k`` into parity with the Reed-Solomon coder, and
scatters the stripe over per-node stores via a placement policy.  The
filesystem holds one file: ``write_file`` replaces the file held before,
dropping its blocks (repaired copies included) before the new one is split,
so a rewrite never keeps two files' bytes alive.  Reads in
failure mode perform genuine degraded reads -- fetch ``k`` surviving blocks
and decode.  With an :class:`EmulatedNetwork` attached, every fetch also
crosses it and reads report its transfer time; without one (the testbed's
MapReduce runtime, whose clock is the simulator's) they report zero.
"""

from __future__ import annotations

from repro.cluster.topology import ClusterTopology
from repro.ec.codec import CodeParams, ErasureCodec
from repro.sim.rng import RngStreams
from repro.storage.block import BlockId
from repro.storage.degraded import DegradedReadPlanner, SourceSelection
from repro.storage.hdfs import HdfsRaidCluster
from repro.storage.namenode import BlockMap
from repro.storage.repair import RepairPlan, RepairPlanner
from repro.testbed.netem import EmulatedNetwork


class BlockNotFoundError(KeyError):
    """Raised when a block is absent from a datanode store."""


class DataNodeStore:
    """Block payload store of one node."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._blocks: dict[BlockId, bytes] = {}

    def put(self, block: BlockId, payload: bytes) -> None:
        """Store a block payload."""
        self._blocks[block] = payload

    def get(self, block: BlockId) -> bytes:
        """Fetch a block payload."""
        try:
            return self._blocks[block]
        except KeyError:
            raise BlockNotFoundError(
                f"node {self.node_id} does not hold {block}"
            ) from None


class HdfsRaidFilesystem:
    """An erasure-coded file over in-memory datanodes.

    Parameters
    ----------
    topology:
        Cluster layout.
    params:
        Erasure-code parameters.
    block_size:
        Bytes per block.
    netem:
        The emulated network all transfers cross, or ``None`` for no
        network: reads then move bytes only and report zero seconds.
    placement:
        Placement policy name (the paper's testbed used round-robin).
    rng:
        Random streams (placement and degraded source selection).
    source_selection:
        How degraded reads pick their ``k`` sources.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        params: CodeParams,
        block_size: int,
        netem: EmulatedNetwork | None = None,
        placement: str = "round-robin",
        rng: RngStreams | None = None,
        source_selection: SourceSelection = SourceSelection.RACK_LOCAL_FIRST,
    ) -> None:
        self.topology = topology
        self.params = params
        self.block_size = block_size
        self.netem = netem
        self.rng = rng or RngStreams(0)
        self.codec = ErasureCodec(params)
        self._placement_name = placement
        self._source_selection = source_selection
        # Filled by write_file, which builds every node's store afresh.
        self.stores: dict[int, DataNodeStore] = {}
        self.block_map: BlockMap | None = None
        self.planner: DegradedReadPlanner | None = None
        self._block_lengths: dict[BlockId, int] = {}

    # -- writing -----------------------------------------------------------

    def split_blocks(self, data: bytes) -> list[bytes]:
        """Split ``data`` into blocks of at most ``block_size`` bytes.

        Splits fall on line boundaries (as Hadoop's TextInputFormat
        guarantees records never straddle a task's input), so map functions
        see whole lines; a single line longer than a block is split
        mid-line as a last resort.
        """
        blocks: list[bytes] = []
        offset = 0
        while offset < len(data):
            end = min(offset + self.block_size, len(data))
            if end < len(data):
                newline = data.rfind(b"\n", offset, end)
                if newline > offset:
                    end = newline + 1
            blocks.append(data[offset:end])
            offset = end
        if not blocks:
            blocks = [b""]
        return blocks

    def write_file(self, data: bytes) -> BlockMap:
        """Encode ``data`` into erasure-coded stripes and place them.

        Replaces the file held before: every store is emptied (repaired
        copies included) and the block map, planner and block lengths are
        reset before ``data`` is split, so the old file's bytes are free
        while the new one is encoded.  Returns the resulting block map;
        also retained as ``self.block_map``.
        """
        self.stores = {
            node.node_id: DataNodeStore(node.node_id) for node in self.topology.nodes
        }
        self._block_lengths = {}
        self.block_map = self.planner = None
        blocks = self.split_blocks(data)
        num_native = len(blocks)
        # One batched kernel pass produces every stripe's parity at once.
        stripes = self.codec.encode_stripes(
            [
                blocks[start : start + self.params.k]
                for start in range(0, num_native, self.params.k)
            ]
        )
        # Placed by the simulator's own storage layer, so a simulated trial
        # of this cluster sees exactly this block map.
        layout = HdfsRaidCluster(
            self.topology, self.params, num_native, self._placement_name, self.rng,
            self._source_selection,
        )
        for stripe_id, stripe in enumerate(stripes):
            for position, payload in enumerate(stripe):
                block = BlockId(stripe_id=stripe_id, position=position, k=self.params.k)
                self.stores[layout.block_map.node_of(block)].put(block, payload)
                self._block_lengths[block] = len(payload)
        self.block_map = layout.block_map
        self.planner = layout.planner
        return self.block_map

    # -- reading -----------------------------------------------------------

    def read_block(
        self,
        block: BlockId,
        reader_node: int,
        failed_nodes: frozenset[int] = frozenset(),
    ) -> tuple[bytes, float]:
        """Read one native block from ``reader_node``'s point of view.

        Performs a plain (possibly remote) read when the block's node is
        alive, or a degraded read when it is down.  Returns the payload and
        the simulated seconds spent transferring data.
        """
        if self.block_map is None:
            raise RuntimeError("no file written yet")
        home = self.block_map.node_of(block)
        if home not in failed_nodes:
            payload = self.stores[home].get(block)
            return payload, self._transfer(home, reader_node, len(payload))
        return self.degraded_read(block, reader_node, failed_nodes)

    def _transfer(self, src_node: int, dst_node: int, size: int) -> float:
        if self.netem is None:
            return 0.0
        return self.netem.transfer(src_node, dst_node, size)

    def degraded_read(
        self,
        block: BlockId,
        reader_node: int,
        failed_nodes: frozenset[int],
    ) -> tuple[bytes, float]:
        """Reconstruct a lost block: fetch ``k`` survivors, then decode.

        The ``k`` downloads run sequentially in the calling thread (as a
        single HDFS-RAID client read does) over the emulated network, if
        any; decoding uses the real Reed-Solomon implementation.
        """
        if self.planner is None:
            raise RuntimeError("no file written yet")
        plan = self.planner.plan(block, reader_node, failed_nodes, self.rng)
        elapsed = 0.0
        available: dict[int, bytes] = {}
        for source in plan.sources:
            payload = self.stores[source.node_id].get(source.block)
            elapsed += self._transfer(source.node_id, reader_node, len(payload))
            available[source.block.position] = payload
        rebuilt = self.codec.degraded_read(
            block.position, available, lost_length=self._block_lengths.get(block)
        )
        return rebuilt, elapsed

    # -- repair ------------------------------------------------------------

    def repair_failed_nodes(self, failed_nodes: frozenset[int]) -> RepairPlan:
        """Rebuild every block lost to ``failed_nodes`` with real bytes.

        Plans the reconstruction with :class:`RepairPlanner`, then executes
        it: for each lost block the ``k`` planned source payloads are read
        from their stores, the block is rebuilt through the coder (every
        stripe with the same surviving pattern hits the cached single-row
        decode plan, so the sub-matrix inversion is paid once per pattern),
        stored on the planned destination, and reassigned in the block map
        so subsequent reads find the repaired copy.  Returns the executed
        plan for traffic accounting.
        """
        if self.block_map is None:
            raise RuntimeError("no file written yet")
        failed_nodes = frozenset(failed_nodes)
        planner = RepairPlanner(self.block_map, self.topology)
        plan = planner.plan(failed_nodes, self.rng)
        for repair in plan.repairs:
            available = {
                source.block.position: self.stores[source.node_id].get(source.block)
                for source in repair.sources
            }
            payload = self.codec.degraded_read(
                repair.block.position,
                available,
                lost_length=self._block_lengths.get(repair.block),
            )
            self.stores[repair.destination].put(repair.block, payload)
            self.block_map.reassign(repair.block, repair.destination)
        return plan
