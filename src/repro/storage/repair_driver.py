"""The online repair driver: background reconstruction during jobs.

:mod:`repro.storage.repair` plans repairs *offline*; this module executes
them **inside the running simulation**, the way HDFS-RAID's RaidNode (or
Colossus' rebuilder) does: lost and corrupt blocks are queued, a small pool
of worker processes rebuilds them one block at a time, and the rebuilt
bytes travel over the same :class:`~repro.cluster.nodetree.NodeTree` links
that map and shuffle traffic uses -- so repair and foreground work contend
for bandwidth, the interaction the MDS-queue line of work models.

Mechanics
---------

* Every repair flow additionally crosses a virtual **throttle link**
  (:data:`RepairDriver.THROTTLE`) whose capacity is the configured
  bandwidth cap, so the combined repair rate never exceeds the cap while
  each flow still competes max-min fairly on the real links it crosses.
* When a rebuilt block lands, the :class:`~repro.storage.namenode.BlockMap`
  is updated in place; pending degraded map tasks waiting on that block
  reclassify back to normal locality
  (:meth:`~repro.core.tasks.JobTaskState.on_block_repaired`), and parked
  ``--wait-for-repair`` tasks are woken to re-check their stripe.
* A source or destination node dying mid-rebuild aborts the affected
  flows (the connection broke) and the block is re-planned against the
  current survivors after a backoff; stripes with fewer than ``k``
  readable survivors are *deferred* until a recovery or another repair
  makes them decodable again.
* An optional **scrubber** process walks the live nodes round-robin and
  proactively reports checksum-bad blocks (see
  :class:`~repro.faults.schedule.CorruptEvent`); without it, corruption is
  only discovered when a reader trips over the bad copy.

Repair runs only while jobs are active: once the last job finishes the
workers let in-flight rebuilds drain and stop dequeuing new work.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.nodetree import NodeTree
from repro.faults.errors import DataUnavailableError
from repro.faults.records import RepairRecord
from repro.sim.engine import Interrupt, Process, Simulator, Timeout
from repro.sim.rng import RngStreams
from repro.storage.block import BlockId
from repro.storage.namenode import BlockMap
from repro.storage.repair import RepairPlanner

if TYPE_CHECKING:  # typing only; avoids a runtime import cycle
    from repro.mapreduce.master import JobTracker

#: Interrupt cause thrown into a repair worker whose flow endpoints died.
REPAIR_ABORT_CAUSE = "repair-source-lost"


@dataclass(frozen=True)
class RepairConfig:
    """Knobs of the online repair driver.

    Parameters
    ----------
    bandwidth_cap:
        Combined repair bandwidth in bytes/s (the throttle-link capacity).
        Real clusters cap reconstruction traffic so it cannot starve
        foreground I/O; a generous cap repairs fast but visibly slows the
        map phase.
    concurrent_repairs:
        Worker processes rebuilding blocks in parallel.
    retry_backoff:
        Seconds a worker waits after a mid-rebuild abort before
        re-planning the block.
    scrub_interval:
        Period of the proactive corruption scrubber; ``None`` (default)
        disables scrubbing, leaving corruption to lazy read-time detection.
    """

    bandwidth_cap: float
    concurrent_repairs: int = 2
    retry_backoff: float = 5.0
    scrub_interval: float | None = None

    def __post_init__(self) -> None:
        if self.bandwidth_cap <= 0:
            raise ValueError(
                f"repair bandwidth cap must be positive, got {self.bandwidth_cap}"
            )
        if self.concurrent_repairs < 1:
            raise ValueError(
                f"need at least one repair worker, got {self.concurrent_repairs}"
            )
        if self.retry_backoff <= 0:
            raise ValueError(
                f"retry backoff must be positive, got {self.retry_backoff}"
            )
        if self.scrub_interval is not None and self.scrub_interval <= 0:
            raise ValueError(
                f"scrub interval must be positive, got {self.scrub_interval}"
            )


class RepairDriver:
    """Executes block rebuilds as background flows on the NodeTree.

    Parameters
    ----------
    sim, config, block_map, nodetree, rng:
        The simulation engine, driver knobs, placement metadata, network
        and random streams of the trial.
    tracker:
        The :class:`~repro.mapreduce.master.JobTracker`; the driver uses
        its failure/blacklist view for planning and notifies it when a
        block lands (task reclassification + parked-task wakeup).  Held
        weakly: the tracker owns the driver (``tracker.repair_driver``),
        and a strong pointer back would make every repair trial a cycle.
    block_size:
        Bytes per block (every rebuild downloads ``k`` of them).
    bus:
        Optional observability event bus.
    """

    #: Name of the virtual throttle link capping combined repair bandwidth.
    THROTTLE = "repair:cap"

    def __init__(
        self,
        sim: Simulator,
        config: RepairConfig,
        block_map: BlockMap,
        nodetree: NodeTree,
        rng: RngStreams,
        tracker: "JobTracker",
        block_size: float,
        bus=None,
    ) -> None:
        if not nodetree.has_throttle(self.THROTTLE):
            raise RuntimeError(
                f"NodeTree lacks the {self.THROTTLE!r} throttle link; call "
                "nodetree.add_throttle(RepairDriver.THROTTLE, cap) before "
                "wiring the repair driver (and before set_observer)"
            )
        self.sim = sim
        self.config = config
        self.block_map = block_map
        self.nodetree = nodetree
        self.rng = rng
        self.tracker = weakref.proxy(tracker)
        self.block_size = float(block_size)
        self.bus = bus
        self.planner = RepairPlanner(block_map, nodetree.topology)

        self._queue: deque[BlockId] = deque()
        self._queued: set[BlockId] = set()
        #: In-flight rebuilds by block: endpoints, flow events, worker process.
        self._in_flight: dict[BlockId, dict] = {}
        self._wakeup = None
        self._worker_procs: list[Process] = []

    # -- wiring ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool (and the scrubber, if configured)."""
        for index in range(self.config.concurrent_repairs):
            process = self.sim.spawn(
                self._worker(index), name=f"repair:{index}"
            )
            self._worker_procs.append(process)
        if self.config.scrub_interval is not None:
            self.sim.spawn(self._scrubber(), name="scrubber")
        for node_id in sorted(self.tracker.failed_nodes):
            self.on_node_failed(node_id)

    # -- master-side notifications --------------------------------------------

    def on_node_failed(self, node_id: int) -> None:
        """A node left the live view: queue every block it held for rebuild."""
        for block in self.block_map.blocks_on_node(node_id):
            self.enqueue(block)

    def on_availability_changed(self) -> None:
        """A recovery or repair landed: deferred stripes may now be decodable."""
        self._kick()

    def enqueue(self, block: BlockId) -> None:
        """Queue one block for rebuild (idempotent while queued/in flight)."""
        if block in self._queued or block in self._in_flight:
            return
        self._queue.append(block)
        self._queued.add(block)
        self._note_backlog()
        self._kick()

    def _note_backlog(self) -> None:
        """Publish the repair backlog depth after a stable transition.

        The depth series is what reliability campaigns watch for
        boundedness: an open-loop failure stream whose repair rate cannot
        keep up shows up here as unbounded growth.
        """
        if self.bus is not None:
            self.bus.emit(
                "repair.backlog", self.sim.now,
                depth=self.pending_blocks, queued=len(self._queue),
                in_flight=len(self._in_flight),
            )

    def abort_flows_from(self, node_id: int) -> None:
        """A node died: break every in-flight rebuild it was an endpoint of.

        The affected flows are cancelled (their completion events never
        fire) and the worker is interrupted so it re-plans the block
        against current survivors after a backoff.
        """
        for entry in list(self._in_flight.values()):
            if entry["aborted"]:
                continue
            if node_id not in entry["sources"] and node_id != entry["destination"]:
                continue
            entry["aborted"] = True
            for flow in entry["flows"]:
                if not flow.fired:
                    self.nodetree.cancel(flow)
            entry["process"].interrupt(REPAIR_ABORT_CAUSE)

    @property
    def pending_blocks(self) -> int:
        """Blocks queued (including deferred) but not yet rebuilt."""
        return len(self._queue) + len(self._in_flight)

    # -- worker pool -----------------------------------------------------------

    def _worker(self, index: int) -> Generator:
        while True:
            if self.tracker.finished:
                return
            block = self._next_repairable()
            if block is None:
                yield self._wait_for_work()
                continue
            yield from self._repair_block(block, self._worker_procs[index])

    def _next_repairable(self) -> BlockId | None:
        """Pop the oldest queued block that can be rebuilt right now.

        Blocks that no longer need repair (their node recovered and the
        copy is clean) are dropped; undecodable stripes stay queued
        (*deferred*) until availability changes.
        """
        for block in list(self._queue):
            home = self.block_map.node_of(block)
            lost = home in self.tracker.failed_nodes
            corrupt = self.block_map.is_corrupt(block)
            if not lost and not corrupt:
                self._queue.remove(block)
                self._queued.discard(block)
                self._note_backlog()
                continue
            if self._can_repair(block):
                self._queue.remove(block)
                self._queued.discard(block)
                return block
        return None

    def _can_repair(self, block: BlockId) -> bool:
        """Whether ``block``'s stripe has ``k`` readable, assignable sources."""
        readable = [
            stored
            for stored in self.block_map.readable_stripe_blocks(
                block.stripe_id, self.tracker.failed_nodes
            )
            if stored.block != block
            and stored.node_id not in self.tracker.blacklisted
        ]
        return len(readable) >= self.block_map.params.k

    def _repair_block(self, block: BlockId, process: Process) -> Generator:
        sim = self.sim
        tracker = self.tracker
        started = sim.now
        attempts = 0
        while True:
            attempts += 1
            # Concurrent workers may be rebuilding other blocks of this
            # stripe right now; their planned destinations are not in the
            # BlockMap yet, so thread them through explicitly or two
            # rebuilds can land same-stripe units on one node (the batch
            # planner's distinct-node fix, applied to the online driver).
            in_flight_nodes = {
                entry["destination"]
                for other, entry in self._in_flight.items()
                if other.stripe_id == block.stripe_id
            }
            in_flight_racks: dict[int, int] = {}
            for node_id in in_flight_nodes:
                rack = self.nodetree.topology.rack_of(node_id)
                in_flight_racks[rack] = in_flight_racks.get(rack, 0) + 1
            try:
                repair = self.planner.plan_block(
                    block,
                    tracker.failed_nodes,
                    self.rng,
                    excluded=frozenset(tracker.blacklisted),
                    extra_rack_counts=in_flight_racks or None,
                    extra_stripe_nodes=in_flight_nodes or None,
                )
            except DataUnavailableError:
                # Raced with another failure: defer until availability changes.
                self._queue.append(block)
                self._queued.add(block)
                self._note_backlog()
                return
            sources = tuple(
                stored for stored in repair.sources
                if stored.node_id != repair.destination
            )
            if self.bus is not None:
                self.bus.emit(
                    "repair.start", sim.now,
                    block=str(block), destination=repair.destination,
                    sources=sorted(stored.node_id for stored in sources),
                    attempt=attempts, queued=len(self._queue),
                )
            flows = [
                self.nodetree.transfer_throttled(
                    stored.node_id, repair.destination, self.block_size,
                    self.THROTTLE,
                )
                for stored in sources
            ]
            self._in_flight[block] = {
                "sources": {stored.node_id for stored in sources},
                "destination": repair.destination,
                "flows": flows,
                "process": process,
                "aborted": False,
            }
            try:
                if flows:
                    yield sim.all_of(flows)
            except Interrupt as interrupt:
                self._in_flight.pop(block, None)
                if interrupt.cause != REPAIR_ABORT_CAUSE:
                    raise
                if self.bus is not None:
                    self.bus.emit(
                        "repair.retry", sim.now,
                        block=str(block), attempt=attempts,
                    )
                yield Timeout(self.config.retry_backoff)
                continue
            self._in_flight.pop(block, None)
            was_corrupt = self.block_map.is_corrupt(block)
            self.block_map.reassign(block, repair.destination)
            if was_corrupt:
                self.block_map.clear_corrupt(block)
            reclaimed = tracker.on_block_repaired(block, repair.destination)
            tracker.faults.repairs.append(
                RepairRecord(
                    block=str(block),
                    destination=repair.destination,
                    started_at=started,
                    finished_at=sim.now,
                    bytes_fetched=len(flows) * self.block_size,
                    reclaimed_tasks=reclaimed,
                    attempts=attempts,
                )
            )
            if self.bus is not None:
                self.bus.emit(
                    "repair.end", sim.now,
                    block=str(block), destination=repair.destination,
                    duration=sim.now - started, attempts=attempts,
                    reclaimed_tasks=reclaimed,
                )
            self._note_backlog()
            return

    def _wait_for_work(self):
        if self._wakeup is None or self._wakeup.fired:
            self._wakeup = self.sim.event(name="repair-wakeup")
        return self._wakeup

    def _kick(self) -> None:
        if self._wakeup is not None and not self._wakeup.fired:
            self._wakeup.succeed()

    # -- proactive scrubbing ----------------------------------------------------

    def _scrubber(self) -> Generator:
        """Walk live nodes round-robin, reporting checksum-bad blocks.

        One node is scanned per tick, the way real scrubbers pace
        themselves to bound verification I/O.
        """
        nodes = sorted(self.nodetree.topology.node_ids())
        cursor = 0
        while not self.tracker.finished:
            yield Timeout(self.config.scrub_interval)
            if self.tracker.finished:
                return
            node_id = nodes[cursor % len(nodes)]
            cursor += 1
            if node_id in self.tracker.failed_nodes:
                continue
            for block in self.block_map.blocks_on_node(node_id):
                if self.block_map.is_corrupt(block):
                    self.tracker.report_corruption(block, via="scrub")
