"""Task trackers: slave heartbeat loops and task execution processes.

Each live node runs a *slave process* that heartbeats the master every
``heartbeat_interval`` seconds (3 s by default, as in the paper) and spawns
one :func:`task_process` per assignment, map or reduce.  A map attempt
first performs the remote fetch or degraded read over the NodeTree; a
reduce attempt drains shuffle data as maps complete.  Both then process,
free their slot and report to the master.

Fault semantics (see :mod:`repro.faults`): a node dies one way, in
:meth:`SlaveRuntime._kill_node`, which stops its heartbeat loop and
interrupts its task processes.  The two entry points differ only in whom
they tell and in the interrupt cause.  A scripted *crash*
(:meth:`SlaveRuntime.crash_node`) tells nobody: its tasks die with
``"crash"`` and the master notices once heartbeats expire, requeueing from
its own in-flight registry.  :meth:`SlaveRuntime.fail_node`, the paper's
original at-strike semantics, tells the master first and kills with
``"node-failure"``, so each task hands itself back for re-execution.  A
task process treats every cause in one place: ``"crash"`` (die silently),
``"speculative-kill"`` / ``"job-aborted"`` (die but release the slot -- the
node is alive), and anything else (hand the task back through
:meth:`JobTracker.on_task_killed`).
"""

from __future__ import annotations

from collections.abc import Generator

from repro.cluster.nodetree import NodeTree
from repro.core.tasks import JobTaskState
from repro.faults.errors import DataUnavailableError
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.job import MapAssignment, MapTaskCategory, ReduceAssignment, TaskKind
from repro.mapreduce.master import JobTracker
from repro.mapreduce.metrics import TaskRecord
from repro.sim.engine import Interrupt, Process, Simulator, Timeout
from repro.sim.resources import Semaphore
from repro.sim.rng import RngStreams
from repro.storage.block import BlockId
from repro.storage.degraded import DegradedReadPlanner

#: Interrupt causes after which the slot is released (the node is alive).
_RELEASE_SLOT_CAUSES = ("speculative-kill", "job-aborted")

#: Interrupt cause thrown into a degraded reader whose source node died:
#: the affected flows were cancelled and the read must re-plan.
_REPLAN_CAUSE = "degraded-replan"


class SlaveRuntime:
    """Everything slave and task processes need, bundled once per trial."""

    def __init__(
        self,
        sim: Simulator,
        config: SimulationConfig,
        tracker: JobTracker,
        nodetree: NodeTree,
        planner: DegradedReadPlanner,
        rng: RngStreams,
        observer=None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.tracker = tracker
        self.nodetree = nodetree
        self.planner = planner
        self.rng = rng
        #: Optional slot observer (an ObservabilityCollector); attached to
        #: every slot semaphore, including ones recreated after recovery.
        self.observer = observer
        topology = tracker.topology
        self.map_slots = {
            node.node_id: Semaphore(sim, node.map_slots, name=f"map:{node.node_id}")
            for node in topology.nodes
        }
        self.reduce_slots = {
            node.node_id: Semaphore(sim, node.reduce_slots, name=f"reduce:{node.node_id}")
            for node in topology.nodes
        }
        if observer is not None:
            for semaphore in (*self.map_slots.values(), *self.reduce_slots.values()):
                semaphore.observer = observer
        #: Live task processes per node by assignment, in spawn order: a
        #: dict, so a crash interrupts them in an order that does not depend
        #: on ``id()`` (memory layout, hence ``PYTHONHASHSEED``).  A process
        #: leaves when it ends (see :func:`task_process`).
        self._running: dict[int, dict[MapAssignment | ReduceAssignment, Process]] = {
            node.node_id: {} for node in topology.nodes
        }
        #: Ground-truth crash instants (nodes dead but possibly undetected).
        self.crash_times: dict[int, float] = {}
        self._slowdowns: dict[int, float] = {}
        self._slave_procs: dict[int, Process] = {}
        #: Attached by the simulation wiring when a RepairConfig is set.
        self.repair_driver = None
        #: In-flight degraded reads by token, so a dying source node can
        #: break exactly the reads fetching from it (see
        #: :meth:`_abort_transfers_from` and :func:`_read_from`).
        self._degraded_reads: dict[int, dict] = {}
        self._next_read_token = 0

    def spawn_slave(self, node_id: int) -> Process:
        """Start (or restart, after recovery) the heartbeat loop of a node."""
        process = self.sim.spawn(
            slave_process(self, node_id), name=f"slave:{node_id}"
        )
        self._slave_procs[node_id] = process
        return process

    def fail_node(self, node_id: int) -> None:
        """Kill a node mid-run *omnisciently*: master told, then live tasks.

        This is the paper's original at-strike semantics.  Scripted
        schedules use :meth:`crash_node` instead, where the master must
        detect the death from heartbeat expiry.
        """
        self.tracker.fail_node(node_id)
        self._kill_node(node_id, "node-failure")

    def crash_node(self, node_id: int) -> None:
        """Kill a node silently: heartbeats stop, its processes die.

        The master is *not* informed; it declares the node dead once the
        heartbeat-expiry detector fires, and requeues the lost attempts
        from its in-flight registry at that point.
        """
        if node_id in self.crash_times or node_id in self.tracker.failed_nodes:
            return
        self._kill_node(node_id, "crash")

    def _kill_node(self, node_id: int, cause: str) -> None:
        """Stop a dead node's heartbeat loop; interrupt its tasks with ``cause``."""
        self.crash_times.setdefault(node_id, self.sim.now)
        self._slowdowns.pop(node_id, None)
        slave = self._slave_procs.pop(node_id, None)
        if slave is not None:
            slave.interrupt("crash")
        for process in list(self._running[node_id].values()):
            process.interrupt(cause)
        self._running[node_id].clear()
        self._note_slots_lost(node_id)
        self._abort_transfers_from(node_id)

    def _abort_transfers_from(self, node_id: int) -> None:
        """A node just died: break every transfer it was serving.

        Degraded reads fetching from the node have their flows cancelled
        and their reader processes interrupted with :data:`_REPLAN_CAUSE`
        so they re-plan against current survivors; in-flight repairs with
        the node as an endpoint are aborted the same way.  Readers that
        died with the node are skipped -- their own kill path handles them.
        """
        for entry in list(self._degraded_reads.values()):
            if node_id not in entry["sources"]:
                continue
            reader = entry["reader"]
            if (
                reader == node_id
                or reader in self.crash_times
                or reader in self.tracker.failed_nodes
            ):
                continue
            entry["lost"].add(node_id)
            for flow in entry["flows"]:
                if not flow.fired:
                    self.nodetree.cancel(flow)
            if entry["process"] is not None:
                entry["process"].interrupt(_REPLAN_CAUSE)
        if self.repair_driver is not None:
            self.repair_driver.abort_flows_from(node_id)

    # -- corruption faults ------------------------------------------------------

    def corrupt_block(self, block: BlockId) -> None:
        """Ground-truth corruption strike from the failure schedule.

        Nobody is told: readers discover the bad checksum at read time and
        the scrubber (if configured) finds it proactively.
        """
        self.tracker.hdfs.block_map.mark_corrupt(block)

    def is_corrupt(self, block: BlockId) -> bool:
        """Whether a block's stored copy is currently checksum-bad."""
        return self.tracker.hdfs.block_map.is_corrupt(block)

    def _note_slots_lost(self, node_id: int) -> None:
        """Zero the dead node's slot-occupancy series (observability only)."""
        if self.observer is None:
            return
        for semaphore in (self.map_slots[node_id], self.reduce_slots[node_id]):
            self.observer.slot_changed(
                self.sim.now, semaphore.name, 0, semaphore.capacity, 0
            )

    def recover_node(self, node_id: int) -> None:
        """A dead node rejoins: fresh slots, fresh heartbeat loop.

        Whatever ran on the node died with it, so the slot semaphores are
        recreated at full capacity.  If the node recovered *before* the
        expiry detector declared it dead, the rejoining (empty) tracker
        tells the master its old attempts are gone and they are requeued
        immediately.
        """
        if node_id in self.tracker.failed_nodes:
            self.tracker.recover_node(node_id)
        elif node_id in self.crash_times:
            self.tracker.last_heartbeat[node_id] = self.sim.now
            self.tracker.requeue_node_attempts(node_id)
        else:
            return  # the node was never down
        self.crash_times.pop(node_id, None)
        node = self.tracker.topology.node(node_id)
        self.map_slots[node_id] = Semaphore(
            self.sim, node.map_slots, name=f"map:{node_id}"
        )
        self.reduce_slots[node_id] = Semaphore(
            self.sim, node.reduce_slots, name=f"reduce:{node_id}"
        )
        if self.observer is not None:
            self.map_slots[node_id].observer = self.observer
            self.reduce_slots[node_id].observer = self.observer
            # The dead node's slots emptied with it; restart the series at 0.
            self.map_slots[node_id]._notify()
            self.reduce_slots[node_id]._notify()
        self._running[node_id] = {}
        self.spawn_slave(node_id)

    # -- slowdowns --------------------------------------------------------------

    def begin_slowdown(self, node_id: int, factor: float) -> None:
        """Scale a node's processing speed down by ``factor`` (stacking)."""
        self._slowdowns[node_id] = self._slowdowns.get(node_id, 1.0) * factor

    def end_slowdown(self, node_id: int, factor: float) -> None:
        """Undo one :meth:`begin_slowdown` (no-op if a crash cleared it)."""
        current = self._slowdowns.get(node_id)
        if current is None:
            return
        remaining = current / factor
        if abs(remaining - 1.0) < 1e-12:
            self._slowdowns.pop(node_id)
        else:
            self._slowdowns[node_id] = remaining

    def _register(self, assignment: MapAssignment | ReduceAssignment, process: Process) -> None:
        self._running[assignment.slave_id][assignment] = process

    def slots(self, assignment: MapAssignment | ReduceAssignment) -> Semaphore:
        """The slot semaphore an attempt occupies on its node."""
        if assignment.kind == "map":
            return self.map_slots[assignment.slave_id]
        return self.reduce_slots[assignment.slave_id]

    def speed_of(self, node_id: int) -> float:
        """Effective speed factor of a node (including active slowdowns)."""
        base = self.tracker.topology.node(node_id).speed_factor
        return base / self._slowdowns.get(node_id, 1.0)


def slave_process(runtime: SlaveRuntime, node_id: int) -> Generator:
    """The heartbeat loop of one live slave.

    Heartbeat phases are staggered by a per-slave random offset within one
    interval (unless ``config.heartbeat_stagger`` is off), as real task
    trackers' heartbeats are not synchronised; without this, all slaves
    would report at the same instants in node-id order, a systematic
    artifact that biases which nodes receive degraded tasks.
    """
    sim = runtime.sim
    tracker = runtime.tracker
    interval = runtime.config.heartbeat_interval
    if runtime.config.heartbeat_stagger:
        offset = runtime.rng.spawn("heartbeat").uniform(str(node_id), 0.0, interval)
        yield Timeout(offset)
    while not tracker.finished:
        if node_id in tracker.failed_nodes or node_id in runtime.crash_times:
            return  # this slave just died
        free_map = runtime.map_slots[node_id].available
        free_reduce = runtime.reduce_slots[node_id].available
        maps, reduces = tracker.heartbeat(node_id, free_map, free_reduce)
        bus = tracker.bus
        for assignment in (*maps, *reduces):
            if not runtime.slots(assignment).try_acquire():
                raise RuntimeError(
                    f"scheduler over-assigned {assignment.kind} slots on node {node_id}"
                )
            process = sim.spawn(
                task_process(runtime, assignment),
                name=f"{assignment.kind}:{assignment.job_id}:{assignment.task}",
            )
            runtime._register(assignment, process)
            attempt = tracker.note_attempt_started(assignment, process)
            if bus is not None:
                bus.emit(
                    "task.launch", sim.now,
                    job_id=assignment.job_id, task=assignment.kind, node=node_id,
                    **assignment.event_fields(category=True),
                    attempt=attempt.number, speculative=assignment.speculative,
                )
        yield Timeout(interval)


def task_process(
    runtime: SlaveRuntime, assignment: MapAssignment | ReduceAssignment
) -> Generator:
    """Execute one task attempt of either kind: fetch, process, report.

    A map fetches its block when it is not node-local: a remote read, or a
    degraded read when the block is lost or its copy corrupt.  A reduce
    drains its shuffle partition until the job's maps are done.  Both then
    process for a drawn time, free the slot and report to the master.

    If the hosting node fails mid-task, the process receives an
    :class:`~repro.sim.engine.Interrupt`.  What happens next depends on the
    cause: an omniscient node failure hands the task straight back to the
    master; a silent crash does nothing (the master requeues once it
    detects the death); a speculative kill or job abort releases the slot
    (the node is alive) and drops the work.  A reduce handed back starts
    from scratch: its fetched shuffle data died with the node.

    However it ends, the attempt leaves its node's registry of live
    processes: the registry it joined, which a node's death empties and its
    recovery replaces, so a late exit never touches a newer attempt's entry.
    """
    sim = runtime.sim
    tracker = runtime.tracker
    running = runtime._running[assignment.slave_id]
    try:
        job = tracker.active_job(assignment.job_id)
        if job is None:
            # The job was aborted after this attempt was assigned but before
            # its first step ran; the master's "job-aborted" interrupt lost
            # that race.  Behave as the delivered interrupt would: free the
            # slot and drop the work.
            runtime.slots(assignment).release()
            return
        record = TaskRecord(
            job_id=assignment.job_id,
            kind=TaskKind(assignment.kind),
            category=assignment.category,
            slave_id=assignment.slave_id,
            launch_time=sim.now,
            attempt=tracker.attempt_of(assignment),
            speculative=assignment.speculative,
        )
        if assignment.kind == "reduce":
            yield from _drain_shuffle(runtime, assignment, job, record)
        elif assignment.category is MapTaskCategory.DEGRADED or runtime.is_corrupt(
            assignment.block
        ):
            if not (yield from _degraded_fetch(runtime, assignment, record)):
                return
        elif assignment.category in (MapTaskCategory.RACK_LOCAL, MapTaskCategory.REMOTE):
            home = tracker.hdfs.node_of(assignment.block)
            yield runtime.nodetree.transfer(
                home, assignment.slave_id, runtime.config.block_size
            )
            record.download_time = sim.now - record.launch_time

        yield Timeout(_processing_time(runtime, assignment, job.config))

        record.finish_time = sim.now
        runtime.slots(assignment).release()
        if tracker.bus is not None:
            tracker.bus.emit(
                "task.finish", sim.now,
                job_id=assignment.job_id, task=assignment.kind, node=assignment.slave_id,
                **assignment.event_fields(category=True),
                runtime=record.finish_time - record.launch_time,
                download=record.download_time,
            )
        if assignment.kind == "map":
            shuffle_bytes = runtime.config.block_size * job.config.shuffle_ratio
            tracker.on_map_complete(record, shuffle_bytes, assignment)
        else:
            tracker.on_reduce_complete(record, assignment)
    except Interrupt as interrupt:
        if tracker.bus is not None:
            tracker.bus.emit(
                "task.kill", sim.now,
                job_id=assignment.job_id, task=assignment.kind, node=assignment.slave_id,
                **assignment.event_fields(), cause=interrupt.cause,
            )
        if interrupt.cause == "crash":
            pass
        elif interrupt.cause in _RELEASE_SLOT_CAUSES:
            runtime.slots(assignment).release()
        else:
            tracker.on_task_killed(assignment)
    finally:
        running.pop(assignment, None)


def _processing_time(
    runtime: SlaveRuntime, assignment: MapAssignment | ReduceAssignment, config: JobConfig
) -> float:
    """Draw an attempt's processing time, slowed by its node's current speed.

    Each kind draws from its own stream (``maptime`` / ``reducetime``),
    named per task: ``"{job}:{block}"`` or ``"{job}:{reduce index}"``.
    """
    if assignment.kind == "map":
        mean, std = config.map_time_mean, config.map_time_std
    else:
        mean, std = config.reduce_time_mean, config.reduce_time_std
    seconds = runtime.rng.spawn(f"{assignment.kind}time").normal(
        f"{assignment.job_id}:{assignment.task}", mean, std
    )
    return seconds / runtime.speed_of(assignment.slave_id)


def _drain_shuffle(
    runtime: SlaveRuntime,
    assignment: ReduceAssignment,
    job: JobTaskState,
    record: TaskRecord,
) -> Generator:
    """Fetch a reduce's partition as maps deposit it, until the maps are done."""
    sim = runtime.sim
    shuffle = runtime.tracker.shuffles[assignment.job_id]
    shuffling_time = 0.0
    while True:
        batch = shuffle.take(assignment.reduce_index)
        if batch:
            drain_start = sim.now
            flows = [
                runtime.nodetree.transfer_from_rack(rack, assignment.slave_id, size)
                for rack, size in sorted(batch.items())
            ]
            yield sim.all_of(flows)
            shuffling_time += sim.now - drain_start
            # Pace drains so that many small deposits batch into one flow.
            yield Timeout(runtime.config.shuffle_drain_interval)
            continue
        if job.maps_all_completed():
            break
        yield shuffle.wait(assignment.reduce_index)
    record.download_time = shuffling_time


def _degraded_fetch(
    runtime: SlaveRuntime, assignment: MapAssignment, record: TaskRecord
) -> Generator:
    """Reconstruct a lost/corrupt block, surviving source deaths mid-read.

    Plans a degraded read against the current survivors and streams the
    ``k`` fragments in.  A read fails when a planned source is already
    known to have crashed, or when a source dies while flows are in flight
    (:meth:`SlaveRuntime._abort_transfers_from` cancels the flows and
    :func:`_read_from` returns the sources lost).  Both take one replan
    tail: count the replan, hand the attempt back to the master once
    ``config.degraded_read_retries`` is exceeded, else emit
    ``degraded.replan`` and re-plan after a linear backoff, avoiding every
    source this read has watched die.  If the stripe has dropped below
    ``k`` readable blocks the task either parks on the tracker's
    availability event (``config.wait_for_repair``) or fails the job with
    a typed :class:`DataUnavailableError`.

    Returns ``True`` when the data landed, ``False`` when the task is over
    (job failed or attempt requeued); the caller must return immediately
    on ``False`` -- the slot has already been dealt with.
    """
    sim = runtime.sim
    config = runtime.config
    tracker = runtime.tracker
    bus = tracker.bus
    if assignment.category is not MapTaskCategory.DEGRADED:
        # Checksum failure on a live replica: report it (which queues a
        # repair) and reconstruct from the stripe's other blocks instead.
        tracker.report_corruption(assignment.block, via="read")
    observed_dead: set[int] = set()
    replans = 0
    while True:
        # The block may have come back since this attempt was classified
        # degraded: its home node recovered, or a repair rebuilt it
        # elsewhere.  Then a plain remote read replaces reconstruction, and
        # losing its one source re-plans without a ``degraded.replan``.
        home = tracker.hdfs.node_of(assignment.block)
        reconstructing = (
            home in tracker.failed_nodes
            or home in runtime.crash_times
            or runtime.is_corrupt(assignment.block)
        )
        if not reconstructing:
            if home == assignment.slave_id:
                return True
            flow = runtime.nodetree.transfer(home, assignment.slave_id, config.block_size)
            lost = yield from _read_from(runtime, assignment, {home}, [flow], flow)
            if lost is None:
                record.download_time = sim.now - record.launch_time
                return True
        else:
            # Avoid only sources that are *still* down: a recovered node is
            # a perfectly good source again.
            avoid = frozenset(
                node for node in observed_dead
                if node in runtime.crash_times or node in tracker.failed_nodes
            )
            try:
                plan = runtime.planner.plan(
                    assignment.block,
                    assignment.slave_id,
                    tracker.failed_nodes,
                    runtime.rng,
                    avoid=avoid,
                )
            except DataUnavailableError as error:
                if not config.wait_for_repair:
                    runtime.slots(assignment).release()
                    tracker.fail_job_data_unavailable(assignment.job_id, str(error))
                    return False
                if bus is not None:
                    bus.emit(
                        "degraded.park", sim.now,
                        job_id=assignment.job_id, block=str(assignment.block),
                        node=assignment.slave_id, reason=str(error),
                    )
                tracker.parked_tasks += 1
                try:
                    yield tracker.availability_event()
                finally:
                    tracker.parked_tasks -= 1
                if bus is not None:
                    bus.emit(
                        "degraded.unpark", sim.now,
                        job_id=assignment.job_id, block=str(assignment.block),
                        node=assignment.slave_id,
                    )
                continue
            sources = {source.node_id for source in plan.sources}
            # A source may have crashed between this attempt being scheduled
            # and the plan being drawn (the tracker only learns of silent
            # crashes at heartbeat expiry).  Reading from a dead node would
            # hang forever.
            lost = sources & set(runtime.crash_times)
            if not lost:
                per_rack: dict[int, float] = {}
                for source in plan.sources:
                    if source.node_id == assignment.slave_id:
                        continue  # already on this node, no transfer
                    rack = tracker.topology.rack_of(source.node_id)
                    per_rack[rack] = per_rack.get(rack, 0.0) + config.block_size
                if bus is not None:
                    bus.emit(
                        "degraded.start", sim.now,
                        job_id=assignment.job_id, block=str(assignment.block),
                        node=assignment.slave_id,
                        surviving_blocks=len(plan.sources),
                        racks={str(rack): size for rack, size in sorted(per_rack.items())},
                    )
                flows = [
                    runtime.nodetree.transfer_from_rack(rack, assignment.slave_id, size)
                    for rack, size in sorted(per_rack.items())
                ]
                lost = yield from _read_from(
                    runtime, assignment, sources, flows, sim.all_of(flows) if flows else None
                )
                if lost is None:
                    record.download_time = sim.now - record.launch_time
                    if bus is not None:
                        bus.emit(
                            "degraded.end", sim.now,
                            job_id=assignment.job_id, block=str(assignment.block),
                            node=assignment.slave_id, duration=record.download_time,
                        )
                    return True
        observed_dead |= lost
        replans += 1
        if replans > config.degraded_read_retries:
            runtime.slots(assignment).release()
            tracker.on_task_killed(assignment)
            return False
        if bus is not None and reconstructing:
            bus.emit(
                "degraded.replan", sim.now,
                job_id=assignment.job_id, block=str(assignment.block),
                node=assignment.slave_id, replan=replans,
                lost_sources=sorted(lost),
            )
        yield Timeout(config.degraded_read_backoff * replans)


def _read_from(
    runtime: SlaveRuntime,
    assignment: MapAssignment,
    sources: set[int],
    flows: list,
    waitable,
) -> Generator:
    """Wait for one read's ``flows``; return the sources lost mid-read.

    The read is registered while it waits, so that a dying source's
    :meth:`SlaveRuntime._abort_transfers_from` can cancel ``flows`` and
    interrupt this reader with :data:`_REPLAN_CAUSE`; the set of dead
    sources is then returned.  ``None`` means the data landed.
    ``waitable`` is what the reader waits on: the one flow of a plain
    read, the conjunction of a reconstruction's flows, or ``None`` when
    every source is on the reader's own node.
    """
    attempt = runtime.tracker.attempt_record(assignment)
    entry = {
        "sources": sources,
        "flows": flows,
        "process": attempt.process if attempt is not None else None,
        "reader": assignment.slave_id,
        "lost": set(),
    }
    token = runtime._next_read_token
    runtime._next_read_token += 1
    runtime._degraded_reads[token] = entry
    try:
        if waitable is not None:
            yield waitable
    except Interrupt as interrupt:
        if interrupt.cause != _REPLAN_CAUSE:
            raise
        return entry["lost"]
    finally:
        del runtime._degraded_reads[token]
    return None
