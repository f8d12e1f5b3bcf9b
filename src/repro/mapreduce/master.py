"""The job tracker: job lifecycle and heartbeat-driven scheduling.

The :class:`JobTracker` owns the FIFO job list, the per-job
:class:`~repro.core.tasks.JobTaskState`, and the pluggable scheduler.  Slave
processes call :meth:`JobTracker.heartbeat`; completion callbacks flow back
through :meth:`on_map_complete` / :meth:`on_reduce_complete`.

Fault tolerance lives here too (see :mod:`repro.faults`):

* the master timestamps every heartbeat and :meth:`declare_dead` fires once
  a tracker has been silent past the expiry interval -- the omniscient
  :meth:`fail_node` remains as the declaration's mechanism (and as the
  legacy at-start path);
* every launched attempt, map or reduce, is registered in-flight under one
  key shape, so a declared death can requeue exactly the work the dead node
  held;
* every attempt killed with its node goes through :meth:`on_task_killed`:
  per-task failure counts enforce a retry budget (``max_attempts``), a task
  that exhausts it fails its whole job cleanly via :meth:`_fail_job`, and
  only the requeue itself differs by kind (a map returns to the pending
  pool unless a sibling still runs; a reduce also restarts its shuffle);
* per-node consecutive death counts feed a blacklist the schedulers' live
  view respects;
* when a job's map phase is fully dispatched, stragglers get speculative
  backup attempts; the first finisher wins.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

from repro.cluster.topology import ClusterTopology
from repro.core.scheduler import Scheduler
from repro.core.tasks import JobTaskState
from repro.faults.records import (
    BlacklistRecord,
    CorruptionRecord,
    DetectionRecord,
    FaultTimeline,
    RecoveryRecord,
)
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import MapAssignment, MapTaskCategory, ReduceAssignment
from repro.mapreduce.metrics import JobMetrics, TaskRecord
from repro.mapreduce.shuffle import JobShuffle
from repro.sim.engine import Event, Process, Simulator
from repro.storage.hdfs import HdfsRaidCluster

#: Attempt-registry key: ("map", job_id, block) or ("reduce", job_id, index).
AttemptKey = tuple


@dataclass
class RunningAttempt:
    """One in-flight task attempt the master knows about."""

    key: AttemptKey
    assignment: MapAssignment | ReduceAssignment
    process: Process | None
    launch_time: float
    number: int


def _attempt_key(assignment: MapAssignment | ReduceAssignment) -> AttemptKey:
    return (assignment.kind, assignment.job_id, assignment.task)


class JobTracker:
    """Master-side state: jobs, scheduler, and completion accounting.

    Parameters
    ----------
    sim:
        The simulation engine.
    topology:
        Cluster layout.
    hdfs:
        The erasure-coded storage cluster (shared by all jobs).
    scheduler:
        The scheduling policy under test.
    failed_nodes:
        Nodes that are down when the trial starts; :meth:`fail_node` can
        take down further nodes mid-run (omnisciently), and
        :meth:`declare_dead` does the same from heartbeat expiry.
    max_attempts:
        Retry budget per task; a task killed this many times fails its job
        with a :class:`~repro.faults.errors.JobFailedError`.
    blacklist_threshold:
        Consecutive declared deaths after which a node is blacklisted
        (never assigned work again, even after recovery); ``None`` disables
        blacklisting.
    speculative:
        Enable speculative backup attempts for straggling map tasks.
    speculative_multiplier:
        A running map attempt is a straggler once its elapsed time exceeds
        this multiple of the median completed map duration.
    """

    #: Completed map durations needed before the straggler median is trusted.
    SPECULATIVE_MIN_SAMPLES = 3

    def __init__(
        self,
        sim: Simulator,
        topology: ClusterTopology,
        hdfs: HdfsRaidCluster,
        scheduler: Scheduler,
        failed_nodes: frozenset[int],
        *,
        max_attempts: int = 4,
        blacklist_threshold: int | None = 3,
        speculative: bool = False,
        speculative_multiplier: float = 1.5,
        bus=None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.hdfs = hdfs
        self.scheduler = scheduler
        #: Optional observability event bus (None = instrumentation off).
        self.bus = bus
        self.failed_nodes = frozenset(failed_nodes)
        self.max_attempts = max_attempts
        self.blacklist_threshold = blacklist_threshold
        self.speculative = speculative
        self.speculative_multiplier = speculative_multiplier

        self.active_jobs: list[JobTaskState] = []
        self._jobs_by_id: dict[int, JobTaskState] = {}
        self.metrics: dict[int, JobMetrics] = {}
        self.shuffles: dict[int, JobShuffle] = {}
        self._expected_jobs = 0
        self._finished_jobs = 0

        # -- fault-tolerance state ------------------------------------------
        self.faults = FaultTimeline()
        #: Last heartbeat instant per node the master believes is alive.
        self.last_heartbeat: dict[int, float] = {
            node_id: 0.0
            for node_id in topology.node_ids()
            if node_id not in self.failed_nodes
        }
        self.blacklisted: set[int] = set()
        #: Declared deaths per node since its last successful completion.
        self.consecutive_failures: dict[int, int] = {}
        self._attempts_by_task: dict[AttemptKey, list[RunningAttempt]] = {}
        self._attempts_by_node: dict[int, list[RunningAttempt]] = {}
        self._attempt_counts: dict[AttemptKey, int] = {}
        self._failure_counts: dict[AttemptKey, int] = {}
        self._completed_maps: dict[int, set[AttemptKey]] = {}
        self._map_durations: dict[int, list[float]] = {}

        # -- online repair / data-availability state ------------------------
        #: Attached by the simulation wiring when a RepairConfig is set.
        self.repair_driver = None
        #: Fired whenever data availability improves (a node recovered or a
        #: repaired block landed); parked ``wait_for_repair`` tasks wait on
        #: it, re-check their stripe and re-park if still undecodable.
        self._availability: Event | None = None
        #: Tasks currently parked waiting for repair (``wait_for_repair``).
        self.parked_tasks = 0
        self._corruption_reported: set = set()

    @property
    def finished(self) -> bool:
        """True once every expected job has completed (or failed)."""
        return self._expected_jobs > 0 and self._finished_jobs >= self._expected_jobs

    def expect_jobs(self, count: int) -> None:
        """Declare how many jobs this run will submit in total."""
        if count <= 0:
            raise ValueError("a simulation needs at least one job")
        self._expected_jobs = count

    def submit_job(self, job_id: int, config: JobConfig) -> JobTaskState:
        """Initialise a job at its submit time and append it to the FIFO list.

        A job processes the first ``config.num_blocks`` native blocks of the
        stored file, so jobs with fewer blocks than the file holds see a
        truncated view.
        """
        view = self.hdfs.failure_view(self.failed_nodes, strict=False)
        if config.num_blocks < len(view.lost_blocks) + len(view.available_blocks):
            view = replace(
                view,
                lost_blocks=tuple(
                    block
                    for block in view.lost_blocks
                    if block.native_index < config.num_blocks
                ),
                available_blocks=tuple(
                    block
                    for block in view.available_blocks
                    if block.native_index < config.num_blocks
                ),
            )
        state = JobTaskState(
            job_id=job_id,
            config=config,
            view=view,
            block_map=self.hdfs.block_map,
            topology=self.topology,
        )
        self.active_jobs.append(state)
        self._jobs_by_id[job_id] = state
        self.metrics[job_id] = JobMetrics(job_id=job_id, submit_time=self.sim.now)
        self.shuffles[job_id] = JobShuffle(
            self.sim, config.num_reduce_tasks, self.topology,
            job_id=job_id, bus=self.bus,
        )
        self._completed_maps[job_id] = set()
        self._map_durations[job_id] = []
        if self.bus is not None:
            self.bus.emit(
                "job.submit", self.sim.now,
                job_id=job_id,
                num_blocks=config.num_blocks,
                num_reduce_tasks=config.num_reduce_tasks,
                degraded_tasks=state.total_degraded_tasks,
            )
        return state

    def heartbeat(
        self, slave_id: int, free_map_slots: int, free_reduce_slots: int
    ) -> tuple[list[MapAssignment], list[ReduceAssignment]]:
        """Handle one slave heartbeat: delegate to the scheduler, log launches."""
        self.last_heartbeat[slave_id] = self.sim.now
        maps: list[MapAssignment] = []
        reduces: list[ReduceAssignment] = []
        if slave_id not in self.blacklisted and self.active_jobs:
            maps, reduces = self.scheduler.assign(
                slave_id, free_map_slots, free_reduce_slots, self.active_jobs, self.sim.now
            )
            if self.speculative and len(maps) < free_map_slots:
                maps = maps + self._speculative_assignments(
                    slave_id, free_map_slots - len(maps)
                )
            for assignment in (*maps, *reduces):
                self._note_launch(assignment.job_id)
        if self.bus is not None:
            self.bus.emit(
                "heartbeat", self.sim.now,
                node=slave_id,
                free_map=free_map_slots,
                free_reduce=free_reduce_slots,
                assigned_maps=len(maps),
                assigned_reduces=len(reduces),
            )
        return maps, reduces

    def active_job(self, job_id: int) -> JobTaskState | None:
        """An active job's scheduling state (O(1)); ``None`` once it retired.

        Task processes use this to notice that their job was aborted
        between assignment and their first step: :meth:`_fail_job`'s
        interrupt loses that race (the engine drops a throw once the
        pending spawn resume has run), so the attempt must discover the
        abort itself.
        """
        return self._jobs_by_id.get(job_id)

    # -- attempt registry --------------------------------------------------------

    def note_attempt_started(
        self, assignment: MapAssignment | ReduceAssignment, process: Process | None = None
    ) -> RunningAttempt:
        """Register a just-launched attempt so the master can requeue or kill it."""
        key = _attempt_key(assignment)
        number = self._attempt_counts.get(key, 0) + 1
        self._attempt_counts[key] = number
        attempt = RunningAttempt(
            key=key,
            assignment=assignment,
            process=process,
            launch_time=self.sim.now,
            number=number,
        )
        self._attempts_by_task.setdefault(key, []).append(attempt)
        self._attempts_by_node.setdefault(assignment.slave_id, []).append(attempt)
        return attempt

    def attempt_of(self, assignment: MapAssignment | ReduceAssignment) -> int:
        """Attempt number of a registered in-flight assignment (1 if unknown)."""
        attempt = self.attempt_record(assignment)
        return 1 if attempt is None else attempt.number

    def _deregister(self, assignment: MapAssignment | ReduceAssignment) -> None:
        key = _attempt_key(assignment)
        attempts = self._attempts_by_task.get(key, [])
        for attempt in attempts:
            if attempt.assignment == assignment:
                attempts.remove(attempt)
                node_list = self._attempts_by_node.get(assignment.slave_id, [])
                if attempt in node_list:
                    node_list.remove(attempt)
                break
        if not attempts:
            self._attempts_by_task.pop(key, None)

    # -- completion callbacks ---------------------------------------------------

    def on_map_complete(
        self, record: TaskRecord, shuffle_bytes: float, assignment: MapAssignment
    ) -> None:
        """A map attempt finished: account it, deposit its shuffle data.

        The first finisher of a task wins: its sibling attempts are killed,
        and a sibling that still reports completion is ignored.
        """
        state = self._attempt_finished(assignment)
        if state is None:
            return  # the job was abandoned while this attempt ran
        key = _attempt_key(assignment)
        completed = self._completed_maps[record.job_id]
        if key in completed:
            return  # a sibling attempt won the race first
        completed.add(key)
        self._kill_other_attempts(key, record.job_id)
        self._map_durations[record.job_id].append(record.runtime)
        state.on_map_complete()
        self.metrics[record.job_id].tasks.append(record)
        shuffle = self.shuffles[record.job_id]
        shuffle.deposit(record.slave_id, shuffle_bytes)
        if state.maps_all_completed():
            shuffle.notify_maps_done()
            if state.job_completed():
                self._finish_job(state)

    def on_reduce_complete(self, record: TaskRecord, assignment: ReduceAssignment) -> None:
        """A reduce attempt finished."""
        state = self._attempt_finished(assignment)
        if state is None:
            return
        state.on_reduce_complete()
        self.metrics[record.job_id].tasks.append(record)
        if state.job_completed():
            self._finish_job(state)

    def _attempt_finished(
        self, assignment: MapAssignment | ReduceAssignment
    ) -> JobTaskState | None:
        """Retire a finished attempt; its job's state, or None once retired."""
        self._deregister(assignment)
        self.consecutive_failures[assignment.slave_id] = 0
        return self._jobs_by_id.get(assignment.job_id)

    # -- mid-run failure ---------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Take a node down while jobs are running.

        Pending tasks whose blocks lived on the node become degraded tasks;
        the EDF guard's live-node view shrinks.  Killing the node's *running*
        tasks is the slave runtime's job (it holds the processes) -- see
        :meth:`on_task_killed` for the requeue half (or :meth:`declare_dead`,
        which requeues from the master's own in-flight registry when the
        death was detected rather than scripted).

        Simplification (documented in DESIGN.md): intermediate map outputs
        already shuffled out of the node survive; Hadoop would re-execute
        completed maps whose output was lost, a second-order effect the
        paper's simulator also ignores.
        """
        if node_id in self.failed_nodes:
            return
        self.failed_nodes = self.failed_nodes | {node_id}
        self.last_heartbeat.pop(node_id, None)
        # Deliberately *no* recoverability check here: more than ``n - k``
        # concurrent failures are handled lazily, per task, when a degraded
        # read finds fewer than ``k`` readable survivors (it then fails the
        # job with DataUnavailableError, or parks under wait_for_repair).
        live = self.scheduler.context.live_nodes
        if isinstance(live, set):
            live.discard(node_id)
        for state in self.active_jobs:
            state.on_node_failure(node_id)
        if self.repair_driver is not None:
            self.repair_driver.on_node_failed(node_id)
        if self.bus is not None:
            self.bus.emit("node.fail", self.sim.now, node=node_id)
        count = self.consecutive_failures.get(node_id, 0) + 1
        self.consecutive_failures[node_id] = count
        if (
            self.blacklist_threshold is not None
            and count >= self.blacklist_threshold
            and node_id not in self.blacklisted
        ):
            self.blacklisted.add(node_id)
            self.faults.blacklistings.append(
                BlacklistRecord(
                    node=node_id, at=self.sim.now, consecutive_failures=count
                )
            )
            if self.bus is not None:
                self.bus.emit(
                    "node.blacklist", self.sim.now,
                    node=node_id, consecutive_failures=count,
                )

    def declare_dead(self, node_id: int, failed_at: float | None = None) -> None:
        """Heartbeat expiry fired: declare the node dead and requeue its work.

        ``failed_at`` is the ground-truth crash instant (from the failure
        schedule), recorded purely so detection latency is measurable; the
        master's actual decision uses only heartbeat timestamps.
        """
        if node_id in self.failed_nodes:
            return
        detected_at = self.sim.now
        record = DetectionRecord(
            node=node_id,
            failed_at=detected_at if failed_at is None else failed_at,
            detected_at=detected_at,
        )
        self.faults.detections.append(record)
        if self.bus is not None:
            self.bus.emit(
                "failure.detect", detected_at,
                node=node_id,
                failed_at=record.failed_at,
                latency=record.latency,
            )
        self.fail_node(node_id)
        self.requeue_node_attempts(node_id)

    def requeue_node_attempts(self, node_id: int) -> None:
        """Hand every in-flight attempt of a (formerly) dead node back.

        Called by :meth:`declare_dead`, and directly by the slave runtime
        when a crashed node recovers *before* the expiry fired: the
        rejoining tracker reports empty slots, so its old attempts are
        requeued at that instant instead.
        """
        for attempt in list(self._attempts_by_node.get(node_id, [])):
            self.on_task_killed(attempt.assignment)
        self._attempts_by_node.pop(node_id, None)

    def recover_node(self, node_id: int) -> int:
        """A failed node rejoined: restore it to the live view.

        Its stored blocks are readable again, so each job reclaims pending
        degraded tasks whose block came back.  A blacklisted node rejoins
        the cluster but stays out of the live-node view and receives no
        assignments.  Returns the number of reclaimed tasks.
        """
        if node_id not in self.failed_nodes:
            return 0
        self.failed_nodes = self.failed_nodes - {node_id}
        self.last_heartbeat[node_id] = self.sim.now
        if node_id not in self.blacklisted:
            live = self.scheduler.context.live_nodes
            if isinstance(live, set):
                live.add(node_id)
        reclaimed = sum(
            state.on_node_recovery(node_id) for state in self.active_jobs
        )
        self.faults.recoveries.append(
            RecoveryRecord(node=node_id, at=self.sim.now, reclaimed_tasks=reclaimed)
        )
        if self.bus is not None:
            self.bus.emit(
                "node.recover", self.sim.now, node=node_id, reclaimed_tasks=reclaimed
            )
        self.notify_availability()
        if self.repair_driver is not None:
            self.repair_driver.on_availability_changed()
        return reclaimed

    # -- online repair and data availability -----------------------------------

    def availability_event(self) -> Event:
        """The event parked ``wait_for_repair`` tasks sleep on.

        A fresh event is created after each :meth:`notify_availability`
        firing, so every waiter wakes exactly once per availability change.
        """
        if self._availability is None or self._availability.fired:
            self._availability = self.sim.event(name="availability")
        return self._availability

    def notify_availability(self) -> None:
        """Wake every parked task: data availability just improved."""
        if self._availability is not None and not self._availability.fired:
            self._availability.succeed()

    def on_block_repaired(self, block, new_home: int) -> int:
        """A rebuilt block landed on ``new_home``: reclassify and wake.

        Pending degraded tasks waiting on the block return to the normal
        pool with the new locality; parked tasks re-check their stripes.
        Returns the number of reclaimed tasks.
        """
        reclaimed = sum(
            state.on_block_repaired(block, new_home) for state in self.active_jobs
        )
        self.notify_availability()
        return reclaimed

    def report_corruption(self, block, via: str) -> None:
        """A checksum-bad block was discovered (read-time or scrubber).

        Records the discovery once per block, emits ``block.corrupt`` and
        queues the block for rebuild when a repair driver is attached.
        """
        if block in self._corruption_reported:
            return
        self._corruption_reported.add(block)
        node = self.hdfs.block_map.node_of(block)
        self.faults.corruptions.append(
            CorruptionRecord(
                block=str(block), node=node, detected_at=self.sim.now, via=via
            )
        )
        if self.bus is not None:
            self.bus.emit(
                "block.corrupt", self.sim.now,
                block=str(block), node=node, via=via,
            )
        if self.repair_driver is not None:
            self.repair_driver.enqueue(block)

    def attempt_record(
        self, assignment: MapAssignment | ReduceAssignment
    ) -> RunningAttempt | None:
        """The registered in-flight attempt matching ``assignment``, if any."""
        for attempt in self._attempts_by_task.get(_attempt_key(assignment), []):
            if attempt.assignment == assignment:
                return attempt
        return None

    def fail_job_data_unavailable(self, job_id: int, reason: str) -> None:
        """Abandon a job because a stripe dropped below ``k`` readable blocks."""
        state = self._jobs_by_id.get(job_id)
        if state is None:
            return  # already retired
        self._fail_job(state, reason, kind="data-unavailable")

    def on_task_killed(self, assignment: MapAssignment | ReduceAssignment) -> None:
        """A running attempt died with its node: account it, maybe requeue.

        Charges the attempt against the task's retry budget, failing the
        job cleanly when it is exhausted.  A map goes back to the pending
        pool only when no sibling attempt is still running -- a surviving
        speculative copy already carries the task.  A reduce always goes
        back, and the shuffle data it had fetched is fetched again.
        """
        self._deregister(assignment)
        state = self._jobs_by_id.get(assignment.job_id)
        if state is None:
            return  # the job was already abandoned
        self.metrics[assignment.job_id].killed_attempts += 1
        key = _attempt_key(assignment)
        failures = self._failure_counts.get(key, 0) + 1
        self._failure_counts[key] = failures
        if self.bus is not None:
            self.bus.emit(
                "task.requeue", self.sim.now,
                job_id=assignment.job_id, task=assignment.kind,
                node=assignment.slave_id, **assignment.event_fields(),
                failures=failures,
            )
        if failures >= self.max_attempts:
            self._fail_job(
                state,
                f"{assignment.label} failed {failures} time(s), "
                f"exhausting max_attempts={self.max_attempts}",
            )
        elif assignment.kind == "reduce":
            state.requeue_killed_reduce(assignment.reduce_index)
            self.shuffles[assignment.job_id].reset_reducer(assignment.reduce_index)
        elif not self._attempts_by_task.get(key):  # no sibling still runs it
            home = self.hdfs.node_of(assignment.block)
            state.requeue_killed_map(
                assignment.block,
                was_degraded=assignment.category is MapTaskCategory.DEGRADED,
                lost=home in self.failed_nodes,
            )

    # -- speculative execution ---------------------------------------------------

    def _speculative_assignments(
        self, slave_id: int, free_slots: int
    ) -> list[MapAssignment]:
        """Backup attempts for straggling maps, once a job's maps are dispatched."""
        assignments: list[MapAssignment] = []
        for job in self.active_jobs:
            if free_slots == 0:
                break
            if job.has_unassigned_maps() or job.maps_all_completed():
                continue
            durations = self._map_durations.get(job.job_id, ())
            if len(durations) < self.SPECULATIVE_MIN_SAMPLES:
                continue
            cutoff = self.speculative_multiplier * statistics.median(durations)
            for key, attempts in list(self._attempts_by_task.items()):
                if free_slots == 0:
                    break
                if key[0] != "map" or key[1] != job.job_id:
                    continue
                if len(attempts) != 1:
                    continue  # already has a backup (or is being torn down)
                (running,) = attempts
                if running.assignment.slave_id == slave_id:
                    continue  # a backup must run elsewhere
                if self.sim.now - running.launch_time <= cutoff:
                    continue
                backup = MapAssignment(
                    job_id=job.job_id,
                    block=running.assignment.block,
                    category=self._classify_block(running.assignment.block, slave_id),
                    slave_id=slave_id,
                    speculative=True,
                )
                assignments.append(backup)
                self.metrics[job.job_id].speculative_launched += 1
                free_slots -= 1
                if self.bus is not None:
                    self.bus.emit(
                        "spec.launch", self.sim.now,
                        job_id=job.job_id, block=str(backup.block),
                        node=slave_id, straggler_node=running.assignment.slave_id,
                        straggler_elapsed=self.sim.now - running.launch_time,
                        cutoff=cutoff,
                    )
        return assignments

    def _classify_block(self, block, slave_id: int) -> MapTaskCategory:
        """Locality category of running ``block`` on ``slave_id`` right now."""
        home = self.hdfs.node_of(block)
        if home in self.failed_nodes:
            return MapTaskCategory.DEGRADED
        if home == slave_id:
            return MapTaskCategory.NODE_LOCAL
        if self.topology.rack_of(home) == self.topology.rack_of(slave_id):
            return MapTaskCategory.RACK_LOCAL
        return MapTaskCategory.REMOTE

    def _kill_other_attempts(self, key: AttemptKey, job_id: int) -> None:
        """First finisher won: interrupt every sibling attempt of ``key``."""
        for attempt in list(self._attempts_by_task.get(key, [])):
            if attempt.process is not None:
                attempt.process.interrupt("speculative-kill")
            self._deregister(attempt.assignment)
            self.metrics[job_id].speculative_killed += 1

    # -- internals ------------------------------------------------------------------

    def _note_launch(self, job_id: int) -> None:
        metrics = self.metrics[job_id]
        if math.isnan(metrics.first_launch_time):
            metrics.first_launch_time = self.sim.now

    def _finish_job(self, state: JobTaskState) -> None:
        metrics = self.metrics[state.job_id]
        metrics.finish_time = self.sim.now
        if self.bus is not None:
            self.bus.emit(
                "job.finish", self.sim.now,
                job_id=state.job_id, runtime=metrics.runtime,
            )
        self._retire_job(state)

    def _fail_job(
        self, state: JobTaskState, reason: str, kind: str = "retry-budget"
    ) -> None:
        """Abandon a job cleanly: record why, kill its attempts, retire it."""
        metrics = self.metrics[state.job_id]
        metrics.failed = True
        metrics.failure_reason = reason
        metrics.failure_kind = kind
        metrics.finish_time = self.sim.now
        if self.bus is not None:
            self.bus.emit("job.fail", self.sim.now, job_id=state.job_id, reason=reason)
        for key, attempts in list(self._attempts_by_task.items()):
            if key[1] != state.job_id:
                continue
            for attempt in list(attempts):
                if attempt.process is not None:
                    attempt.process.interrupt("job-aborted")
                self._deregister(attempt.assignment)
        self._retire_job(state)

    def _retire_job(self, state: JobTaskState) -> None:
        self.active_jobs.remove(state)
        del self._jobs_by_id[state.job_id]
        self._finished_jobs += 1
