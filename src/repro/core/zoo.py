"""The scheduler zoo: policies beyond the paper's LF/BDF/EDF triple.

The policy framework turns the reproduction into a scheduling research
platform; these are the first residents.  Each policy is a normal
:class:`~repro.core.scheduler.Scheduler` subclass registered under its
``name`` -- nothing here is special-cased anywhere else, so the zoo doubles
as a worked example of the third-party policy contract (DESIGN.md §16):

* :class:`RandomScheduler` (``RANDOM``) -- locality-blind baseline that
  picks a random source node per slot; the floor every informed policy
  must beat on locality rate.
* :class:`FifoScheduler` (``FIFO``) -- strict file/scan-order baseline with
  no locality preference, the classic Hadoop FIFO strawman.
* :class:`WorkStealingScheduler` (``STEAL``) -- drain the slave's own queue,
  then steal from the most-backlogged live node (estee idiom).
* :class:`CriticalPathScheduler` (``CPATH``) -- b-level priority: jobs are
  served in order of estimated remaining critical-path work, with BDF's
  degraded pacing inside each job.
* :class:`TaskCloningScheduler` (``CLONE``) -- Xu & Lau-style cloning:
  locality-first, but in the map-phase tail it holds slots back so the
  master's speculative mechanism launches backup clones of stragglers.
* :class:`HeterogeneityAwareScheduler` (``HETERO``) -- weights per-heartbeat
  assignment volume by node speed and admits degraded tasks only on
  at-least-average-speed slaves (Aggarwal et al. direction).

Every policy honours the universal contract enforced by
``tests/property/test_policy_conformance.py``: assign only what the
heartbeat offered, never double-assign a block, never starve degraded
tasks, and stay deterministic for a fixed scenario.
"""

from __future__ import annotations

import math
import random

from repro.core.degraded_first import BasicDegradedFirstScheduler
from repro.core.locality_first import LocalityFirstScheduler
from repro.core.scheduler import Scheduler, SchedulerContext
from repro.core.tasks import JobTaskState
from repro.mapreduce.job import MapAssignment, MapTaskCategory


def _category_for(context: SchedulerContext, slave_id: int, home_node: int) -> MapTaskCategory:
    """Locality class of a normal task stored on ``home_node`` run on ``slave_id``."""
    if home_node == slave_id:
        return MapTaskCategory.NODE_LOCAL
    topology = context.topology
    if topology.rack_of(home_node) == topology.rack_of(slave_id):
        return MapTaskCategory.RACK_LOCAL
    return MapTaskCategory.REMOTE


class RandomScheduler(Scheduler):
    """Random baseline: pick a uniformly random source per slot, locality-blind.

    For each free slot the policy chooses a random job with pending work,
    then a uniformly random source among that job's non-empty home-node
    queues and (if any) its degraded pool.  The draw uses a private
    fixed-seed :class:`random.Random`, so a given scenario always replays
    the same decision sequence -- random *placement*, deterministic *run*.
    When only degraded work remains it is necessarily drawn, so nothing
    starves.  Because the job is drawn per slot rather than taken in order,
    this policy overrides ``assign_maps`` instead of supplying ``pick_map``.
    """

    name = "RANDOM"

    #: Fixed seed for the private decision stream (determinism contract).
    _SEED = 0x0DF5EED

    #: Sentinel index meaning "draw from the degraded pool".
    _DEGRADED = -1

    def __init__(self, context: SchedulerContext) -> None:
        super().__init__(context)
        self._rng = random.Random(self._SEED)

    def assign_maps(self, slave_id, free_map_slots, jobs, now):
        tracing = self.bus is not None
        assignments: list[MapAssignment] = []
        node_ids = sorted(self.context.topology.node_ids())
        while free_map_slots > 0:
            ready = [job for job in jobs if job.has_unassigned_maps()]
            if not ready:
                break
            job = self._rng.choice(ready)
            sources = [n for n in node_ids if job.pending_node_local_count(n) > 0]
            if job.has_unassigned_degraded():
                sources.append(self._DEGRADED)
            pacing = self.pacing_fields(job) if tracing else None
            source = self._rng.choice(sources)
            if source == self._DEGRADED:
                assignment = self._try_degraded(job, slave_id)
            else:
                block = job.pop_from_node(source)
                assignment = self._make_map_assignment(
                    job, slave_id, block, _category_for(self.context, slave_id, source)
                )
            assignments.append(assignment)
            free_map_slots -= 1
            if tracing:
                self.trace_decision(
                    now, slave_id, job_id=job.job_id,
                    action="assign", reason="random-source",
                    category=assignment.category.value,
                    block=str(assignment.block),
                    **pacing,
                )
        return assignments


class FifoScheduler(Scheduler):
    """FIFO baseline: strict job order, fixed node-scan order, no locality.

    Jobs are served strictly in submission order; within a job, normal
    tasks are taken by scanning home nodes in ascending id order --
    wherever the heartbeat came from -- and degraded tasks come last.
    The resulting locality is whatever the placement happens to give,
    which is the point: FIFO quantifies what LF's locality preference
    buys.
    """

    name = "FIFO"

    def __init__(self, context: SchedulerContext) -> None:
        super().__init__(context)
        self._node_ids = sorted(context.topology.node_ids())

    def pick_map(self, job, slave_id, now):
        if job.has_unassigned_normal():
            for node_id in self._node_ids:
                block = job.pop_from_node(node_id)
                if block is not None:
                    category = _category_for(self.context, slave_id, node_id)
                    assignment = self._make_map_assignment(job, slave_id, block, category)
                    return assignment, "fifo-scan", None
        return self._try_degraded(job, slave_id), "fifo-scan", None


class WorkStealingScheduler(Scheduler):
    """Work stealing: drain the own queue, then rob the most-backlogged node.

    The heartbeating slave first takes tasks whose blocks it stores
    itself (its "own queue").  Once that is empty it steals from the
    *victim* with the largest pending node-local backlog among live
    nodes (ties broken by lowest node id), which levels queue lengths
    across the cluster the way work-stealing runtimes do.  Degraded
    tasks are taken last, when no normal work remains anywhere.
    """

    name = "STEAL"

    def pick_map(self, job, slave_id, now):
        block = job.pop_from_node(slave_id)
        if block is not None:
            category = MapTaskCategory.NODE_LOCAL
            assignment = self._make_map_assignment(job, slave_id, block, category)
            return assignment, "own-queue", None
        victim = self._pick_victim(job, slave_id)
        if victim is None:
            return self._try_degraded(job, slave_id), "degraded-tail", None
        block = job.pop_from_node(victim)
        category = _category_for(self.context, slave_id, victim)
        assignment = self._make_map_assignment(job, slave_id, block, category)
        # The backlog is read after the pop: what the victim has left.
        extras = {"victim": victim, "victim_backlog": job.pending_node_local_count(victim)}
        return assignment, "steal", extras

    def _pick_victim(self, job: JobTaskState, slave_id: int) -> int | None:
        """The live node with the deepest pending queue (ties: lowest id)."""
        best_node = None
        best_backlog = 0
        for node_id in sorted(self.context.live_nodes):
            if node_id == slave_id:
                continue
            backlog = job.pending_node_local_count(node_id)
            if backlog > best_backlog:
                best_node, best_backlog = node_id, backlog
        if best_node is not None:
            return best_node
        # Failed nodes keep no queues (their blocks went degraded), but a
        # *blacklisted* live-excluded node may: fall back to any remaining
        # queue so normal work is never stranded.
        for node_id in sorted(self.context.topology.node_ids()):
            if node_id != slave_id and job.pending_node_local_count(node_id) > 0:
                return node_id
        return None


class CriticalPathScheduler(BasicDegradedFirstScheduler):
    """Critical-path priority: serve the job with the most remaining work first.

    A b-level estimate per job -- unlaunched maps at the mean map time,
    plus pending degraded tasks at the expected degraded-read time, plus
    unlaunched reduces at the shuffle tail -- orders jobs by descending
    remaining critical path (ties: submission order).  Inside a job the
    assignment logic is BDF's, so degraded pacing still applies.  With a
    single job this degenerates to BDF exactly.
    """

    name = "CPATH"

    def assign_maps(self, slave_id, free_map_slots, jobs, now):
        ordered = sorted(
            jobs, key=lambda job: (-self._b_level(job), job.job_id)
        )
        return super().assign_maps(slave_id, free_map_slots, ordered, now)

    def _b_level(self, job: JobTaskState) -> float:
        """Estimated remaining critical-path seconds of ``job``."""
        pending_maps = job.M - job.m
        degraded = job.pending_degraded_count()
        normal = max(pending_maps - degraded, 0)
        reduces = len(job.pending_reduce_tasks)
        return (
            normal * self.context.map_time_mean
            + degraded * (self.context.map_time_mean + self.context.expected_degraded_read_time)
            + reduces * self.context.map_time_mean
        )


class TaskCloningScheduler(LocalityFirstScheduler):
    """Task cloning (Xu & Lau): hold slots back in the tail to feed clones.

    Straggler *cloning* beats straggler *detection* when spare slots are
    cheap: near the end of the map phase, leave capacity free so backup
    copies of still-running tasks can launch immediately.  The master
    already launches speculative attempts into unfilled slots once a
    job's maps are dispatched, so this policy implements cloning by slot
    shaping: while plenty of work pends it fills slots locality-first
    (LF order), but once the remaining pending maps fit inside the live
    slot capacity it assigns only one task per heartbeat, leaving the
    rest of the slots to the master's clone path.  At least one task is
    assigned per heartbeat whenever work pends, so nothing starves even
    with speculation disabled.
    """

    name = "CLONE"

    def assign_maps(self, slave_id, free_map_slots, jobs, now):
        if free_map_slots > 0 and self._in_tail(jobs):
            free_map_slots = 1
        return super().assign_maps(slave_id, free_map_slots, jobs, now)

    def pick_map(self, job, slave_id, now):
        assignment = super().pick_map(job, slave_id, now)[0]
        return assignment, "clone-tail" if self._tail else "lf-order", None

    def _in_tail(self, jobs: list[JobTaskState]) -> bool:
        pending = sum(
            job.pending_degraded_count()
            + (job.M - job.M_d) - (job.m - job.m_d)
            for job in jobs
        )
        capacity = sum(
            self.context.map_slots_of(node_id) for node_id in self.context.live_nodes
        )
        self._tail = 0 < pending <= max(capacity, 1)
        return self._tail

    #: Whether the last heartbeat was served in tail (clone-feeding) mode.
    _tail = False


class HeterogeneityAwareScheduler(BasicDegradedFirstScheduler):
    """Heterogeneity-aware: assignment volume and degraded admission by speed.

    Two speed-informed rules on top of BDF (Aggarwal et al. direction):
    a slave is offered ``free * speed / mean_speed`` slots per heartbeat
    (at least one), so slow nodes accumulate less queued work; and
    degraded tasks -- whose reconstruction adds compute on top of the
    network fan-in -- are admitted only on slaves at or above the mean
    live speed.  When only degraded work remains the speed gate lifts,
    so degraded tasks never starve on a cluster of stragglers.
    """

    name = "HETERO"

    def assign_maps(self, slave_id, free_map_slots, jobs, now):
        if free_map_slots > 0:
            speed = self.context.speed_factor(slave_id)
            mean = self.context.mean_speed_factor()
            share = free_map_slots if mean <= 0 else free_map_slots * speed / mean
            free_map_slots = max(1, min(free_map_slots, math.floor(share + 0.5)))
        return super().assign_maps(slave_id, free_map_slots, jobs, now)

    def _degraded_guards(self, job: JobTaskState, slave_id: int, now: float) -> bool:
        del now
        speed_ok = (
            self.context.speed_factor(slave_id) + 1e-12
            >= self.context.mean_speed_factor()
        )
        if self.bus is not None:
            self.last_guard_trace = {
                "speed": self.context.speed_factor(slave_id),
                "mean_speed": self.context.mean_speed_factor(),
                "speed_ok": speed_ok,
                "rejected_by": None if speed_ok else "speed",
            }
        return speed_ok or not job.has_unassigned_normal()


#: All zoo policies, for registration.
ZOO_SCHEDULERS = (
    RandomScheduler,
    FifoScheduler,
    WorkStealingScheduler,
    CriticalPathScheduler,
    TaskCloningScheduler,
    HeterogeneityAwareScheduler,
)
