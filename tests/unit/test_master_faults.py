"""Unit tests for the JobTracker's fault-tolerance machinery."""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.scheduler import SchedulerContext, make_scheduler
from repro.ec.codec import CodeParams
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import MapAssignment, MapTaskCategory, ReduceAssignment, TaskKind
from repro.mapreduce.master import JobTracker
from repro.mapreduce.metrics import TaskRecord
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.storage.hdfs import HdfsRaidCluster


def make_tracker(**tracker_kwargs) -> JobTracker:
    sim = Simulator()
    topology = ClusterTopology.from_rack_sizes([3, 3], map_slots=2)
    hdfs = HdfsRaidCluster(
        topology, CodeParams(4, 2), num_native_blocks=12,
        placement="declustered", rng=RngStreams(4),
    )
    scheduler = make_scheduler(
        "LF",
        SchedulerContext(
            topology=topology,
            live_nodes=set(topology.node_ids()),
            expected_degraded_read_time=2.0,
            map_time_mean=20.0,
            reduce_slowstart=0.0,
        ),
    )
    return JobTracker(sim, topology, hdfs, scheduler, frozenset(), **tracker_kwargs)


def start_one_map(tracker: JobTracker, slave_id: int = 1) -> MapAssignment:
    """Pop a local block for ``slave_id`` and register its attempt."""
    state = tracker.active_job(0)
    picked = state.pop_local(slave_id)
    assert picked is not None
    block, category = picked
    assignment = MapAssignment(
        job_id=0, block=block, category=category, slave_id=slave_id
    )
    tracker.note_attempt_started(assignment)
    return assignment


def start_one(
    tracker: JobTracker, kind: str, slave_id: int = 1
) -> MapAssignment | ReduceAssignment:
    """Register a running attempt of a ``kind`` task on ``slave_id``."""
    if kind == "map":
        return start_one_map(tracker, slave_id)
    index = tracker.active_job(0).pop_reduce()
    assert index is not None
    assignment = ReduceAssignment(job_id=0, reduce_index=index, slave_id=slave_id)
    tracker.note_attempt_started(assignment)
    return assignment


@pytest.fixture
def tracker() -> JobTracker:
    tracker = make_tracker()
    tracker.expect_jobs(1)
    tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=0))
    return tracker


class TestHeartbeatBookkeeping:
    def test_heartbeat_records_timestamp(self, tracker):
        tracker.sim._now = 7.0  # advance without running processes
        tracker.heartbeat(1, 0, 0)
        assert tracker.last_heartbeat[1] == 7.0

    def test_blacklisted_node_gets_no_work(self, tracker):
        tracker.blacklisted.add(1)
        assert tracker.heartbeat(1, 2, 1) == ([], [])

    def test_fail_node_forgets_heartbeat(self, tracker):
        tracker.heartbeat(1, 0, 0)
        tracker.fail_node(1)
        assert 1 not in tracker.last_heartbeat


class TestDeclareDead:
    def test_records_detection_latency(self, tracker):
        tracker.sim._now = 45.0
        tracker.declare_dead(1, failed_at=30.0)
        (record,) = tracker.faults.detections
        assert record.node == 1
        assert record.latency == pytest.approx(15.0)
        assert 1 in tracker.failed_nodes

    def test_requeues_registered_attempts(self, tracker):
        state = tracker.active_job(0)
        assignment = start_one_map(tracker, slave_id=1)
        launched = state.m
        tracker.declare_dead(1)
        assert state.m == launched - 1
        assert tracker.metrics[0].killed_attempts == 1

    def test_idempotent_for_known_dead_node(self, tracker):
        tracker.declare_dead(1)
        tracker.declare_dead(1)
        assert len(tracker.faults.detections) == 1


class TestRetryBudget:
    @pytest.mark.parametrize("kind", ["map", "reduce"])
    def test_exhaustion_fails_the_job(self, kind):
        tracker = make_tracker(max_attempts=1)
        tracker.expect_jobs(1)
        tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=2))
        assignment = start_one(tracker, kind)
        tracker.on_task_killed(assignment)
        metrics = tracker.metrics[0]
        assert metrics.failed
        if kind == "map":
            named = f"map task for block {assignment.block}"
        else:
            named = f"reduce task {assignment.reduce_index}"
        assert metrics.failure_reason == (
            f"{named} failed 1 time(s), exhausting max_attempts=1"
        )
        assert tracker.finished  # the job is retired, not wedged
        assert tracker.active_job(0) is None

    @pytest.mark.parametrize("kind", ["map", "reduce"])
    def test_below_budget_requeues(self, kind):
        tracker = make_tracker()
        tracker.expect_jobs(1)
        state = tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=2))
        assignment = start_one(tracker, kind)
        shuffle = tracker.shuffles[0]
        shuffle.deposit(1, 100.0)
        drained = shuffle.take(0)  # reducer 0 fetched its share
        assert drained
        tracker.on_task_killed(assignment)
        assert not tracker.metrics[0].failed
        assert tracker.metrics[0].killed_attempts == 1
        if kind == "map":
            assert state.has_unassigned_maps()
            assert shuffle.take(0) == {}  # no reducer restarts
        else:
            assert assignment.reduce_index == 0
            assert state.pending_reduce_tasks[0] == 0
            # The killed reducer's fetched data died with it: the backlog
            # comes back whole (JobShuffle.reset_reducer).
            assert shuffle.take(0) == drained

    def test_attempt_numbers_increment(self, tracker):
        assignment = start_one_map(tracker)
        assert tracker.attempt_of(assignment) == 1
        tracker.on_task_killed(assignment)
        tracker.note_attempt_started(assignment)
        assert tracker.attempt_of(assignment) == 2


class TestBlacklist:
    def test_third_consecutive_failure_blacklists(self):
        tracker = make_tracker(blacklist_threshold=3)
        tracker.expect_jobs(1)
        tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=0))
        for _ in range(3):
            tracker.fail_node(1)
            tracker.recover_node(1)
        assert 1 in tracker.blacklisted
        (record,) = tracker.faults.blacklistings
        assert record.consecutive_failures == 3
        # Recovered but blacklisted: alive, yet not schedulable.
        assert 1 not in tracker.failed_nodes
        assert 1 not in tracker.scheduler.context.live_nodes

    def test_success_resets_the_streak(self):
        tracker = make_tracker(blacklist_threshold=2)
        tracker.expect_jobs(1)
        tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=0))
        tracker.fail_node(1)
        tracker.recover_node(1)
        assignment = start_one_map(tracker, slave_id=1)
        record = TaskRecord(
            job_id=0, kind=TaskKind.MAP, category=MapTaskCategory.NODE_LOCAL,
            slave_id=1, launch_time=0.0, finish_time=10.0,
        )
        tracker.on_map_complete(record, shuffle_bytes=0.0, assignment=assignment)
        assert tracker.consecutive_failures[1] == 0
        tracker.fail_node(1)
        assert 1 not in tracker.blacklisted

    def test_threshold_none_disables(self):
        tracker = make_tracker(blacklist_threshold=None)
        tracker.expect_jobs(1)
        tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=0))
        for _ in range(5):
            tracker.fail_node(1)
            tracker.recover_node(1)
        assert tracker.blacklisted == set()


class TestRecovery:
    def test_recover_restores_live_view(self, tracker):
        tracker.fail_node(1)
        assert 1 not in tracker.scheduler.context.live_nodes
        tracker.recover_node(1)
        assert 1 in tracker.scheduler.context.live_nodes
        assert 1 not in tracker.failed_nodes
        (record,) = tracker.faults.recoveries

    def test_recover_reclaims_degraded_tasks(self, tracker):
        state = tracker.active_job(0)
        degraded_before = state.M_d
        tracker.fail_node(1)
        converted = state.M_d - degraded_before
        assert converted > 0  # node 1 homed at least one pending block
        reclaimed = tracker.recover_node(1)
        assert reclaimed == converted
        assert state.M_d == degraded_before
        assert state.pending_node_local_count(1) > 0

    def test_recover_unknown_node_is_noop(self, tracker):
        assert tracker.recover_node(1) == 0
        assert tracker.faults.recoveries == []
