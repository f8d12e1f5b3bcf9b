"""Unit tests for the JobTracker (master) beyond full-simulation coverage."""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.scheduler import SchedulerContext, make_scheduler
from repro.ec.codec import CodeParams
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import (
    MapAssignment,
    MapTaskCategory,
    ReduceAssignment,
    TaskKind,
)
from repro.mapreduce.master import JobTracker
from repro.mapreduce.metrics import TaskRecord
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.storage.hdfs import HdfsRaidCluster


@pytest.fixture
def tracker():
    sim = Simulator()
    topology = ClusterTopology.from_rack_sizes([3, 3], map_slots=2)
    hdfs = HdfsRaidCluster(
        topology, CodeParams(4, 2), num_native_blocks=12,
        placement="declustered", rng=RngStreams(4),
    )
    failed = frozenset({0})
    scheduler = make_scheduler(
        "LF",
        SchedulerContext(
            topology=topology,
            live_nodes=set(topology.node_ids()) - failed,
            expected_degraded_read_time=2.0,
            map_time_mean=20.0,
            reduce_slowstart=0.0,
        ),
    )
    return JobTracker(sim, topology, hdfs, scheduler, failed)


class TestJobLifecycle:
    def test_expect_jobs_validation(self, tracker):
        with pytest.raises(ValueError):
            tracker.expect_jobs(0)

    def test_heartbeat_without_jobs_is_empty(self, tracker):
        assert tracker.heartbeat(1, 2, 1) == ([], [])

    def test_submit_creates_state_and_metrics(self, tracker):
        tracker.expect_jobs(1)
        state = tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=1))
        assert state.M == 12
        assert tracker.metrics[0].submit_time == 0.0
        assert tracker.active_job(0) is state

    def test_job_state_unknown(self, tracker):
        assert tracker.active_job(7) is None

    def test_truncated_view_for_small_job(self, tracker):
        tracker.expect_jobs(1)
        state = tracker.submit_job(0, JobConfig(num_blocks=5, num_reduce_tasks=0))
        assert state.M == 5

    def test_completion_flow(self, tracker):
        tracker.expect_jobs(1)
        state = tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=1))
        blocks = tracker.hdfs.block_map.native_blocks()
        assert len(blocks) == 12
        for index, block in enumerate(blocks):
            record = TaskRecord(
                job_id=0, kind=TaskKind.MAP, category=MapTaskCategory.NODE_LOCAL,
                slave_id=1, launch_time=0.0, finish_time=10.0 + index,
            )
            assignment = MapAssignment(
                job_id=0, block=block, category=MapTaskCategory.NODE_LOCAL, slave_id=1
            )
            tracker.on_map_complete(record, shuffle_bytes=0.0, assignment=assignment)
        assert state.maps_all_completed()
        assert not tracker.finished
        reduce_record = TaskRecord(
            job_id=0, kind=TaskKind.REDUCE, category=None,
            slave_id=1, launch_time=0.0, finish_time=50.0,
        )
        tracker.on_reduce_complete(
            reduce_record, ReduceAssignment(job_id=0, reduce_index=0, slave_id=1)
        )
        assert tracker.finished
        assert tracker.metrics[0].finish_time == tracker.sim.now


class TestMidRunFailureBookkeeping:
    def test_fail_node_converts_pending(self, tracker):
        tracker.expect_jobs(1)
        state = tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=0))
        victim = 1
        pending_before = state.pending_node_local_count(victim)
        degraded_before = state.M_d
        tracker.fail_node(victim)
        assert victim in tracker.failed_nodes
        assert state.pending_node_local_count(victim) == 0
        assert state.M_d == degraded_before + pending_before

    def test_fail_node_idempotent(self, tracker):
        tracker.expect_jobs(1)
        tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=0))
        tracker.fail_node(1)
        snapshot = tracker.failed_nodes
        tracker.fail_node(1)
        assert tracker.failed_nodes == snapshot

    def test_fail_node_updates_live_view(self, tracker):
        tracker.expect_jobs(1)
        tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=0))
        tracker.fail_node(2)
        assert 2 not in tracker.scheduler.context.live_nodes

    def test_killed_map_requeues(self, tracker):
        tracker.expect_jobs(1)
        state = tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=0))
        picked = state.pop_local(1)
        assert picked is not None
        block, _ = picked
        launched = state.m
        assignment = MapAssignment(
            job_id=0, block=block, category=MapTaskCategory.NODE_LOCAL, slave_id=1
        )
        tracker.on_task_killed(assignment)
        assert state.m == launched - 1
        assert tracker.metrics[0].killed_attempts == 1

    def test_killed_map_on_dead_home_becomes_degraded(self, tracker):
        tracker.expect_jobs(1)
        state = tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=0))
        picked = state.pop_local(1)
        assert picked is not None
        block, _ = picked
        home = tracker.hdfs.node_of(block)
        tracker.fail_node(home)  # converts the home's *pending* blocks
        degraded_after_failure = state.M_d
        assignment = MapAssignment(
            job_id=0, block=block, category=MapTaskCategory.NODE_LOCAL, slave_id=1
        )
        tracker.on_task_killed(assignment)
        # The killed running task's block is now lost too: one more degraded.
        assert state.M_d == degraded_after_failure + 1

    def test_killed_reduce_requeues_and_resets_shuffle(self, tracker):
        tracker.expect_jobs(1)
        state = tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=2))
        state.completed_map_tasks = 1  # pass slow-start
        index = state.pop_reduce()
        shuffle = tracker.shuffles[0]
        shuffle.deposit(1, 100.0)
        shuffle.take(index)  # the reducer drained it, then dies
        assignment = ReduceAssignment(job_id=0, reduce_index=index, slave_id=3)
        tracker.on_task_killed(assignment)
        assert state.pending_reduce_tasks[0] == index
        assert shuffle.take(index) != {}  # backlog restored

    def test_unrecoverable_mid_run_failure_marks_stripe_unavailable(self, tracker):
        # Losing a whole stripe no longer raises at failure time: detection is
        # deferred to read time (DataUnavailableError or parking), so the
        # master just tracks the failures and the stripe drops below k.
        tracker.expect_jobs(1)
        tracker.submit_job(0, JobConfig(num_blocks=12, num_reduce_tasks=0))
        stripe_nodes = [
            stored.node_id for stored in tracker.hdfs.block_map.stripe_blocks(0)
        ]
        for node in stripe_nodes:
            tracker.fail_node(node)
        assert not tracker.hdfs.block_map.is_decodable(0, tracker.failed_nodes)
