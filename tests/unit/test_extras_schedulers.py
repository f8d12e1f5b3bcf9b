"""Unit tests for the ablation scheduler variants."""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.extras import (
    ABLATION_SCHEDULERS,
    EagerDegradedScheduler,
    RackGuardOnlyScheduler,
    SlaveGuardOnlyScheduler,
    UncappedDegradedFirstScheduler,
)
from repro.core.scheduler import SchedulerContext, make_scheduler
from repro.core.tasks import JobTaskState
from repro.ec.codec import CodeParams
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import MapTaskCategory
from repro.sim.rng import RngStreams
from repro.storage.hdfs import HdfsRaidCluster


def build_state(seed=3, num_blocks=24):
    topology = ClusterTopology.from_rack_sizes([3, 3], map_slots=2)
    cluster = HdfsRaidCluster(
        topology, CodeParams(4, 2), num_native_blocks=num_blocks,
        placement="declustered", rng=RngStreams(seed),
    )
    failed = frozenset({0})
    view = cluster.failure_view(failed)
    config = JobConfig(num_blocks=num_blocks)
    state = JobTaskState(0, config, view, cluster.block_map, topology)
    context = SchedulerContext(
        topology=topology,
        live_nodes=frozenset(topology.node_ids()) - failed,
        expected_degraded_read_time=5.0,
        map_time_mean=config.map_time_mean,
        reduce_slowstart=0.05,
    )
    return state, context


class TestRegistration:
    def test_all_registered(self):
        _, context = build_state()
        for scheduler_cls in ABLATION_SCHEDULERS:
            instance = make_scheduler(scheduler_cls.name, context)
            assert isinstance(instance, scheduler_cls)


class TestEager:
    def test_all_degraded_assigned_first(self):
        state, context = build_state()
        if state.M_d < 2:
            pytest.skip("need multiple degraded tasks")
        scheduler = EagerDegradedScheduler(context)
        maps = scheduler.assign_maps(1, state.M_d + 2, [state], now=0.0)
        leading = [m.category for m in maps[: state.M_d]]
        assert all(cat is MapTaskCategory.DEGRADED for cat in leading)


class TestUncapped:
    def test_can_assign_multiple_degraded_in_one_heartbeat(self):
        state, context = build_state()
        if state.M_d < 2:
            pytest.skip("need multiple degraded tasks")
        scheduler = UncappedDegradedFirstScheduler(context)
        # Pretend the job is nearly done so pacing admits several launches.
        state.launched_map_tasks = state.M - state.M_d
        maps = scheduler.assign_maps(1, state.M_d, [state], now=0.0)
        degraded = [m for m in maps if m.category is MapTaskCategory.DEGRADED]
        assert len(degraded) >= 2

    def test_still_respects_pacing_initially(self):
        state, context = build_state()
        if state.M_d < 2:
            pytest.skip("need multiple degraded tasks")
        scheduler = UncappedDegradedFirstScheduler(context)
        maps = scheduler.assign_maps(1, 4, [state], now=0.0)
        degraded = [m for m in maps if m.category is MapTaskCategory.DEGRADED]
        # After the first degraded launch m/M < m_d/M_d blocks the second.
        assert len(degraded) == 1


class TestDelayScheduler:
    def _state_without_local_work(self, slave_id=1):
        state, context = build_state()
        # Drain everything local to the slave's rack so only remote remains.
        while state.pop_local(slave_id):
            pass
        return state, context

    def test_waits_before_going_remote(self):
        from repro.core.extras import DelayScheduler

        state, context = self._state_without_local_work()
        scheduler = DelayScheduler(context)
        first = scheduler.assign_maps(1, 1, [state], now=0.0)
        assert first == []  # skipped: delay clock starts
        still_waiting = scheduler.assign_maps(1, 1, [state], now=3.0)
        assert still_waiting == []
        expired = scheduler.assign_maps(1, 1, [state], now=DelayScheduler.max_delay)
        assert len(expired) == 1
        assert expired[0].category in (
            MapTaskCategory.REMOTE,
            MapTaskCategory.DEGRADED,
        )

    def test_local_assignment_resets_delay(self):
        from repro.core.extras import DelayScheduler

        state, context = build_state()
        scheduler = DelayScheduler(context)
        maps = scheduler.assign_maps(1, 1, [state], now=0.0)
        if not maps or maps[0].category not in (
            MapTaskCategory.NODE_LOCAL, MapTaskCategory.RACK_LOCAL
        ):
            pytest.skip("slave 1 had no local work for this seed")
        assert state.job_id not in scheduler._first_skip_at


class TestGuardOnlyVariants:
    def test_slave_only_ignores_racks(self):
        _, context = build_state()
        scheduler = SlaveGuardOnlyScheduler(context)
        scheduler._on_degraded_assigned(slave_id=1, now=0.0)
        assert scheduler.assign_to_rack(0, now=0.01)  # rack guard disabled

    def test_rack_only_ignores_slaves(self):
        state, context = build_state()
        scheduler = RackGuardOnlyScheduler(context)
        # Even the most backlogged slave is admitted.
        heavy = max(
            context.live_nodes, key=lambda n: state.pending_node_local_count(n)
        )
        assert scheduler.assign_to_slave(state, heavy)

    def test_rack_only_keeps_rack_guard(self):
        _, context = build_state()
        scheduler = RackGuardOnlyScheduler(context)
        scheduler._on_degraded_assigned(slave_id=1, now=0.0)
        assert not scheduler.assign_to_rack(0, now=0.01)
