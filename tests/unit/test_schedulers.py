"""Unit tests for the three scheduling algorithms."""

from __future__ import annotations

import math

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.degraded_first import BasicDegradedFirstScheduler, pacing_allows_degraded
from repro.core.enhanced import EnhancedDegradedFirstScheduler
from repro.core.locality_first import LocalityFirstScheduler
from repro.core.scheduler import (
    Scheduler,
    SchedulerContext,
    make_scheduler,
    register_scheduler,
    registered_schedulers,
)
from repro.core.tasks import JobTaskState
from repro.ec.codec import CodeParams
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import MapTaskCategory
from repro.sim.rng import RngStreams
from repro.storage.hdfs import HdfsRaidCluster


def build_state(seed=2, num_blocks=24, failed=frozenset({0}), num_reduce=4):
    topology = ClusterTopology.from_rack_sizes([3, 3], map_slots=2)
    cluster = HdfsRaidCluster(
        topology, CodeParams(4, 2), num_native_blocks=num_blocks,
        placement="declustered", rng=RngStreams(seed),
    )
    view = cluster.failure_view(failed)
    config = JobConfig(num_blocks=num_blocks, num_reduce_tasks=num_reduce)
    state = JobTaskState(0, config, view, cluster.block_map, topology)
    context = SchedulerContext(
        topology=topology,
        live_nodes=frozenset(topology.node_ids()) - failed,
        expected_degraded_read_time=5.0,
        map_time_mean=config.map_time_mean,
        reduce_slowstart=0.05,
    )
    return state, context, cluster


class TestRegistry:
    def test_builtins_present(self):
        names = registered_schedulers()
        assert {"LF", "BDF", "EDF"} <= set(names)

    def test_make_unknown(self):
        _, context, _ = build_state()
        with pytest.raises(ValueError):
            make_scheduler("NOPE", context)

    def test_register_requires_name(self):
        class Anonymous(Scheduler):
            def assign_maps(self, slave_id, free_map_slots, jobs, now):
                return []

        with pytest.raises(ValueError):
            register_scheduler(Anonymous)

    def test_register_conflict(self):
        class Impostor(Scheduler):
            name = "LF"

            def assign_maps(self, slave_id, free_map_slots, jobs, now):
                return []

        with pytest.raises(ValueError):
            register_scheduler(Impostor)


class TestPacingRule:
    def test_no_degraded_tasks(self):
        state, _, _ = build_state(failed=frozenset())
        assert state.M_d == 0
        assert not pacing_allows_degraded(state)

    def test_initially_allowed(self):
        state, _, _ = build_state()
        if state.M_d == 0:
            pytest.skip("no lost natives for this seed")
        assert pacing_allows_degraded(state)  # 0/M >= 0/M_d

    def test_blocks_after_launch_until_ratio_recovers(self):
        state, _, _ = build_state()
        if state.M_d < 2:
            pytest.skip("need at least two degraded tasks")
        state.pop_degraded()
        # Right after the first degraded launch: m=1, m_d=1 -> 1/M < 1/M_d.
        assert not pacing_allows_degraded(state)

    def test_never_deadlocks(self):
        """(M-M_d+m_d)/M >= m_d/M_d always holds once normals are done."""
        state, _, _ = build_state()
        while state.pop_local(1) or state.pop_remote(1):
            pass
        launched = 0
        while state.has_unassigned_degraded():
            assert pacing_allows_degraded(state)
            state.pop_degraded()
            launched += 1
        assert launched == state.M_d


class TestLocalityFirst:
    def test_prefers_local_then_remote_then_degraded(self):
        state, context, cluster = build_state()
        scheduler = LocalityFirstScheduler(context)
        categories = []
        for slave in sorted(context.live_nodes):
            while True:
                maps = scheduler.assign_maps(slave, 1, [state], now=0.0)
                if not maps:
                    break
                categories.append((slave, maps[0].category))
        # All of a slave's node-local tasks come before any degraded task.
        kinds = [category for _, category in categories]
        first_degraded = kinds.index(MapTaskCategory.DEGRADED) if MapTaskCategory.DEGRADED in kinds else len(kinds)
        assert all(
            kind is MapTaskCategory.REMOTE
            for kind in kinds[first_degraded:]
            if kind is not MapTaskCategory.DEGRADED
        )
        assert len(kinds) == state.M

    def test_respects_slot_budget(self):
        state, context, _ = build_state()
        scheduler = LocalityFirstScheduler(context)
        maps = scheduler.assign_maps(1, 3, [state], now=0.0)
        assert len(maps) <= 3

    def test_zero_slots(self):
        state, context, _ = build_state()
        scheduler = LocalityFirstScheduler(context)
        assert scheduler.assign_maps(1, 0, [state], now=0.0) == []


class TestBasicDegradedFirst:
    def test_at_most_one_degraded_per_heartbeat(self):
        state, context, _ = build_state()
        if state.M_d < 2:
            pytest.skip("need at least two degraded tasks")
        scheduler = BasicDegradedFirstScheduler(context)
        maps = scheduler.assign_maps(1, 10, [state], now=0.0)
        degraded = [m for m in maps if m.category is MapTaskCategory.DEGRADED]
        assert len(degraded) <= 1

    def test_first_assignment_is_degraded(self):
        state, context, _ = build_state()
        if state.M_d == 0:
            pytest.skip("no degraded tasks")
        scheduler = BasicDegradedFirstScheduler(context)
        maps = scheduler.assign_maps(1, 2, [state], now=0.0)
        assert maps[0].category is MapTaskCategory.DEGRADED

    def test_spreading_of_degraded_launch_indices(self):
        """Degraded launches are spaced roughly M/M_d apart (Figure 4)."""
        state, context, _ = build_state(num_blocks=24)
        if state.M_d < 2:
            pytest.skip("need several degraded tasks")
        scheduler = BasicDegradedFirstScheduler(context)
        order = []
        live = sorted(context.live_nodes)
        while state.has_unassigned_maps():
            progressed = False
            for slave in live:
                for assignment in scheduler.assign_maps(slave, 1, [state], now=0.0):
                    order.append(assignment.category)
                    progressed = True
            assert progressed, "scheduler stalled with pending tasks"
        indices = [i for i, cat in enumerate(order) if cat is MapTaskCategory.DEGRADED]
        expected_gap = state.M / state.M_d
        gaps = [b - a for a, b in zip(indices, indices[1:])]
        assert all(gap >= expected_gap - 1 for gap in gaps)

    def test_degraded_not_assigned_via_fallback(self):
        """Once pacing blocks, remaining slots take local/remote only."""
        state, context, _ = build_state()
        if state.M_d == 0:
            pytest.skip("no degraded tasks")
        scheduler = BasicDegradedFirstScheduler(context)
        maps = scheduler.assign_maps(1, 6, [state], now=0.0)
        degraded = [m for m in maps if m.category is MapTaskCategory.DEGRADED]
        assert len(degraded) <= 1


class TestEnhanced:
    def test_rack_guard_blocks_back_to_back(self):
        state, context, _ = build_state()
        assert state.M_d >= 2
        scheduler = EnhancedDegradedFirstScheduler(context)
        # The first rack-0 node the slave guard admits: only the rack guard
        # may then keep a degraded task off it.
        node = next(
            n for n in sorted(context.live_nodes)
            if context.topology.rack_of(n) == 0 and scheduler.assign_to_slave(state, n)
        )
        first = scheduler.assign_maps(node, 1, [state], now=0.0)
        assert [m.category for m in first] == [MapTaskCategory.DEGRADED]
        # Advance pacing so only the rack guard can block the next launch.
        state.launched_map_tasks += state.M
        assert scheduler.assign_to_slave(state, node)
        assert not scheduler.assign_to_rack(0, now=0.1)
        second = scheduler.assign_maps(node, 1, [state], now=0.1)
        degraded = [m for m in second if m.category is MapTaskCategory.DEGRADED]
        assert not degraded  # same rack, within the threshold window
        assert second  # the slot still gets a non-degraded task

    def test_rack_guard_releases_after_threshold(self):
        state, context, _ = build_state()
        if state.M_d < 2:
            pytest.skip("need two degraded tasks")
        scheduler = EnhancedDegradedFirstScheduler(context)
        scheduler._on_degraded_assigned(slave_id=1, now=0.0)
        assert not scheduler.assign_to_rack(0, now=1.0)
        assert scheduler.assign_to_rack(0, now=context.expected_degraded_read_time + 0.1)

    def test_slave_guard_blocks_backlogged_slave(self):
        state, context, _ = build_state()
        scheduler = EnhancedDegradedFirstScheduler(context)
        backlogs = {
            slave: state.pending_node_local_count(slave)
            for slave in context.live_nodes
        }
        heavy = max(backlogs, key=backlogs.get)
        light = min(backlogs, key=backlogs.get)
        if backlogs[heavy] == backlogs[light]:
            pytest.skip("perfectly balanced placement; no heavy slave")
        assert scheduler.assign_to_slave(state, light)
        assert not scheduler.assign_to_slave(state, heavy)

    def test_slave_guard_counts_speed(self):
        """A slow empty node must not absorb a degraded task (extreme case)."""
        topology = ClusterTopology.from_rack_sizes(
            [3, 3], map_slots=2, speed_factors=[0.1, 1, 1, 1, 1, 1]
        )
        cluster = HdfsRaidCluster(
            topology, CodeParams(4, 2), num_native_blocks=24,
            placement="declustered", rng=RngStreams(2),
        )
        view = cluster.failure_view(frozenset({1}))
        config = JobConfig(num_blocks=24)
        state = JobTaskState(0, config, view, cluster.block_map, topology)
        context = SchedulerContext(
            topology=topology,
            live_nodes=frozenset(topology.node_ids()) - {1},
            expected_degraded_read_time=5.0,
            map_time_mean=config.map_time_mean,
            reduce_slowstart=0.05,
        )
        scheduler = EnhancedDegradedFirstScheduler(context)
        # Drain node 0's backlog so only its slowness can block it.
        while state.pop_local(0):
            pass
        assert state.pending_node_local_count(0) == 0
        assert not scheduler.assign_to_slave(state, 0)

    def test_time_since_degraded_infinite_initially(self):
        _, context, _ = build_state()
        scheduler = EnhancedDegradedFirstScheduler(context)
        assert math.isinf(scheduler._time_since_degraded(0, now=100.0))
        assert math.isinf(scheduler._mean_time_since_degraded(now=100.0))


class TestReduceAssignment:
    def test_reduce_waits_for_slowstart(self):
        state, context, _ = build_state()
        scheduler = LocalityFirstScheduler(context)
        _, reduces = scheduler.assign(1, 0, 1, [state], now=0.0)
        assert reduces == []
        state.completed_map_tasks = state.M  # force past slow-start
        _, reduces = scheduler.assign(1, 0, 1, [state], now=0.0)
        assert len(reduces) == 1
        assert reduces[0].reduce_index == 0
