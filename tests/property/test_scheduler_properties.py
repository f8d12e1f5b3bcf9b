"""Property-based tests of scheduler invariants.

These drive the schedulers through synthetic heartbeat sequences (no
simulator) and assert structural invariants of the assignment stream.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.core.scheduler import SchedulerContext, make_scheduler
from repro.core.tasks import JobTaskState
from repro.ec.codec import CodeParams
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import MapTaskCategory
from repro.sim.rng import RngStreams
from repro.storage.hdfs import HdfsRaidCluster


def build(seed, num_blocks, fail_node=0):
    topology = ClusterTopology.from_rack_sizes([3, 3], map_slots=2)
    cluster = HdfsRaidCluster(
        topology, CodeParams(4, 2), num_native_blocks=num_blocks,
        placement="random", rng=RngStreams(seed),
    )
    failed = frozenset({fail_node})
    view = cluster.failure_view(failed)
    config = JobConfig(num_blocks=num_blocks, num_reduce_tasks=2)
    state = JobTaskState(0, config, view, cluster.block_map, topology)
    context = SchedulerContext(
        topology=topology,
        live_nodes=frozenset(topology.node_ids()) - failed,
        expected_degraded_read_time=4.0,
        map_time_mean=config.map_time_mean,
        reduce_slowstart=0.05,
    )
    return state, context, cluster


def drain(scheduler, state, context, heartbeat_slots):
    """Feed heartbeats until all maps are assigned; return the stream."""
    stream = []
    live = sorted(context.live_nodes)
    now = 0.0
    stalls = 0
    while state.has_unassigned_maps():
        progressed = False
        for slave in live:
            for assignment in scheduler.assign_maps(slave, heartbeat_slots, [state], now):
                stream.append(assignment)
                progressed = True
        now += 3.0
        if not progressed:
            stalls += 1
            assert stalls < 500, "scheduler stalled with pending tasks"
        else:
            stalls = 0
    return stream


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(["LF", "BDF", "EDF"]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=8, max_value=40),
    st.integers(min_value=1, max_value=3),
)
def test_every_task_assigned_exactly_once(name, seed, num_blocks, slots):
    state, context, _ = build(seed, num_blocks)
    scheduler = make_scheduler(name, context)
    stream = drain(scheduler, state, context, slots)
    blocks = [assignment.block for assignment in stream]
    assert len(blocks) == num_blocks
    assert len(set(blocks)) == num_blocks


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(["LF", "BDF", "EDF"]),
    st.integers(min_value=0, max_value=2**16),
)
def test_categories_are_consistent_with_storage(name, seed):
    """Every assignment's category matches block location vs slave."""
    state, context, cluster = build(seed, 24)
    scheduler = make_scheduler(name, context)
    stream = drain(scheduler, state, context, 2)
    lost = set(cluster.block_map.lost_native_blocks({0}))
    for assignment in stream:
        home = cluster.node_of(assignment.block)
        topology = context.topology
        if assignment.block in lost:
            assert assignment.category is MapTaskCategory.DEGRADED
        elif home == assignment.slave_id:
            assert assignment.category is MapTaskCategory.NODE_LOCAL
        elif topology.rack_of(home) == topology.rack_of(assignment.slave_id):
            assert assignment.category is MapTaskCategory.RACK_LOCAL
        else:
            assert assignment.category is MapTaskCategory.REMOTE


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(["BDF", "EDF"]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=3),
)
def test_degraded_first_pacing_bound(name, seed, slots):
    """At every prefix of the launch stream, m_d/M_d <= m/M + 1/M_d.

    This is the paper's even-spreading guarantee: degraded launches never
    run ahead of overall progress by more than the one launch the pacing
    rule just admitted.
    """
    state, context, _ = build(seed, 30)
    total_maps = state.M
    total_degraded = state.M_d
    if total_degraded == 0:
        return
    scheduler = make_scheduler(name, context)
    stream = drain(scheduler, state, context, slots)
    launched = 0
    launched_degraded = 0
    for assignment in stream:
        launched += 1
        if assignment.category is MapTaskCategory.DEGRADED:
            launched_degraded += 1
            # The pacing rule admitted this launch, so before it:
            # (m_d - 1)/M_d <= (m - 1)/M.
            assert (launched_degraded - 1) * total_maps <= (launched - 1) * total_degraded


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**16))
def test_lf_never_schedules_degraded_before_normals_exhausted_per_heartbeat(seed):
    """Within one LF heartbeat, degraded tasks only fill leftover slots."""
    state, context, _ = build(seed, 24)
    scheduler = make_scheduler("LF", context)
    live = sorted(context.live_nodes)
    now = 0.0
    while state.has_unassigned_maps():
        for slave in live:
            assignments = scheduler.assign_maps(slave, 2, [state], now)
            seen_degraded = False
            for assignment in assignments:
                if assignment.category is MapTaskCategory.DEGRADED:
                    seen_degraded = True
                elif seen_degraded:
                    raise AssertionError("normal task after degraded in one heartbeat")
        now += 3.0
