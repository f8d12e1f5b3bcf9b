"""Universal policy-conformance harness: every registered scheduler.

The policy framework accepts third-party schedulers via
:func:`repro.core.scheduler.register_scheduler`; this suite is the
contract they must meet.  Every test parameterizes over the *live*
registry (:func:`registered_schedulers`), so a newly registered policy is
conformance-checked the moment it exists -- nothing here names a built-in
policy.  The one policy defined here implements only the per-job pick, and
is checked against the same contract.

The contract:

1. **Slot discipline** -- a heartbeat for ``n`` free map slots yields at
   most ``n`` assignments, every one addressed to the heartbeating slave
   (the master only heartbeats live nodes, so this is also the
   only-live-nodes guarantee).
2. **No double-assignment** -- across a whole drain, every map task is
   assigned exactly once.
3. **No degraded starvation** -- on a bounded scenario with lost blocks,
   every degraded task is eventually assigned and the drain terminates.
4. **Determinism** -- the same scenario and seed produce an identical
   ``sched.decision`` trace, run to run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.core.scheduler import (
    Scheduler,
    SchedulerContext,
    make_scheduler,
    register_scheduler,
    registered_schedulers,
)
from repro.core.tasks import JobTaskState
from repro.ec.codec import CodeParams
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.job import MapTaskCategory
from repro.sim.rng import RngStreams
from repro.storage.hdfs import HdfsRaidCluster

ALL_POLICIES = tuple(registered_schedulers())


def build(seed, num_blocks, fail_node=0):
    """One bounded scenario: 2 racks x 3 nodes, (4,2) code, one failure."""
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


def drain(scheduler, state, context, heartbeat_slots, per_heartbeat=None):
    """Heartbeat live nodes round-robin until every map is assigned.

    ``per_heartbeat(slave, assignments)`` is called after each heartbeat
    for per-call checks.  A scheduler that stops making progress while
    tasks are pending fails the starvation bound.
    """
    stream = []
    live = sorted(context.live_nodes)
    now = 0.0
    stalls = 0
    while state.has_unassigned_maps():
        progressed = False
        for slave in live:
            assignments = scheduler.assign_maps(slave, heartbeat_slots, [state], now)
            if per_heartbeat is not None:
                per_heartbeat(slave, assignments)
            stream.extend(assignments)
            progressed = progressed or bool(assignments)
        now += 3.0
        if not progressed:
            stalls += 1
            assert stalls < 500, (
                f"{scheduler.name} stalled with "
                f"{state.M - state.m} map task(s) pending"
            )
        else:
            stalls = 0
    return stream


@pytest.mark.parametrize("name", ALL_POLICIES)
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_blocks=st.integers(min_value=8, max_value=32),
    slots=st.integers(min_value=1, max_value=3),
)
def test_slot_discipline(name, seed, num_blocks, slots):
    """<= requested slots per heartbeat, all addressed to the caller."""
    state, context, _ = build(seed, num_blocks)
    scheduler = make_scheduler(name, context)

    def check(slave, assignments):
        assert len(assignments) <= slots, (
            f"{name} over-assigned: {len(assignments)} for {slots} slot(s)"
        )
        for assignment in assignments:
            assert assignment.slave_id == slave, (
                f"{name} assigned to node {assignment.slave_id} "
                f"on node {slave}'s heartbeat"
            )
            assert slave in context.live_nodes

    drain(scheduler, state, context, slots, per_heartbeat=check)


@pytest.mark.parametrize("name", ALL_POLICIES)
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_blocks=st.integers(min_value=8, max_value=32),
    slots=st.integers(min_value=1, max_value=3),
)
def test_every_task_assigned_exactly_once(name, seed, num_blocks, slots):
    state, context, _ = build(seed, num_blocks)
    scheduler = make_scheduler(name, context)
    stream = drain(scheduler, state, context, slots)
    blocks = [assignment.block for assignment in stream]
    assert len(blocks) == num_blocks, f"{name} assigned {len(blocks)}/{num_blocks}"
    assert len(set(blocks)) == len(blocks), f"{name} double-assigned a task"


@pytest.mark.parametrize("name", ALL_POLICIES)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_no_degraded_starvation(name, seed):
    """Every lost block's degraded task launches; the drain terminates."""
    state, context, cluster = build(seed, 24)
    lost = set(cluster.block_map.lost_native_blocks({0}))
    scheduler = make_scheduler(name, context)
    stream = drain(scheduler, state, context, 2)  # asserts termination
    degraded = {
        assignment.block
        for assignment in stream
        if assignment.category is MapTaskCategory.DEGRADED
    }
    assert degraded == lost, (
        f"{name} starved degraded task(s): {sorted(lost - degraded)}"
    )


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_decision_trace_is_deterministic(name):
    """Same scenario + seed => bit-identical ``sched.decision`` trace."""
    from tests.helpers import traced_decisions

    config = SimulationConfig(
        scheduler=name, seed=3, num_nodes=6, num_racks=2,
        code=CodeParams(4, 2),
        jobs=(JobConfig(num_blocks=16, num_reduce_tasks=2),),
    )
    first = traced_decisions(config)
    second = traced_decisions(config)
    assert first, f"{name} emitted no decisions (tracing broken?)"
    assert first == second


class RemoteFirstScheduler(Scheduler):
    """Remote tasks first, degraded last: a policy that is only its pick."""

    name = "REMOTE-FIRST"

    def pick_map(self, job, slave_id, now):
        assignment = (
            self._try_remote(job, slave_id)
            or self._try_local(job, slave_id)
            or self._try_degraded(job, slave_id)
        )
        return assignment, "remote-first", None


@pytest.mark.parametrize(
    "check",
    [
        test_slot_discipline,
        test_every_task_assigned_exactly_once,
        test_no_degraded_starvation,
        test_decision_trace_is_deterministic,
    ],
    ids=lambda check: check.__name__,
)
def test_policy_defining_only_the_pick_meets_the_contract(check):
    """The shared fill loop is all a policy needs beyond its per-job pick."""
    register_scheduler(RemoteFirstScheduler)
    check(name=RemoteFirstScheduler.name)
