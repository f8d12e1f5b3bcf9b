"""Unit tests for the scheduler context view and the policy registry.

Includes the regression test promised by the ``SchedulerContext``
docstring: ``expected_degraded_read_time`` is computed once from static
cluster/code properties and must stay fixed across mid-trial failures and
recoveries, while ``live_nodes`` tracks membership in place.
"""

from __future__ import annotations

import pytest

from repro.cluster.failures import FailurePattern
from repro.cluster.topology import ClusterTopology
from repro.core.locality_first import LocalityFirstScheduler
from repro.core.scheduler import (
    POLICIES,
    PolicyRegistry,
    Scheduler,
    SchedulerContext,
    register_scheduler,
)
from repro.core.tasks import JobTaskState
from repro.ec.codec import CodeParams
from repro.faults.schedule import FailEvent, FailureSchedule, RecoverEvent
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.simulation import expected_degraded_read_time, run_simulation
from repro.sim.rng import RngStreams
from repro.storage.hdfs import HdfsRaidCluster


def build_context(num_blocks=24, fail_node=0, speed_factors=None, map_slots=2):
    topology = ClusterTopology.from_rack_sizes(
        [3, 3], map_slots=map_slots, speed_factors=speed_factors
    )
    cluster = HdfsRaidCluster(
        topology, CodeParams(4, 2), num_native_blocks=num_blocks,
        placement="random", rng=RngStreams(11),
    )
    failed = frozenset({fail_node})
    config = JobConfig(num_blocks=num_blocks, num_reduce_tasks=2)
    state = JobTaskState(
        0, config, cluster.failure_view(failed), cluster.block_map, topology
    )
    context = SchedulerContext(
        topology=topology,
        live_nodes=frozenset(topology.node_ids()) - failed,
        expected_degraded_read_time=4.0,
        map_time_mean=config.map_time_mean,
        reduce_slowstart=0.05,
    )
    return context, state, cluster


class TestExpectedDegradedReadTime:
    def test_matches_the_analysis_formula(self):
        config = SimulationConfig()
        R, k = config.num_racks, config.code.k  # noqa: N806 - paper notation
        expected = (R - 1) * k * config.block_size / (R * config.rack_bandwidth)
        assert expected_degraded_read_time(config) == pytest.approx(expected)

    def test_scales_with_static_terms_only(self):
        base = SimulationConfig()
        doubled_block = SimulationConfig(block_size=base.block_size * 2)
        assert expected_degraded_read_time(doubled_block) == pytest.approx(
            2 * expected_degraded_read_time(base)
        )
        # More nodes per rack, same racks/code/bandwidth: identical estimate.
        more_nodes = SimulationConfig(num_nodes=80)
        assert expected_degraded_read_time(more_nodes) == pytest.approx(
            expected_degraded_read_time(base)
        )


class _ContextProbeScheduler(LocalityFirstScheduler):
    """LF that snapshots the context view at every heartbeat."""

    name = "CTX-PROBE"

    #: ``(now, expected_degraded_read_time, frozenset(live_nodes))`` samples.
    samples: list[tuple[float, float, frozenset[int]]] = []

    def assign_maps(self, slave_id, free_map_slots, jobs, now):
        type(self).samples.append(
            (
                now,
                self.context.expected_degraded_read_time,
                frozenset(self.context.live_nodes),
            )
        )
        return super().assign_maps(slave_id, free_map_slots, jobs, now)


class TestContextStalenessRegression:
    """The docstring's contract, pinned end-to-end through a real trial."""

    def test_edrt_fixed_while_live_nodes_track_churn(self):
        register_scheduler(_ContextProbeScheduler)
        _ContextProbeScheduler.samples = []
        config = SimulationConfig(
            scheduler="CTX-PROBE", seed=2, num_nodes=6, num_racks=2,
            map_slots=2, code=CodeParams(4, 2),
            jobs=(JobConfig(num_blocks=60, num_reduce_tasks=2),),
            failure=FailurePattern.NONE,
            failure_schedule=FailureSchedule(
                (FailEvent(at=5.0, node=1), RecoverEvent(at=60.0, node=1))
            ),
        )
        run_simulation(config)
        samples = _ContextProbeScheduler.samples
        assert samples, "the probe scheduler never ran"

        # The threshold is a pure function of static config terms...
        values = {edrt for _, edrt, _ in samples}
        assert values == {expected_degraded_read_time(config)}

        # ...while the live-node view mutates in place under churn: node 1
        # leaves after its heartbeat expires and rejoins on recovery.
        down = [now for now, _, live in samples if 1 not in live]
        assert down, "node 1 never left the live view"
        rejoined = [
            now for now, _, live in samples if 1 in live and now > 60.0
        ]
        assert rejoined, "node 1 never rejoined the live view"
        assert min(down) < min(rejoined)


class TestContextHelpers:
    def test_speed_and_slots_lookups(self):
        speeds = (1.0, 0.5, 2.0, 1.0, 1.0, 1.0)
        context, _, _ = build_context(speed_factors=speeds, map_slots=3)
        assert context.speed_factor(1) == 0.5
        assert context.speed_factor(2) == 2.0
        assert context.map_slots_of(0) == 3

    def test_mean_speed_factor_over_live_nodes_only(self):
        speeds = (4.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        context, _, _ = build_context(fail_node=0, speed_factors=speeds)
        # Node 0 (the fast one) is failed, so the mean ignores it.
        assert context.mean_speed_factor() == pytest.approx(1.0)
        empty = SchedulerContext(
            topology=context.topology, live_nodes=frozenset(),
            expected_degraded_read_time=1.0, map_time_mean=1.0,
            reduce_slowstart=0.05,
        )
        assert empty.mean_speed_factor() == 1.0

    def test_degraded_census_matches_job_state(self):
        _, state, cluster = build_context()
        lost = set(cluster.block_map.lost_native_blocks({0}))
        assert state.pending_degraded_count() == len(lost)
        state.pop_degraded()
        assert state.pending_degraded_count() == len(lost) - 1

    def test_helpers_do_not_mutate_job_state(self):
        context, state, _ = build_context()
        before = (state.m, state.M, state.m_d, state.M_d)
        for node_id in context.topology.node_ids():
            state.pending_node_local_count(node_id)
        state.pending_degraded_count()
        context.mean_speed_factor()
        assert (state.m, state.M, state.m_d, state.M_d) == before


class TestPolicyRegistry:
    def test_builtins_are_registered(self):
        names = POLICIES.names()
        for name in ("LF", "BDF", "EDF", "RANDOM", "FIFO", "STEAL",
                     "CPATH", "CLONE", "HETERO"):
            assert name in names
        assert names == sorted(names)

    def test_resolve_is_case_insensitive(self):
        assert POLICIES.resolve("EDF") == "EDF"
        assert POLICIES.resolve("edf") == "EDF"
        assert POLICIES.resolve("Steal") == "STEAL"

    def test_resolve_unknown_lists_alternatives(self):
        with pytest.raises(ValueError, match="NOT-A-POLICY.*choose from"):
            POLICIES.resolve("NOT-A-POLICY")

    def test_get_is_exact_match(self):
        assert POLICIES.get("LF") is LocalityFirstScheduler
        with pytest.raises(ValueError):
            POLICIES.get("lf")

    def test_describe_and_catalog(self):
        assert POLICIES.describe("LF")
        catalog = dict(POLICIES.catalog())
        assert set(catalog) == set(POLICIES.names())
        assert all(isinstance(summary, str) for summary in catalog.values())

    def test_register_rejects_missing_name(self):
        registry = PolicyRegistry()

        class Nameless(LocalityFirstScheduler):
            name = Scheduler.name

        with pytest.raises(ValueError, match="distinct"):
            registry.register(Nameless)

    def test_register_rejects_collision_with_different_class(self):
        registry = PolicyRegistry()

        class Impostor(LocalityFirstScheduler):
            name = "LF"

        with pytest.raises(ValueError, match="already taken"):
            registry.register(Impostor)

    def test_reregistering_the_same_class_is_a_noop(self):
        registry = PolicyRegistry()
        registry.register(_ContextProbeScheduler)
        registry.register(_ContextProbeScheduler)
        assert registry.get("CTX-PROBE") is _ContextProbeScheduler

    def test_create_instantiates_with_context(self):
        context, _, _ = build_context()
        scheduler = POLICIES.create("EDF", context)
        assert scheduler.name == "EDF"
        assert scheduler.context is context
