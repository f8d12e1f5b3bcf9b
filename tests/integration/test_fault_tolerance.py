"""Fault-tolerance acceptance tests: scripted churn, retries, speculation.

These exercise the full stack -- scripted :class:`FailureSchedule` replay,
heartbeat-expiry detection, retry budgets with :class:`JobFailedError`,
blacklisting, node recovery and speculative execution -- under real
simulation runs.
"""

from __future__ import annotations

import pytest

from repro.cluster.failures import FailurePattern
from repro.cluster.network import MB
from repro.ec.codec import CodeParams
from repro.faults import (
    FailEvent,
    FailureSchedule,
    JobFailedError,
    RecoverEvent,
    SlowdownEvent,
)
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.job import TaskKind
from repro.mapreduce.simulation import run_simulation


def config(**overrides) -> SimulationConfig:
    defaults = dict(
        num_nodes=8,
        num_racks=2,
        map_slots=2,
        code=CodeParams(4, 2),
        block_size=32 * MB,
        jobs=(JobConfig(num_blocks=64, num_reduce_tasks=4),),
        scheduler="EDF",
        seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


#: The acceptance trace: a crash the master must detect, a slowdown, a
#: recovery that makes the dead node's blocks readable again.
ACCEPTANCE_SCHEDULE = FailureSchedule(
    (
        FailEvent(at=30.0, node=2),
        SlowdownEvent(at=40.0, node=5, factor=3.0, duration=60.0),
        RecoverEvent(at=120.0, node=2),
    )
)


class TestScriptedTrace:
    @pytest.mark.parametrize("scheduler", ["LF", "BDF", "EDF"])
    def test_trace_runs_under_every_scheduler(self, scheduler):
        cfg = config(
            scheduler=scheduler,
            failure_schedule=ACCEPTANCE_SCHEDULE,
            heartbeat_expiry=15.0,
            speculative=True,
        )
        result = run_simulation(cfg)
        job = result.job(0)
        maps = [t for t in job.tasks if t.kind is TaskKind.MAP]
        reduces = [t for t in job.tasks if t.kind is TaskKind.REDUCE]
        assert len(maps) == 64
        assert len(reduces) == 4
        # Detection: declared dead only after heartbeat expiry, not instantly.
        (detection,) = result.faults.detections
        assert detection.node == 2
        assert detection.failed_at == pytest.approx(30.0)
        assert cfg.heartbeat_expiry <= detection.latency
        assert detection.latency <= cfg.heartbeat_expiry + 2 * cfg.heartbeat_interval
        # The crash killed whatever the node was running; attempts were retried.
        assert job.killed_attempts >= 1
        assert job.max_task_attempt >= 2
        # Recovery was observed.
        (recovery,) = result.faults.recoveries
        assert recovery.node == 2
        assert recovery.at == pytest.approx(120.0)
        # The slowdown was recorded.
        (slowdown,) = result.faults.slowdowns
        assert slowdown.node == 5 and slowdown.factor == pytest.approx(3.0)
        # The recovered node ends the trial alive.
        assert result.failed_nodes == frozenset()

    @pytest.mark.parametrize("scheduler", ["LF", "BDF", "EDF"])
    def test_trace_is_deterministic(self, scheduler):
        cfg = config(
            scheduler=scheduler,
            failure_schedule=ACCEPTANCE_SCHEDULE,
            heartbeat_expiry=15.0,
            speculative=True,
        )
        first = run_simulation(cfg)
        second = run_simulation(cfg)
        assert first.job(0).runtime == pytest.approx(second.job(0).runtime)
        assert first.faults == second.faults
        assert first.job(0).killed_attempts == second.job(0).killed_attempts
        assert first.job(0).speculative_killed == second.job(0).speculative_killed

    def test_t0_schedule_equals_static_failure(self):
        """A t=0 fail event is the paper's down-before-start setting."""
        static = run_simulation(config())
        (victim,) = static.failed_nodes
        scripted = run_simulation(
            config(
                failure=FailurePattern.NONE,
                failure_schedule=FailureSchedule((FailEvent(at=0.0, node=victim),)),
            )
        )
        assert scripted.failed_nodes == static.failed_nodes
        assert scripted.job(0).runtime == pytest.approx(static.job(0).runtime)
        assert scripted.faults.detections == []  # known at start, nothing detected


class TestRetryBudget:
    def test_exhaustion_raises_job_failed_error(self):
        """max_attempts=1 plus a mid-run strike fails cleanly, never hangs."""
        cfg = config(failure_time=50.0, max_attempts=1)
        with pytest.raises(JobFailedError) as excinfo:
            run_simulation(cfg)
        result = excinfo.value.result
        assert result is not None
        metrics = result.job(0)
        assert metrics.failed
        assert "max_attempts=1" in metrics.failure_reason
        assert metrics.killed_attempts >= 1

    def test_default_budget_survives_the_same_strike(self):
        result = run_simulation(config(failure_time=50.0))
        assert not result.job(0).failed


class TestBlacklisting:
    def test_flappy_node_gets_blacklisted(self):
        schedule = FailureSchedule(
            (
                FailEvent(at=20.0, node=1),
                RecoverEvent(at=35.0, node=1),
                FailEvent(at=50.0, node=1),
                RecoverEvent(at=65.0, node=1),
                FailEvent(at=80.0, node=1),
                RecoverEvent(at=95.0, node=1),
            )
        )
        result = run_simulation(
            config(
                jobs=(JobConfig(num_blocks=96, num_reduce_tasks=4),),
                failure_schedule=schedule,
                heartbeat_expiry=5.0,
                blacklist_threshold=3,
            )
        )
        assert {record.node for record in result.faults.blacklistings} == {1}
        assert len(result.faults.detections) == 3
        # The job still completes: the blacklisted node's work moved elsewhere.
        job = result.job(0)
        assert sum(1 for t in job.tasks if t.kind is TaskKind.MAP) == 96
        # After the final recovery nothing ran on the blacklisted node.
        blacklisted_at = result.faults.blacklistings[0].at
        for task in job.tasks:
            if task.slave_id == 1:
                assert task.launch_time < blacklisted_at


class TestRecovery:
    def test_recovery_reclaims_degraded_work(self):
        jobs = (JobConfig(num_blocks=96, num_reduce_tasks=4),)
        crash_only = FailureSchedule((FailEvent(at=30.0, node=2),))
        with_recovery = FailureSchedule(
            (FailEvent(at=30.0, node=2), RecoverEvent(at=60.0, node=2))
        )
        base = dict(jobs=jobs, heartbeat_expiry=10.0)
        crashed = run_simulation(config(failure_schedule=crash_only, **base))
        recovered = run_simulation(config(failure_schedule=with_recovery, **base))
        (record,) = recovered.faults.recoveries
        assert record.reclaimed_tasks > 0
        assert (
            recovered.job(0).degraded_task_count < crashed.job(0).degraded_task_count
        )
        # The recovered node picks work back up after rejoining.
        late_tasks = [
            t for t in recovered.job(0).tasks
            if t.slave_id == 2 and t.launch_time >= 60.0
        ]
        assert late_tasks

    def test_recovery_before_detection_requeues_silently(self):
        """Crash and rejoin inside the expiry window: no detection, no loss."""
        schedule = FailureSchedule(
            (FailEvent(at=30.0, node=2), RecoverEvent(at=40.0, node=2))
        )
        result = run_simulation(
            config(failure_schedule=schedule, heartbeat_expiry=60.0)
        )
        assert result.faults.detections == []
        job = result.job(0)
        assert sum(1 for t in job.tasks if t.kind is TaskKind.MAP) == 64
        # The crash still killed and requeued the node's running attempts.
        assert job.killed_attempts >= 1


class TestSpeculativeExecution:
    def config_with_straggler(self, **overrides) -> SimulationConfig:
        schedule = FailureSchedule(
            (SlowdownEvent(at=5.0, node=3, factor=6.0, duration=400.0),)
        )
        settings = dict(
            failure=FailurePattern.NONE,
            failure_schedule=schedule,
            speculative=True,
        )
        settings.update(overrides)
        return config(**settings)

    @pytest.mark.parametrize("scheduler", ["LF", "BDF", "EDF"])
    def test_backups_rescue_stragglers(self, scheduler):
        result = run_simulation(self.config_with_straggler(scheduler=scheduler))
        job = result.job(0)
        assert job.speculative_launched > 0
        # Each map completes exactly once: losers are killed, not recorded.
        maps = [t for t in job.tasks if t.kind is TaskKind.MAP]
        assert len(maps) == 64
        assert job.speculative_killed <= job.speculative_launched

    def test_speculation_beats_waiting(self):
        slow = run_simulation(
            self.config_with_straggler(speculative=False)
        ).job(0).runtime
        rescued = run_simulation(self.config_with_straggler()).job(0).runtime
        assert rescued < slow

    def test_speculation_is_deterministic(self):
        cfg = self.config_with_straggler()
        first = run_simulation(cfg)
        second = run_simulation(cfg)
        assert first.job(0).runtime == pytest.approx(second.job(0).runtime)
        assert first.job(0).speculative_launched == second.job(0).speculative_launched
        assert first.job(0).speculative_killed == second.job(0).speculative_killed
