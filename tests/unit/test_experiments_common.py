"""Unit tests for the shared experiment plumbing."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster.network import MB
from repro.ec.codec import CodeParams
from repro.experiments.common import (
    ExperimentTable,
    NormalizationError,
    default_seeds,
    failure_and_normal_pairs,
    max_workers,
    normalized_runtimes,
    run_grouped,
    run_many,
)
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.metrics import JobMetrics


def tiny_config() -> SimulationConfig:
    return SimulationConfig(
        num_nodes=6,
        num_racks=2,
        map_slots=2,
        code=CodeParams(4, 2),
        block_size=16 * MB,
        jobs=(JobConfig(num_blocks=24, num_reduce_tasks=2),),
        seed=0,
    )


class TestEnvKnobs:
    def test_default_seeds_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "7")
        assert default_seeds() == list(range(7))

    def test_default_seeds_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "0")
        with pytest.raises(ValueError):
            default_seeds()

    def test_default_seeds_paper(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEEDS", raising=False)
        assert len(default_seeds()) == 30

    def test_max_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert max_workers() == 3

    def test_max_workers_zero_raises(self, monkeypatch):
        # Consistency with REPRO_SEEDS: a nonsensical override is an error
        # naming the variable, not a silent clamp to one worker.
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_WORKERS must be positive"):
            max_workers()

    def test_max_workers_negative_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(ValueError, match="REPRO_WORKERS must be positive"):
            max_workers()

    def test_malformed_seeds_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "thirty")
        with pytest.raises(ValueError, match="REPRO_SEEDS.*'thirty'"):
            default_seeds()

    def test_malformed_workers_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2.5")
        with pytest.raises(ValueError, match="REPRO_WORKERS.*'2.5'"):
            max_workers()


#: Every config ``counting_runner`` was called with, in call order.
RUNNER_CALLS: list[SimulationConfig] = []


def counting_runner(config: SimulationConfig) -> dict:
    """Module level, so the batch's trial spec names it like any runner."""
    RUNNER_CALLS.append(config)
    return {"scheduler": config.scheduler, "seed": config.seed}


class TestRunManyDistinct:
    def test_repeated_config_runs_once_per_distinct_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")  # in-process, so calls are seen
        RUNNER_CALLS.clear()
        lf, edf = tiny_config().with_scheduler("LF"), tiny_config().with_scheduler("EDF")
        lf1, lf2, edf1 = lf.with_seed(1), lf.with_seed(2), edf.with_seed(1)
        batch = [lf1, lf2, lf1, edf1, replace(lf2), lf1]
        results = run_many(batch, runner=counting_runner)
        assert RUNNER_CALLS == [lf1, lf2, edf1]
        assert results == [{"scheduler": c.scheduler, "seed": c.seed} for c in batch]

    def test_repeats_share_one_result(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        config = tiny_config()
        first, second = run_many([config, config], runner=counting_runner)
        assert first is second


class TestRunFailureAndNormal:
    """The figure sweeps' grouping: every scheduler failed, plus one normal LF."""

    @staticmethod
    def run(schedulers, seeds):
        return run_grouped(failure_and_normal_pairs(tiny_config(), schedulers, seeds))

    def test_grouping(self):
        grouped = self.run(("LF", "EDF"), [0, 1])
        assert set(grouped) == {"LF", "EDF", "normal"}
        for results in grouped.values():
            assert len(results) == 2

    def test_normal_runs_have_no_failures(self):
        grouped = self.run(("LF",), [0])
        assert grouped["normal"][0].failed_nodes == frozenset()
        assert grouped["LF"][0].failed_nodes != frozenset()

    def test_normalized_runtimes_above_one(self):
        grouped = self.run(("LF",), [0, 1])
        normalized = normalized_runtimes(grouped)
        assert set(normalized) == {"LF"}
        for value in normalized["LF"]:
            assert value > 1.0


class _FakeResult:
    """Just enough of a SimulationResult for normalized_runtimes."""

    def __init__(self, runtime: float, failed: bool = False) -> None:
        self._job = JobMetrics(
            job_id=0,
            submit_time=0.0,
            first_launch_time=0.0,
            finish_time=runtime,
            failed=failed,
        )

    def job(self, job_id: int) -> JobMetrics:
        return self._job


class TestNormalizationGuard:
    def test_zero_reference_raises_named_error(self):
        grouped = {
            "LF": [_FakeResult(10.0), _FakeResult(12.0)],
            "normal": [_FakeResult(8.0), _FakeResult(0.0)],
        }
        with pytest.raises(NormalizationError, match="sample 1"):
            normalized_runtimes(grouped)

    def test_seed_named_when_seeds_given(self):
        grouped = {
            "LF": [_FakeResult(10.0), _FakeResult(12.0)],
            "normal": [_FakeResult(8.0), _FakeResult(0.0)],
        }
        with pytest.raises(NormalizationError, match="seed 11"):
            normalized_runtimes(grouped, seeds=[7, 11])

    def test_failed_reference_raises(self):
        grouped = {
            "LF": [_FakeResult(10.0)],
            "normal": [_FakeResult(8.0, failed=True)],
        }
        with pytest.raises(NormalizationError, match="failed job"):
            normalized_runtimes(grouped)

    def test_nan_reference_raises(self):
        grouped = {
            "LF": [_FakeResult(10.0)],
            "normal": [_FakeResult(float("nan"))],
        }
        with pytest.raises(NormalizationError):
            normalized_runtimes(grouped)

    def test_healthy_references_pass(self):
        grouped = {
            "LF": [_FakeResult(10.0), _FakeResult(12.0)],
            "normal": [_FakeResult(8.0), _FakeResult(6.0)],
        }
        normalized = normalized_runtimes(grouped)
        assert normalized["LF"] == [pytest.approx(1.25), pytest.approx(2.0)]


class TestExperimentTable:
    def test_add_row_and_format(self):
        table = ExperimentTable("demo")
        table.add_row("x", {"LF": [1.0, 2.0, 3.0], "EDF": [0.5, 1.0, 1.5]})
        text = table.format()
        assert "demo" in text
        assert "LF: median=2.000" in text
        assert "EDF: median=1.000" in text

    def test_reduction(self):
        table = ExperimentTable("demo")
        table.add_row("x", {"LF": [2.0, 2.0], "EDF": [1.0, 1.0]})
        assert table.reduction("x", "LF", "EDF") == pytest.approx(0.5)

    def test_notes_rendered(self):
        table = ExperimentTable("demo", notes=["caveat"])
        assert "note: caveat" in table.format()
