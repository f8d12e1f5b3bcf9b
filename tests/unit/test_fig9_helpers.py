"""Unit tests for the Figure 9 / Table I harness helpers."""

from __future__ import annotations

import math

import pytest

from repro.experiments.fig9_testbed import default_runs, make_jobs
from repro.experiments.table1_breakdown import ROWS
from repro.mapreduce.job import MapTaskCategory, TaskKind
from repro.mapreduce.metrics import TaskRecord, mean_task_runtime
from repro.testbed.engine import TestbedJobResult


class TestHarnessHelpers:
    def test_default_runs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TESTBED_RUNS", "4")
        assert default_runs() == 4

    @pytest.mark.parametrize("raw", ["0", "-2"])
    def test_default_runs_rejects_non_positive(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TESTBED_RUNS", raw)
        with pytest.raises(ValueError, match="REPRO_TESTBED_RUNS"):
            default_runs()

    def test_default_runs_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_TESTBED_RUNS", "five")
        with pytest.raises(ValueError, match="REPRO_TESTBED_RUNS"):
            default_runs()

    def test_make_jobs_order(self):
        jobs = make_jobs()
        assert [job.name for job in jobs] == ["WordCount", "Grep", "LineCount"]

    def test_table_rows_cover_paper(self):
        labels = [label for label, _kind, _cats in ROWS]
        assert labels == ["Normal map", "Degraded map", "Reduce"]


class TestTestbedJobResult:
    """Table I averages a result's tasks with the simulator's one helper."""

    def make_result(self):
        tasks = [
            TaskRecord(0, TaskKind.MAP, MapTaskCategory.NODE_LOCAL, 0, 0.0, 0.0, 1.0),
            TaskRecord(0, TaskKind.MAP, MapTaskCategory.DEGRADED, 1, 0.0, 2.0, 5.0),
            TaskRecord(0, TaskKind.REDUCE, None, 2, 0.0, 0.0, 9.0),
        ]
        return TestbedJobResult(
            job_name="WordCount", scheduler="EDF", runtime=9.0, tasks=tasks, output={}
        )

    def test_mean_runtime_by_kind(self):
        result = self.make_result()
        assert mean_task_runtime(result.tasks, TaskKind.REDUCE) == 9.0
        assert mean_task_runtime(result.tasks, TaskKind.MAP) == 3.0

    def test_mean_runtime_by_category(self):
        result = self.make_result()
        degraded = mean_task_runtime(result.tasks, TaskKind.MAP, MapTaskCategory.DEGRADED)
        assert degraded == 5.0

    def test_mean_runtime_empty_nan(self):
        result = self.make_result()
        remote = mean_task_runtime(result.tasks, TaskKind.MAP, MapTaskCategory.REMOTE)
        assert math.isnan(remote)
