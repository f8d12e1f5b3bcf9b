"""Unit tests for task records, job metrics and boxplot statistics."""

from __future__ import annotations

import math

import pytest

from repro.mapreduce.job import MapTaskCategory, TaskKind
from repro.mapreduce.metrics import (
    BoxplotStats,
    JobMetrics,
    SimulationResult,
    TaskRecord,
    mean_task_runtime,
)


def record(kind=TaskKind.MAP, category=MapTaskCategory.NODE_LOCAL, launch=0.0,
           finish=10.0, download=0.0, slave=0, job=0):
    return TaskRecord(
        job_id=job, kind=kind, category=category, slave_id=slave,
        launch_time=launch, download_time=download, finish_time=finish,
    )


class TestTaskRecord:
    def test_runtime(self):
        assert record(launch=5.0, finish=25.0).runtime == 20.0


class TestJobMetrics:
    def make_job(self):
        job = JobMetrics(job_id=0, submit_time=0.0, first_launch_time=0.0, finish_time=100.0)
        job.tasks = [
            record(category=MapTaskCategory.NODE_LOCAL, finish=10.0),
            record(category=MapTaskCategory.RACK_LOCAL, finish=12.0),
            record(category=MapTaskCategory.REMOTE, finish=14.0),
            record(category=MapTaskCategory.DEGRADED, finish=30.0, download=18.0),
            record(category=MapTaskCategory.DEGRADED, finish=40.0, download=22.0),
            record(kind=TaskKind.REDUCE, category=None, finish=90.0),
        ]
        return job

    def test_runtime_and_makespan(self):
        job = JobMetrics(job_id=0, submit_time=5.0, first_launch_time=10.0, finish_time=110.0)
        assert job.runtime == 100.0
        assert job.makespan == 105.0

    def test_counts(self):
        job = self.make_job()
        assert job.remote_task_count == 1
        assert job.stolen_task_count == 2
        assert job.degraded_task_count == 2

    def test_mean_runtime_by_category(self):
        job = self.make_job()
        degraded = mean_task_runtime(job.tasks, TaskKind.MAP, MapTaskCategory.DEGRADED)
        assert degraded == pytest.approx(35.0)
        assert mean_task_runtime(job.tasks, TaskKind.REDUCE) == pytest.approx(90.0)
        normal = mean_task_runtime(
            job.tasks,
            TaskKind.MAP,
            MapTaskCategory.NODE_LOCAL, MapTaskCategory.RACK_LOCAL, MapTaskCategory.REMOTE,
        )
        assert normal == pytest.approx(12.0)

    def test_mean_runtime_empty_is_nan(self):
        job = JobMetrics(job_id=0, submit_time=0.0)
        assert math.isnan(mean_task_runtime(job.tasks, TaskKind.REDUCE))
        assert math.isnan(job.mean_degraded_read_time())

    def test_mean_degraded_read_time(self):
        job = self.make_job()
        assert job.mean_degraded_read_time() == pytest.approx(20.0)


class TestSimulationResult:
    def test_total_runtime(self):
        jobs = {
            0: JobMetrics(0, submit_time=0.0, first_launch_time=0.0, finish_time=50.0),
            1: JobMetrics(1, submit_time=10.0, first_launch_time=12.0, finish_time=80.0),
        }
        result = SimulationResult(jobs=jobs, failed_nodes=frozenset(), scheduler="LF", seed=0)
        assert result.total_runtime == 80.0
        assert result.job(1).finish_time == 80.0


class TestBoxplotStats:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxplotStats.from_samples([])

    def test_single_sample(self):
        stats = BoxplotStats.from_samples([5.0])
        assert stats.median == 5.0
        assert stats.minimum == stats.maximum == 5.0

    def test_quartiles(self):
        stats = BoxplotStats.from_samples([1, 2, 3, 4, 5])
        assert stats.median == 3
        assert stats.lower_quartile == 2
        assert stats.upper_quartile == 4
        assert stats.mean == 3

    def test_outliers_detected(self):
        samples = [10.0] * 10 + [100.0]
        stats = BoxplotStats.from_samples(samples)
        assert stats.outliers == (100.0,)
        assert stats.maximum == 10.0  # whisker excludes the outlier

    def test_interpolated_percentile(self):
        stats = BoxplotStats.from_samples([1.0, 2.0, 3.0, 4.0])
        assert stats.median == pytest.approx(2.5)
