"""Unit tests for open-loop arrival processes."""

from __future__ import annotations

import json

import pytest

from repro.mapreduce.config import JobConfig
from repro.mapreduce.workload import PoissonArrivals
from repro.sim.rng import RngStreams


class TestPoissonArrivals:
    def test_same_seed_same_stream(self):
        process = PoissonArrivals(mean_interarrival=60.0)
        first = process.generate(RngStreams(5), 3600.0)
        second = process.generate(RngStreams(5), 3600.0)
        assert first == second

    def test_different_seeds_differ(self):
        process = PoissonArrivals(mean_interarrival=60.0)
        assert process.generate(RngStreams(5), 3600.0) != process.generate(
            RngStreams(6), 3600.0
        )

    def test_submit_times_increase_within_horizon(self):
        process = PoissonArrivals(mean_interarrival=60.0)
        jobs = process.generate(RngStreams(1), 3600.0)
        assert jobs, "an hour at one-per-minute should produce arrivals"
        times = [job.submit_time for job in jobs]
        assert times == sorted(times)
        assert all(0.0 < at < 3600.0 for at in times)

    def test_mean_rate_roughly_right(self):
        process = PoissonArrivals(mean_interarrival=60.0)
        jobs = process.generate(RngStreams(2), 60.0 * 60.0 * 24.0)
        assert 0.8 * 1440 < len(jobs) < 1.2 * 1440

    def test_multi_tenant_weights(self):
        small = JobConfig(num_blocks=10)
        large = JobConfig(num_blocks=100)
        process = PoissonArrivals(
            mean_interarrival=10.0,
            templates=(small, large),
            weights=(9.0, 1.0),
        )
        jobs = process.generate(RngStreams(3), 40000.0)
        shares = sum(job.num_blocks == 10 for job in jobs) / len(jobs)
        assert shares > 0.75

    def test_zero_weight_tenant_never_picked(self):
        process = PoissonArrivals(
            mean_interarrival=10.0,
            templates=(JobConfig(num_blocks=10), JobConfig(num_blocks=100)),
            weights=(1.0, 0.0),
        )
        jobs = process.generate(RngStreams(3), 10000.0)
        assert all(job.num_blocks == 10 for job in jobs)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(mean_interarrival=0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(templates=())
        with pytest.raises(ValueError):
            PoissonArrivals(weights=(1.0, 2.0))  # one template, two weights
        with pytest.raises(ValueError):
            PoissonArrivals(weights=(-1.0,))


class TestRoundTrips:
    def test_poisson_round_trip(self):
        """``to_dict`` survives JSON unchanged (the report's config block)."""
        process = PoissonArrivals(
            mean_interarrival=120.0,
            templates=(JobConfig(num_blocks=30), JobConfig(num_blocks=90)),
            weights=(2.0, 1.0),
        )
        payload = process.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["kind"] == "poisson"
        assert payload["weights"] == [2.0, 1.0]
        assert [job["num_blocks"] for job in payload["templates"]] == [30, 90]
