"""Unit tests for simulation configuration."""

from __future__ import annotations

import pytest

from repro.cluster.failures import FailurePattern
from repro.ec.codec import CodeParams
from repro.mapreduce.config import JobConfig, SimulationConfig


class TestJobConfig:
    def test_defaults_match_paper(self):
        job = JobConfig()
        assert job.num_blocks == 1440
        assert job.map_time_mean == 20.0
        assert job.reduce_time_mean == 30.0
        assert job.num_reduce_tasks == 30
        assert job.shuffle_ratio == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            JobConfig(num_blocks=0)
        with pytest.raises(ValueError):
            JobConfig(num_reduce_tasks=-1)
        with pytest.raises(ValueError):
            JobConfig(shuffle_ratio=-0.1)
        with pytest.raises(ValueError):
            JobConfig(submit_time=-1.0)


    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("map_time_mean", float("nan")),
            ("map_time_mean", -5.0),
            ("map_time_mean", float("inf")),
            ("map_time_std", -1.0),
            ("map_time_std", float("nan")),
            ("reduce_time_mean", float("inf")),
            ("reduce_time_mean", -0.5),
            ("reduce_time_std", float("inf")),
            ("shuffle_ratio", float("nan")),
            ("shuffle_ratio", float("inf")),
            ("submit_time", float("nan")),
            ("submit_time", float("inf")),
        ],
    )
    def test_rejects_negative_or_non_finite_times(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} .*{value!r}"):
            JobConfig(**{field: value})

    def test_zero_task_times_stay_valid(self):
        job = JobConfig(
            map_time_mean=0.0, map_time_std=0.0, reduce_time_mean=0.0, reduce_time_std=0.0
        )
        assert job.map_time_mean == 0.0


class TestSimulationConfig:
    def test_defaults_match_paper(self):
        config = SimulationConfig()
        assert config.num_nodes == 40
        assert config.num_racks == 4
        assert config.map_slots == 4
        assert config.code == CodeParams(20, 15)
        assert config.heartbeat_interval == 3.0
        assert config.failure is FailurePattern.SINGLE_NODE

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError):
            SimulationConfig(scheduler="NOT-A-POLICY")

    def test_bad_cluster(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_nodes=1)
        with pytest.raises(ValueError):
            SimulationConfig(heartbeat_interval=0)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("heartbeat_interval", float("nan")),
            ("heartbeat_interval", float("inf")),
            ("heartbeat_expiry", float("nan")),
            ("heartbeat_expiry", float("inf")),
            ("shuffle_drain_interval", float("nan")),
            ("shuffle_drain_interval", float("inf")),
            ("shuffle_drain_interval", -1.0),
            ("rack_bandwidth", float("nan")),
            ("rack_bandwidth", float("inf")),
            ("rack_bandwidth", 0.0),
            ("rack_bandwidth", -1.0),
            ("block_size", float("nan")),
            ("block_size", float("inf")),
            ("block_size", 0.0),
            ("block_size", -1.0),
            ("failure_time", float("nan")),
            ("failure_time", float("inf")),
            ("degraded_read_backoff", float("nan")),
            ("degraded_read_backoff", float("inf")),
            ("speculative_multiplier", float("nan")),
            ("speculative_multiplier", float("inf")),
        ],
    )
    def test_rejects_non_finite_or_out_of_range_numbers(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} .*{value!r}"):
            SimulationConfig(**{field: value})

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_speed_factor(self, factor):
        factors = (1.0, 1.0, factor, 1.0)
        with pytest.raises(ValueError, match=rf"speed_factors\[2\] .*{factor!r}"):
            SimulationConfig(num_nodes=4, num_racks=2, speed_factors=factors)

    def test_boundary_values_stay_valid(self):
        config = SimulationConfig(shuffle_drain_interval=0.0, failure_time=0.0)
        assert config.shuffle_drain_interval == 0.0

    def test_speed_factor_count(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_nodes=4, num_racks=2, speed_factors=(1.0,))

    def test_with_helpers(self):
        config = SimulationConfig()
        assert config.with_scheduler("LF").scheduler == "LF"
        assert config.with_seed(9).seed == 9
        assert config.with_failure(FailurePattern.RACK).failure is FailurePattern.RACK
        # original untouched (frozen dataclass copies)
        assert config.scheduler == "EDF"

    def test_network_spec(self):
        spec = SimulationConfig().network_spec()
        assert spec.rack_download_bw == SimulationConfig().rack_bandwidth

    def test_total_blocks(self):
        config = SimulationConfig(jobs=(JobConfig(num_blocks=10), JobConfig(num_blocks=20)))
        assert config.total_blocks == 30
