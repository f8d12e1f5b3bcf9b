"""Unit tests for configuration (de)serialisation."""

from __future__ import annotations

import json

import pytest

from repro.cluster.failures import FailurePattern
from repro.ec.codec import CodeParams
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.serialization import (
    config_from_dict,
    config_from_json,
    config_to_dict,
    load_config,
)
from repro.storage.degraded import SourceSelection


class TestRoundTrip:
    def test_default_config(self):
        original = SimulationConfig()
        rebuilt = config_from_json(json.dumps(config_to_dict(original)))
        assert rebuilt == original

    def test_custom_config(self):
        original = SimulationConfig(
            num_nodes=8,
            num_racks=2,
            map_slots=2,
            code=CodeParams(4, 2),
            speed_factors=tuple([1.0] * 4 + [0.5] * 4),
            jobs=(
                JobConfig(num_blocks=64, num_reduce_tasks=4),
                JobConfig(num_blocks=32, submit_time=10.0),
            ),
            failure=FailurePattern.DOUBLE_NODE,
            failure_eligible=(1, 2, 3),
            failure_time=42.0,
            source_selection=SourceSelection.RACK_LOCAL_FIRST,
            scheduler="BDF",
            seed=9,
        )
        rebuilt = config_from_json(json.dumps(config_to_dict(original)))
        assert rebuilt == original

    def test_sparse_dict_uses_defaults(self):
        config = config_from_dict({"scheduler": "LF", "seed": 3})
        assert config.scheduler == "LF"
        assert config.num_nodes == 40
        assert config.code == CodeParams(20, 15)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"shceduler": "LF"})

    def test_code_as_list(self):
        config = config_from_dict({"code": [8, 6]})
        assert config.code == CodeParams(8, 6)

    def test_enum_values_as_strings(self):
        config = config_from_dict(
            {"failure": "rack", "source_selection": "rack-local-first"}
        )
        assert config.failure is FailurePattern.RACK
        assert config.source_selection is SourceSelection.RACK_LOCAL_FIRST


class TestFileLoading:
    def test_load_config(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(config_to_dict(SimulationConfig(seed=77))))
        assert load_config(str(path)).seed == 77


class TestCliIntegration:
    def test_simulate_with_config_file(self, tmp_path, capsys):
        from repro.cli import main

        config = SimulationConfig(
            num_nodes=6,
            num_racks=2,
            map_slots=2,
            code=CodeParams(4, 2),
            block_size=16 * 1024 * 1024,
            jobs=(JobConfig(num_blocks=24, num_reduce_tasks=0),),
            scheduler="LF",
            seed=4,
        )
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(config_to_dict(config)))
        assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scheduler: LF" in out
