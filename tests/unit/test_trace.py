"""Unit tests for timeline export and rendering."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cluster.network import MB
from repro.ec.codec import CodeParams
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.simulation import run_simulation
from repro.mapreduce.trace import (
    TIMELINE_WIDTH,
    render_timeline,
    to_json,
    to_records,
)


@pytest.fixture(scope="module")
def result():
    config = SimulationConfig(
        num_nodes=6,
        num_racks=2,
        map_slots=2,
        code=CodeParams(4, 2),
        block_size=16 * MB,
        jobs=(JobConfig(num_blocks=24, num_reduce_tasks=2),),
        scheduler="EDF",
        seed=2,
    )
    return run_simulation(config)


class TestRecords:
    def test_one_record_per_task(self, result):
        records = to_records(result)
        assert len(records) == 26  # 24 maps + 2 reduces

    def test_records_sorted_by_launch(self, result):
        records = to_records(result)
        launches = [record["launch_time"] for record in records]
        assert launches == sorted(launches)

    def test_record_fields(self, result):
        record = to_records(result)[0]
        for field in ("job_id", "kind", "category", "slave_id",
                      "launch_time", "download_time", "finish_time", "runtime"):
            assert field in record


class TestJson:
    def test_roundtrips_through_json(self, result):
        payload = json.loads(to_json(result))
        assert payload["scheduler"] == "EDF"
        assert payload["seed"] == 2
        assert len(payload["tasks"]) == 26
        assert payload["jobs"]["0"]["runtime"] > 0

    def test_failed_nodes_listed(self, result):
        payload = json.loads(to_json(result))
        assert payload["failed_nodes"] == sorted(result.failed_nodes)


class TestTimeline:
    def test_renders_rows_per_live_node(self, result):
        chart = render_timeline(result)
        live = set(range(6)) - result.failed_nodes
        for node in live:
            assert f"node {node}.0" in chart

    def test_download_and_process_glyphs(self, result):
        chart = render_timeline(result)
        assert "#" in chart
        # Degraded or remote fetches draw a download prefix somewhere.
        assert "~" in chart

    def test_empty_selection(self, result):
        assert render_timeline(replace(result, jobs={})) == "(no tasks)"

    def test_width_respected(self, result):
        chart = render_timeline(result)
        for line in chart.splitlines()[1:]:
            assert len(line) <= TIMELINE_WIDTH + 14  # label + bars
