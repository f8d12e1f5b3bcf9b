"""Additional analytical-model tests: custom bases and regime boundaries."""

from __future__ import annotations

import pytest

from repro.analysis.model import AnalysisParams, AnalyticalModel
from repro.analysis.sweep import sweep_bandwidth, sweep_blocks, sweep_code
from repro.cluster.network import mbps
from repro.ec.codec import CodeParams


class TestCustomBases:
    def test_sweep_code_respects_base(self):
        base = AnalysisParams(num_nodes=20, num_racks=4, num_blocks=400)
        points = sweep_code(base)
        assert [point.label for point in points] == ["(8,6)", "(12,9)", "(16,12)", "(20,15)"]
        model = AnalyticalModel(base.with_code(CodeParams(8, 6)))
        assert points[0].normalized_df == model.normalized_degraded_first()

    def test_sweep_blocks_respects_base(self):
        base = AnalysisParams(map_time=10.0)
        points = sweep_blocks(base)
        assert [point.label for point in points] == ["720", "1440", "2160", "2880"]
        model = AnalyticalModel(base.with_blocks(720))
        assert points[0].normalized_lf == model.normalized_locality_first()

    def test_sweep_bandwidth_labels(self):
        points = sweep_bandwidth()
        assert [point.label for point in points] == [
            "100Mbps", "250Mbps", "500Mbps", "1000Mbps",
        ]


def compute_bound_runtime(params: AnalysisParams) -> float:
    """DF's runtime when degraded reads never delay the map phase."""
    return (
        params.num_blocks * params.map_time / ((params.num_nodes - 1) * params.map_slots)
        + params.map_time
    )


class TestRegimeBoundary:
    def test_network_bound_at_low_bandwidth(self):
        model = AnalyticalModel(AnalysisParams(rack_bandwidth=mbps(50)))
        # Degraded-read downloads, not compute, then set DF's runtime.
        assert model.degraded_first_runtime() > compute_bound_runtime(model.params)

    def test_compute_bound_at_high_bandwidth(self):
        model = AnalyticalModel(AnalysisParams(rack_bandwidth=mbps(10_000)))
        # DF's runtime is then its compute-bound case.
        expected = compute_bound_runtime(model.params)
        assert model.degraded_first_runtime() == pytest.approx(expected)

    def test_df_runtime_monotone_in_bandwidth(self):
        runtimes = [
            AnalyticalModel(AnalysisParams(rack_bandwidth=mbps(w))).degraded_first_runtime()
            for w in (50, 100, 200, 400, 800)
        ]
        assert runtimes == sorted(runtimes, reverse=True)

    def test_lf_always_pays_the_full_tail(self):
        """LF's runtime is normal-mode plus the whole serial download."""
        model = AnalyticalModel(AnalysisParams())
        tail = model.total_degraded_read_time_per_rack()
        assert model.locality_first_runtime() - model.normal_mode_runtime() == (
            pytest.approx(tail + model.params.map_time)
        )


class TestDegradedTasksPerRack:
    def test_matches_definition(self):
        params = AnalysisParams(num_nodes=40, num_racks=4, num_blocks=1440)
        model = AnalyticalModel(params)
        assert model.degraded_tasks_per_rack() == pytest.approx(1440 / (40 * 4))
