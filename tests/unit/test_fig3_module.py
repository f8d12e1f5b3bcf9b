"""Unit tests for the Figure 3 walk-through helpers."""

from __future__ import annotations

import pytest

from repro.experiments.fig3_motivating import (
    BANDWIDTH,
    BLOCK_SIZE,
    PROCESS_TIME,
    TRANSFER_TIME,
    degraded_first_schedule,
    example_topology,
    locality_first_schedule,
    main,
)


class TestConstants:
    def test_transfer_time_consistent(self):
        assert BLOCK_SIZE / BANDWIDTH == pytest.approx(TRANSFER_TIME)

    def test_process_time_matches_paper(self):
        assert PROCESS_TIME == 10.0


class TestTopology:
    def test_five_nodes_two_racks(self):
        topo = example_topology()
        assert topo.num_nodes == 5
        assert topo.num_racks == 2
        assert topo.nodes_in_rack(0) == (0, 1, 2)
        assert topo.nodes_in_rack(1) == (3, 4)
        assert topo.node(0).map_slots == 2


class TestSchedules:
    def test_twelve_tasks_each(self):
        for schedule in (locality_first_schedule(), degraded_first_schedule()):
            tasks = [task for tasks in schedule.values() for task in tasks]
            assert len(tasks) == 12

    def test_four_degraded_each(self):
        for schedule in (locality_first_schedule(), degraded_first_schedule()):
            degraded = [
                task
                for tasks in schedule.values()
                for task in tasks
                if task.download_from is not None
            ]
            assert len(degraded) == 4

    def test_same_task_names_in_both(self):
        lf_names = sorted(
            task.name for tasks in locality_first_schedule().values() for task in tasks
        )
        df_names = sorted(
            task.name for tasks in degraded_first_schedule().values() for task in tasks
        )
        assert lf_names == df_names

    def test_lf_degraded_last_per_node(self):
        for tasks in locality_first_schedule().values():
            degraded_positions = [i for i, t in enumerate(tasks) if t.download_from is not None]
            assert all(pos == len(tasks) - 1 for pos in degraded_positions)


class TestReport:
    def test_main_report(self):
        report = main()
        assert "40 s" in report
        assert "30 s" in report
        assert "25%" in report
