"""Benchmark: Table I, average task runtime by type in the single-job runs.

Paper shapes asserted: EDF cuts the degraded-map mean sharply (paper:
35-48%) while normal map means stay roughly equal; reduce means do not get
worse under EDF.
"""

from __future__ import annotations

from conftest import one_shot
from repro.experiments.table1_breakdown import format_table, run_table1
from repro.mapreduce.job import MapTaskCategory, TaskKind
from repro.mapreduce.metrics import mean_task_runtime

NORMAL = (
    MapTaskCategory.NODE_LOCAL,
    MapTaskCategory.RACK_LOCAL,
    MapTaskCategory.REMOTE,
)


def test_table1(benchmark):
    results = one_shot(benchmark, run_table1)
    print("\n" + format_table(results))
    degraded_wins = 0
    for job_name, by_scheduler in results.items():
        lf = by_scheduler["LF"]
        edf = by_scheduler["EDF"]
        lf_degraded = mean_task_runtime(lf.tasks, TaskKind.MAP, MapTaskCategory.DEGRADED)
        edf_degraded = mean_task_runtime(edf.tasks, TaskKind.MAP, MapTaskCategory.DEGRADED)
        if edf_degraded < lf_degraded:
            degraded_wins += 1
        # Normal maps are unaffected by the scheduling policy (within noise).
        lf_normal = mean_task_runtime(lf.tasks, TaskKind.MAP, *NORMAL)
        edf_normal = mean_task_runtime(edf.tasks, TaskKind.MAP, *NORMAL)
        assert abs(lf_normal - edf_normal) <= 0.5 * max(lf_normal, edf_normal), (
            f"normal map means diverged for {job_name}"
        )
    assert degraded_wins >= 2, (
        f"EDF should cut degraded-task runtime for most jobs, won {degraded_wins}/3"
    )
