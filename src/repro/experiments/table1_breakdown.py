"""Table I: average runtime of each task type in the single-job scenario.

For each job (WordCount, Grep, LineCount) and each scheduler (LF, EDF),
report the mean runtime of normal map tasks (local and remote), degraded
map tasks, and reduce tasks -- the same breakdown as the paper's Table I.

Paper shapes: EDF cuts the degraded-task mean by ~35-48% and the reduce
mean by ~26%, while normal map tasks are essentially unchanged.
"""

from __future__ import annotations

from repro.experiments.fig9_testbed import build_cluster, collect_task_breakdown
from repro.mapreduce.job import MapTaskCategory, TaskKind
from repro.mapreduce.metrics import mean_task_runtime
from repro.testbed.engine import TestbedJobResult

#: The table's row structure: label -> (kind, categories).
ROWS = (
    (
        "Normal map",
        TaskKind.MAP,
        (MapTaskCategory.NODE_LOCAL, MapTaskCategory.RACK_LOCAL, MapTaskCategory.REMOTE),
    ),
    ("Degraded map", TaskKind.MAP, (MapTaskCategory.DEGRADED,)),
    ("Reduce", TaskKind.REDUCE, ()),
)


def run_table1(runs: int | None = None) -> dict[str, dict[str, TestbedJobResult]]:
    """Collect the runs; returns ``{job: {scheduler: merged result}}``."""
    return collect_task_breakdown(build_cluster(), runs)


def format_table(results: dict[str, dict[str, TestbedJobResult]]) -> str:
    """Render Table I as text."""
    jobs = list(results)
    title = "Table I: average task runtime (s) in the single-job scenario"
    lines = [title, "=" * len(title)]
    header = f"{'task type':>14}"
    for job_name in jobs:
        header += f"  {job_name + ' LF':>14}  {job_name + ' EDF':>14}"
    lines.append(header)
    for label, kind, categories in ROWS:
        row = f"{label:>14}"
        for job_name in jobs:
            for scheduler in ("LF", "EDF"):
                tasks = results[job_name][scheduler].tasks
                mean = mean_task_runtime(tasks, kind, *categories)
                row += f"  {mean:>14.3f}"
        lines.append(row)
    return "\n".join(lines)


def main() -> str:
    """Run and render Table I."""
    return format_table(run_table1())


if __name__ == "__main__":
    print(main())
