"""Figure 9: testbed runtimes of LF vs EDF, single-job and multi-job.

Runs the functional testbed (:mod:`repro.testbed`) the way Section VI runs
Hadoop: a 12-slave, 3-rack cluster storing erasure-coded text with a
(12, 10) code; one randomly chosen slave is killed; WordCount, Grep and
LineCount run under each scheduler; results are averaged over repeated runs
(the paper uses five).

* 9(a) -- each job alone;
* 9(b) -- all three jobs submitted together, FIFO-ordered
  (WordCount, Grep, LineCount).

Paper shapes: EDF cuts single-job runtime by ~25-27% for every job; in the
multi-job scenario the cuts are ~17-28% with WordCount (the first job)
benefiting least, since EDF's early degraded tasks compete with nothing
ahead of them while later jobs' degraded reads overlap the previous job's
shuffle.
"""

from __future__ import annotations

import statistics

from repro.experiments.common import _env_int
from repro.testbed.engine import TestbedCluster, TestbedConfig, TestbedJobResult
from repro.testbed.jobs import GrepJob, LineCountJob, MapReduceJob, WordCountJob

#: Schedulers compared.
SCHEDULERS = ("LF", "EDF")


def default_runs() -> int:
    """Repetitions per configuration; the paper averages five runs.

    ``REPRO_TESTBED_RUNS`` overrides the default of 3 and, like
    ``REPRO_SEEDS``, must be a positive integer.
    """
    return _env_int("REPRO_TESTBED_RUNS", 3)


def make_jobs() -> list[MapReduceJob]:
    """The three jobs in the paper's submission order."""
    return [WordCountJob(), GrepJob("water"), LineCountJob()]


def build_cluster(seed: int = 0, config: TestbedConfig | None = None) -> TestbedCluster:
    """Create the testbed cluster (one shared corpus for all runs)."""
    return TestbedCluster(config or TestbedConfig(seed=seed))


def run_fig9a(
    cluster: TestbedCluster | None = None, runs: int | None = None
) -> dict[str, dict[str, list[float]]]:
    """Figure 9(a): single-job runtimes.

    Returns ``{job_name: {scheduler: [runtime, ...]}}``.
    """
    cluster = cluster or build_cluster()
    runs = runs or default_runs()
    failed = cluster.kill_node()
    outcome: dict[str, dict[str, list[float]]] = {}
    for job in make_jobs():
        outcome[job.name] = {}
        for scheduler in SCHEDULERS:
            samples = [
                cluster.run_job(job, scheduler=scheduler, failed_nodes=failed).runtime
                for _ in range(runs)
            ]
            outcome[job.name][scheduler] = samples
    return outcome


def run_fig9b(
    cluster: TestbedCluster | None = None, runs: int | None = None
) -> dict[str, dict[str, list[float]]]:
    """Figure 9(b): multi-job runtimes (three jobs FIFO)."""
    cluster = cluster or build_cluster()
    runs = runs or default_runs()
    failed = cluster.kill_node()
    outcome: dict[str, dict[str, list[float]]] = {
        job.name: {scheduler: [] for scheduler in SCHEDULERS} for job in make_jobs()
    }
    for scheduler in SCHEDULERS:
        for _ in range(runs):
            results = cluster.run_jobs(make_jobs(), scheduler=scheduler, failed_nodes=failed)
            for result in results:
                outcome[result.job_name][scheduler].append(result.runtime)
    return outcome


def collect_task_breakdown(
    cluster: TestbedCluster | None = None, runs: int | None = None
) -> dict[str, dict[str, TestbedJobResult]]:
    """Single-job runs keeping full task records (feeds Table I)."""
    cluster = cluster or build_cluster()
    runs = runs or default_runs()
    failed = cluster.kill_node()
    kept: dict[str, dict[str, TestbedJobResult]] = {}
    for job in make_jobs():
        kept[job.name] = {}
        for scheduler in SCHEDULERS:
            results = [
                cluster.run_job(job, scheduler=scheduler, failed_nodes=failed)
                for _ in range(runs)
            ]
            # Merge the runs' task lists into one result for averaging.
            merged = TestbedJobResult(
                job_name=job.name,
                scheduler=scheduler,
                runtime=statistics.mean(result.runtime for result in results),
                tasks=[task for result in results for task in result.tasks],
                output=results[0].output,
            )
            kept[job.name][scheduler] = merged
    return kept


def format_runtimes(outcome: dict[str, dict[str, list[float]]], title: str) -> str:
    """Render a Figure 9 panel as text."""
    lines = [title, "=" * len(title)]
    lines.append(f"{'job':>10}  {'LF':>18}  {'EDF':>18}  {'reduction':>9}")
    for job_name, by_scheduler in outcome.items():
        lf = statistics.mean(by_scheduler["LF"])
        edf = statistics.mean(by_scheduler["EDF"])
        lf_span = f"{lf:.2f} [{min(by_scheduler['LF']):.2f},{max(by_scheduler['LF']):.2f}]"
        edf_span = f"{edf:.2f} [{min(by_scheduler['EDF']):.2f},{max(by_scheduler['EDF']):.2f}]"
        lines.append(
            f"{job_name:>10}  {lf_span:>18}  {edf_span:>18}  {(lf - edf) / lf:>8.1%}"
        )
    return "\n".join(lines)


def main() -> str:
    """Run both panels on one shared cluster and return the report."""
    cluster = build_cluster()
    sections = [
        format_runtimes(run_fig9a(cluster), "Figure 9(a): single-job runtime (s)"),
        format_runtimes(run_fig9b(cluster), "Figure 9(b): multi-job runtime (s)"),
    ]
    return "\n\n".join(sections)


if __name__ == "__main__":
    print(main())
