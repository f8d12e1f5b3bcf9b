"""Figure 7: simulation comparison of LF vs EDF.

Six sub-experiments over the default simulated cluster (40 nodes, 4 racks,
4 map + 1 reduce slot, 1 Gbps racks, (20,15) code, 1440 blocks, 30 reduce
tasks, map ~ N(20,1), reduce ~ N(30,2), 1% shuffle, 30 seeds):

* 7(a) -- coding scheme in {(8,6), (12,9), (16,12), (20,15)};
* 7(b) -- native blocks in {720, 1440, 2160, 2880};
* 7(c) -- rack bandwidth in {250, 500, 1000} Mbps;
* 7(d) -- failure pattern in {single-node, double-node, rack};
* 7(e) -- shuffle ratio in {1%, 10%, 20%, 30%};
* 7(f) -- ten simultaneous jobs, Poisson arrivals (mean 120 s), FIFO.

Paper shapes: EDF cuts LF's normalized runtime by ~17% (8,6) up to ~33%
(20,15); the reduction shrinks as F grows but stays large; both schedulers
slow as bandwidth drops; reduction orders single > double > rack failure;
EDF's edge narrows as shuffle volume grows; and per-job multi-job
reductions reach ~48%.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.failures import FailurePattern
from repro.cluster.network import mbps
from repro.ec.codec import CodeParams
from repro.experiments.common import (
    ExperimentTable,
    default_seeds,
    failure_and_normal_pairs,
    normalized_runtimes,
    run_grouped,
)
from repro.mapreduce.config import SimulationConfig
from repro.sim.rng import RngStreams

#: Schedulers compared in Figure 7.
SCHEDULERS = ("LF", "EDF")

#: Sub-experiment parameter grids.
FIG7A_CODES = (CodeParams(8, 6), CodeParams(12, 9), CodeParams(16, 12), CodeParams(20, 15))
FIG7B_BLOCKS = (720, 1440, 2160, 2880)
FIG7C_BANDWIDTHS_MBPS = (250, 500, 1000)
FIG7D_FAILURES = (FailurePattern.SINGLE_NODE, FailurePattern.DOUBLE_NODE, FailurePattern.RACK)
FIG7E_SHUFFLE_RATIOS = (0.01, 0.10, 0.20, 0.30)
FIG7F_NUM_JOBS = 10
FIG7F_MEAN_INTERARRIVAL = 120.0


def default_config() -> SimulationConfig:
    """The paper's default simulation configuration (Section V-B)."""
    return SimulationConfig()


def _sweep(
    title: str, rows: dict[str, SimulationConfig], seeds: list[int] | None
) -> ExperimentTable:
    """One batch over every row's failure and normal trials, one table row each."""
    seeds = default_seeds() if seeds is None else seeds
    grouped = run_grouped(
        ((label, name), trial)
        for label, config in rows.items()
        for name, trial in failure_and_normal_pairs(config, SCHEDULERS, seeds)
    )
    table = ExperimentTable(title)
    for label in rows:
        row = {name: grouped[label, name] for name in (*SCHEDULERS, "normal")}
        table.add_row(label, normalized_runtimes(row, seeds=seeds))
    return table


def _with_jobs(base: SimulationConfig, **changes) -> SimulationConfig:
    """``base`` with ``changes`` applied to every job."""
    return replace(base, jobs=tuple(replace(job, **changes) for job in base.jobs))


def run_fig7a(
    base: SimulationConfig | None = None,
    seeds: list[int] | None = None,
    codes: tuple[CodeParams, ...] = FIG7A_CODES,
) -> ExperimentTable:
    """Figure 7(a): normalized runtime vs erasure-coding scheme."""
    base = base or default_config()
    rows = {str(code): replace(base, code=code) for code in codes}
    return _sweep("Figure 7(a): normalized runtime vs (n,k)", rows, seeds)


def run_fig7b(base: SimulationConfig | None = None, seeds: list[int] | None = None) -> ExperimentTable:
    """Figure 7(b): normalized runtime vs number of native blocks."""
    base = base or default_config()
    rows = {str(blocks): _with_jobs(base, num_blocks=blocks) for blocks in FIG7B_BLOCKS}
    return _sweep("Figure 7(b): normalized runtime vs number of blocks", rows, seeds)


def run_fig7c(base: SimulationConfig | None = None, seeds: list[int] | None = None) -> ExperimentTable:
    """Figure 7(c): normalized runtime vs rack download bandwidth."""
    base = base or default_config()
    rows = {
        f"{bandwidth}Mbps": replace(base, rack_bandwidth=mbps(bandwidth))
        for bandwidth in FIG7C_BANDWIDTHS_MBPS
    }
    return _sweep("Figure 7(c): normalized runtime vs bandwidth", rows, seeds)


def run_fig7d(base: SimulationConfig | None = None, seeds: list[int] | None = None) -> ExperimentTable:
    """Figure 7(d): normalized runtime vs failure pattern."""
    base = base or default_config()
    rows = {pattern.value: base.with_failure(pattern) for pattern in FIG7D_FAILURES}
    return _sweep("Figure 7(d): normalized runtime vs failure pattern", rows, seeds)


def run_fig7e(base: SimulationConfig | None = None, seeds: list[int] | None = None) -> ExperimentTable:
    """Figure 7(e): normalized runtime vs amount of intermediate (shuffle) data."""
    base = base or default_config()
    rows = {f"{ratio:.0%}": _with_jobs(base, shuffle_ratio=ratio) for ratio in FIG7E_SHUFFLE_RATIOS}
    return _sweep("Figure 7(e): normalized runtime vs shuffle ratio", rows, seeds)


def multi_job_config(base: SimulationConfig, seed: int) -> SimulationConfig:
    """Ten jobs with exponential inter-arrival times (mean 120 s)."""
    rng = RngStreams(seed)
    template = base.jobs[0]
    submit = 0.0
    jobs = []
    for index in range(FIG7F_NUM_JOBS):
        jobs.append(replace(template, submit_time=submit))
        submit += rng.spawn("arrival").exponential(str(index), FIG7F_MEAN_INTERARRIVAL)
    return replace(base, jobs=tuple(jobs), seed=seed)


def run_fig7f(base: SimulationConfig | None = None, seeds: list[int] | None = None) -> ExperimentTable:
    """Figure 7(f): per-job normalized runtime with ten concurrent jobs."""
    base = base or default_config()
    seeds = default_seeds() if seeds is None else seeds
    grouped = run_grouped(
        pair
        for seed in seeds
        for pair in failure_and_normal_pairs(multi_job_config(base, seed), SCHEDULERS, [seed])
    )
    table = ExperimentTable("Figure 7(f): per-job normalized runtime, 10 FIFO jobs")
    for job_id in range(FIG7F_NUM_JOBS):
        table.add_row(f"job {job_id}", normalized_runtimes(grouped, job_id=job_id, seeds=seeds))
    return table


def main() -> str:
    """Run all six sub-experiments and return the printable report."""
    sections = [
        run_fig7a().format(),
        run_fig7b().format(),
        run_fig7c().format(),
        run_fig7d().format(),
        run_fig7e().format(),
        run_fig7f().format(),
    ]
    return "\n\n".join(sections)


if __name__ == "__main__":
    print(main())
