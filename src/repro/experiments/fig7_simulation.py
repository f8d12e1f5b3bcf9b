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


def _with_jobs(base: SimulationConfig, **changes) -> SimulationConfig:
    """``base`` with ``changes`` applied to every job."""
    return replace(base, jobs=tuple(replace(job, **changes) for job in base.jobs))


def _code_rows(base: SimulationConfig, codes: tuple[CodeParams, ...]) -> dict:
    return {str(code): replace(base, code=code) for code in codes}


#: Sub-figures 7(a)-(e): letter -> (title, row label -> config, built from a base).
_SWEEPS = {
    "a": (
        "Figure 7(a): normalized runtime vs (n,k)",
        lambda base: _code_rows(base, FIG7A_CODES),
    ),
    "b": (
        "Figure 7(b): normalized runtime vs number of blocks",
        lambda base: {str(blocks): _with_jobs(base, num_blocks=blocks) for blocks in FIG7B_BLOCKS},
    ),
    "c": (
        "Figure 7(c): normalized runtime vs bandwidth",
        lambda base: {
            f"{bandwidth}Mbps": replace(base, rack_bandwidth=mbps(bandwidth))
            for bandwidth in FIG7C_BANDWIDTHS_MBPS
        },
    ),
    "d": (
        "Figure 7(d): normalized runtime vs failure pattern",
        lambda base: {pattern.value: base.with_failure(pattern) for pattern in FIG7D_FAILURES},
    ),
    "e": (
        "Figure 7(e): normalized runtime vs shuffle ratio",
        lambda base: {
            f"{ratio:.0%}": _with_jobs(base, shuffle_ratio=ratio) for ratio in FIG7E_SHUFFLE_RATIOS
        },
    ),
}


class Fig7Data:
    """Figures 7(a)-(e)'s raw results, computed in one batch.

    Each sub-figure sweeps one parameter away from the default
    configuration, so the default configuration's LF, EDF and normal-mode
    trials appear in four of the five.  One :func:`run_grouped` batch over
    every row lets :func:`~repro.experiments.common.run_many` run each
    distinct trial once (1 200 trials instead of 1 560 at 30 seeds).
    ``rows`` maps a sub-figure letter to its row label -> config; omitted,
    it is every row of 7(a)-(e) around the default configuration.
    ``results`` maps ``(letter, label, name)`` to the runs in seed order.
    """

    def __init__(
        self,
        rows: dict[str, dict[str, SimulationConfig]] | None = None,
        seeds: list[int] | None = None,
    ) -> None:
        if rows is None:
            base = default_config()
            rows = {letter: build(base) for letter, (_title, build) in _SWEEPS.items()}
        self.rows = rows
        self.seeds = default_seeds() if seeds is None else seeds
        self.results = run_grouped(
            ((letter, label, name), trial)
            for letter, configs in rows.items()
            for label, config in configs.items()
            for name, trial in failure_and_normal_pairs(config, SCHEDULERS, self.seeds)
        )

    def table(self, letter: str) -> ExperimentTable:
        """Sub-figure ``letter``'s table: one row per swept value."""
        table = ExperimentTable(_SWEEPS[letter][0])
        for label in self.rows[letter]:
            row = {name: self.results[letter, label, name] for name in (*SCHEDULERS, "normal")}
            table.add_row(label, normalized_runtimes(row, seeds=self.seeds))
        return table


def _sub_figure(
    letter: str,
    base: SimulationConfig | None,
    seeds: list[int] | None,
    data: Fig7Data | None,
) -> ExperimentTable:
    """``letter``'s table from ``data``, or from a batch of its own rows only."""
    if data is None:
        data = Fig7Data({letter: _SWEEPS[letter][1](base or default_config())}, seeds)
    return data.table(letter)


def run_fig7a(
    base: SimulationConfig | None = None,
    seeds: list[int] | None = None,
    codes: tuple[CodeParams, ...] = FIG7A_CODES,
    data: Fig7Data | None = None,
) -> ExperimentTable:
    """Figure 7(a): normalized runtime vs erasure-coding scheme."""
    if data is None:
        data = Fig7Data({"a": _code_rows(base or default_config(), codes)}, seeds)
    return data.table("a")


def run_fig7b(
    base: SimulationConfig | None = None,
    seeds: list[int] | None = None,
    data: Fig7Data | None = None,
) -> ExperimentTable:
    """Figure 7(b): normalized runtime vs number of native blocks."""
    return _sub_figure("b", base, seeds, data)


def run_fig7c(
    base: SimulationConfig | None = None,
    seeds: list[int] | None = None,
    data: Fig7Data | None = None,
) -> ExperimentTable:
    """Figure 7(c): normalized runtime vs rack download bandwidth."""
    return _sub_figure("c", base, seeds, data)


def run_fig7d(
    base: SimulationConfig | None = None,
    seeds: list[int] | None = None,
    data: Fig7Data | None = None,
) -> ExperimentTable:
    """Figure 7(d): normalized runtime vs failure pattern."""
    return _sub_figure("d", base, seeds, data)


def run_fig7e(
    base: SimulationConfig | None = None,
    seeds: list[int] | None = None,
    data: Fig7Data | None = None,
) -> ExperimentTable:
    """Figure 7(e): normalized runtime vs amount of intermediate (shuffle) data."""
    return _sub_figure("e", base, seeds, data)


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
    """Run all six sub-experiments (7(a)-(e) sharing runs) and return the report."""
    data = Fig7Data()
    sections = [
        run_fig7a(data=data).format(),
        run_fig7b(data=data).format(),
        run_fig7c(data=data).format(),
        run_fig7d(data=data).format(),
        run_fig7e(data=data).format(),
        run_fig7f().format(),
    ]
    return "\n\n".join(sections)


if __name__ == "__main__":
    print(main())
