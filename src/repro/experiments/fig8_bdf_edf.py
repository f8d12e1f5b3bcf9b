"""Figure 8: basic vs enhanced degraded-first scheduling.

Four sub-experiments comparing BDF and EDF against the LF baseline, in a
homogeneous cluster, a heterogeneous cluster (half the nodes at half
speed), and an extreme case (five very bad nodes, a small map-only job):

* 8(a) -- percentage change in the number of remote tasks vs LF;
* 8(b) -- percentage reduction in degraded read time vs LF;
* 8(c) -- percentage reduction in MapReduce runtime vs LF;
* 8(d) -- runtime reduction vs LF in the extreme case.

Paper shapes: BDF launches MORE remote tasks than LF while EDF launches
fewer; both cut degraded-read time by ~80-85% (EDF slightly more); runtime
savings ~25-34%; and in the extreme case EDF (~33%) far outperforms BDF
(~12%).

Metric note: our simulator distinguishes node-local, rack-local and
cross-rack map tasks.  The paper's "number of remote tasks" tracks tasks
that left their storage node, which corresponds to our
``stolen_task_count`` (rack-local + cross-rack); see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter, methodcaller

from repro.experiments.common import ExperimentTable, default_seeds, run_grouped
from repro.mapreduce.config import JobConfig, SimulationConfig

#: Schedulers compared against the LF baseline.
SCHEDULERS = ("LF", "BDF", "EDF")

#: The two clusters of Figures 8(a)-(c); 8(d) is the extreme case alone.
CLUSTERS = ("homogeneous", "heterogeneous")


def homogeneous_config() -> SimulationConfig:
    """The default homogeneous cluster of Section V-B."""
    return SimulationConfig()


def heterogeneous_config() -> SimulationConfig:
    """Half the nodes run at half speed (map 40 s, reduce 60 s means)."""
    base = SimulationConfig()
    factors = tuple(1.0 if index % 2 == 0 else 0.5 for index in range(base.num_nodes))
    return replace(base, speed_factors=factors)


def extreme_config() -> SimulationConfig:
    """Figure 8(d): five bad nodes (10x slower), 150 blocks, map-only job.

    Processing times are 3 s on regular nodes and 30 s on the bad ones; one
    of the *normal* nodes fails.  The paper does not state the slot count
    for this experiment; we use one map slot per node (as in its Figure 4
    walk-through), which gives the small job several scheduling rounds --
    with the default four slots the whole job launches in a single wave and
    no scheduler has any decision left to make.
    """
    base = SimulationConfig()
    bad_nodes = tuple(range(5))
    factors = tuple(0.1 if index in bad_nodes else 1.0 for index in range(base.num_nodes))
    job = JobConfig(
        num_blocks=150,
        map_time_mean=3.0,
        map_time_std=0.3,
        num_reduce_tasks=0,
        shuffle_ratio=0.0,
    )
    eligible = tuple(
        index for index in range(base.num_nodes) if index not in bad_nodes
    )
    return replace(
        base,
        map_slots=1,
        speed_factors=factors,
        jobs=(job,),
        failure_eligible=eligible,
    )


class Fig8Data:
    """The three Figure 8 scenarios' raw results, computed once.

    Each of the four sub-figures is a different statistic over the same
    simulation runs, so all of them share one batch of every scenario x
    scheduler x seed.  No statistic reads a normal-mode run, so none is made.
    ``results`` maps ``(scenario, scheduler)`` to the runs in seed order.
    """

    def __init__(self, seeds: list[int] | None = None) -> None:
        seeds = default_seeds() if seeds is None else seeds
        cases = {
            "homogeneous": homogeneous_config(),
            "heterogeneous": heterogeneous_config(),
            "extreme": extreme_config(),
        }
        self.results = run_grouped(
            ((case, name), config.with_scheduler(name).with_seed(seed))
            for case, config in cases.items()
            for seed in seeds
            for name in SCHEDULERS
        )


def _vs_lf(
    title: str,
    data: Fig8Data,
    labels: tuple[str, ...],
    metric,
    reduction: bool = True,
) -> ExperimentTable:
    """BDF's and EDF's per-seed fractional change in ``metric`` vs LF, a row per case.

    Seeds where LF's value is zero are skipped.  With ``reduction`` the sign
    is flipped, so + means smaller than LF.
    """
    sign = -1.0 if reduction else 1.0
    table = ExperimentTable(title)
    for label in labels:
        baseline = [metric(result.job(0)) for result in data.results[label, "LF"]]
        row = {}
        for name in ("BDF", "EDF"):
            values = [metric(result.job(0)) for result in data.results[label, name]]
            row[name] = [
                sign * ((value - base) / base) for value, base in zip(values, baseline) if base != 0
            ]
            if not row[name]:
                raise RuntimeError("baseline metric was zero in every trial")
        table.add_row(label, row)
    return table


def run_fig8a(seeds: list[int] | None = None, data: Fig8Data | None = None) -> ExperimentTable:
    """Figure 8(a): change in remote-task count vs LF (negative = fewer)."""
    title = "Figure 8(a): remote tasks vs LF (fraction, + = more)"
    stolen = attrgetter("stolen_task_count")
    return _vs_lf(title, data or Fig8Data(seeds), CLUSTERS, stolen, reduction=False)


def run_fig8b(seeds: list[int] | None = None, data: Fig8Data | None = None) -> ExperimentTable:
    """Figure 8(b): reduction of degraded read time vs LF (+ = faster)."""
    title = "Figure 8(b): degraded read time reduction vs LF"
    read_time = methodcaller("mean_degraded_read_time")
    return _vs_lf(title, data or Fig8Data(seeds), CLUSTERS, read_time)


def run_fig8c(seeds: list[int] | None = None, data: Fig8Data | None = None) -> ExperimentTable:
    """Figure 8(c): reduction of MapReduce runtime vs LF (+ = faster)."""
    title = "Figure 8(c): runtime reduction vs LF"
    return _vs_lf(title, data or Fig8Data(seeds), CLUSTERS, attrgetter("runtime"))


def run_fig8d(seeds: list[int] | None = None, data: Fig8Data | None = None) -> ExperimentTable:
    """Figure 8(d): runtime reduction vs LF in the extreme case."""
    title = "Figure 8(d): runtime reduction vs LF, extreme case"
    return _vs_lf(title, data or Fig8Data(seeds), ("extreme",), attrgetter("runtime"))


def main() -> str:
    """Run all four sub-experiments (sharing runs) and return the report."""
    data = Fig8Data()
    sections = [
        run_fig8a(data=data).format(),
        run_fig8b(data=data).format(),
        run_fig8c(data=data).format(),
        run_fig8d(data=data).format(),
    ]
    return "\n\n".join(sections)


if __name__ == "__main__":
    print(main())
