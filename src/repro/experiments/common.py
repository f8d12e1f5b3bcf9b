"""Shared plumbing for the simulation experiments.

The paper's methodology (Section V-B): for each parameter setting, generate
30 cluster configurations with different random seeds; in each, measure the
MapReduce runtime of every scheduler in failure mode and the runtime in
normal mode; report the *normalized runtime* (failure over normal) as a
boxplot over the 30 samples.

``run_many`` fans simulation trials out over a process pool, since each
trial is an independent single-threaded event-loop run.  ``run_grouped``
is how every simulated figure and ablation uses it: the experiment
declares its ``(key, config)`` pairs and gets back one batch's results
grouped by key.
"""

from __future__ import annotations

import math
import os
from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass, field

from repro.cluster.failures import FailurePattern
from repro.mapreduce.config import SimulationConfig
from repro.mapreduce.metrics import BoxplotStats, SimulationResult
from repro.mapreduce.simulation import run_simulation

#: Seeds used when the caller does not override; the paper uses 30 samples.
DEFAULT_NUM_SEEDS = 30


def _env_int(name: str, default: int) -> int:
    """Read a positive integer environment override, failing with a usable message.

    A malformed value (``REPRO_SEEDS=lots``) or a zero or negative one
    raises a :class:`ValueError` naming the variable and the offending text.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def default_seeds() -> list[int]:
    """Seed list honouring the ``REPRO_SEEDS`` environment override.

    Set ``REPRO_SEEDS=5`` to run quick 5-sample experiments (useful in CI);
    unset, the paper's 30 samples are used.
    """
    return list(range(_env_int("REPRO_SEEDS", DEFAULT_NUM_SEEDS)))


def max_workers() -> int:
    """Process-pool width, honouring the ``REPRO_WORKERS`` override.

    Defaults to every core: simulation trials are single-threaded and
    independent, and experiment batches are trivially parallel.
    """
    return _env_int("REPRO_WORKERS", max(1, os.cpu_count() or 1))


def run_many(
    configs: list[SimulationConfig],
    runner=run_simulation,
    journal_path: str | None = None,
    cache_dir: str | None = None,
) -> list[SimulationResult]:
    """Run many independent trials, in parallel when it pays off.

    ``runner`` must be a module-level callable (the process pool pickles
    it); campaigns pass a wrapper that converts typed refusals into data
    instead of letting one doomed trial abort the whole batch.  Serial and
    parallel execution produce identical result lists.

    Each distinct trial (by :func:`~repro.experiments.campaign.trial_spec_hash`)
    runs once, and every position that asked for it gets that one result:
    a figure batch repeats its normal-mode reference under every row that
    shares it.  Execution goes through the crash-safe
    :class:`~repro.experiments.campaign.CampaignEngine`: a worker killed
    by the OS costs a retry, never the batch, and trial exceptions
    propagate.  Pass ``journal_path`` to make the run resumable and
    ``cache_dir`` to reuse verified results across runs (both require a
    JSON-payload runner such as
    :func:`~repro.experiments.campaign.sweep_trial`).
    """
    from repro.experiments.campaign import CampaignEngine, trial_spec_hash

    slot_of: dict[str, int] = {}
    distinct: list[SimulationConfig] = []
    slots: list[int] = []
    for config in configs:
        spec = trial_spec_hash(config, runner)
        if spec not in slot_of:
            slot_of[spec] = len(distinct)
            distinct.append(config)
        slots.append(slot_of[spec])
    engine = CampaignEngine(
        runner=runner,
        journal_path=journal_path,
        cache=open_cache(cache_dir),
    )
    results = engine.run(distinct).results
    return [results[slot] for slot in slots]


def open_cache(cache_dir: str | None):
    """The verified result cache under ``cache_dir`` (``None`` without one)."""
    if not cache_dir:
        return None
    from repro.experiments.cache import ResultCache, code_version

    return ResultCache(directory=cache_dir, code_version=code_version())


def run_grouped(
    pairs: Iterable[tuple[Hashable, SimulationConfig]],
) -> dict[Hashable, list[SimulationResult]]:
    """Run ``(key, config)`` pairs as one :func:`run_many` batch.

    Returns each key's results in the order its pairs were submitted.
    """
    pairs = list(pairs)
    results = run_many([config for _key, config in pairs])
    grouped: dict[Hashable, list[SimulationResult]] = {}
    for (key, _config), result in zip(pairs, results):
        grouped.setdefault(key, []).append(result)
    return grouped


def failure_and_normal_pairs(
    base: SimulationConfig,
    schedulers: tuple[str, ...],
    seeds: list[int],
) -> Iterator[tuple[str, SimulationConfig]]:
    """Per seed, every scheduler in failure mode plus one ``"normal"`` LF run.

    In normal mode there are no degraded tasks, so one reference suffices.
    """
    normal = base.with_scheduler("LF").with_failure(FailurePattern.NONE)
    for seed in seeds:
        for scheduler in schedulers:
            yield scheduler, base.with_scheduler(scheduler).with_seed(seed)
        yield "normal", normal.with_seed(seed)


class NormalizationError(ValueError):
    """A normal-mode reference runtime is unusable as a denominator.

    Raised instead of letting a zero, NaN, or failed-job reference emit
    ``inf``/``nan`` (or a bare ``ZeroDivisionError``) into boxplot stats,
    naming the offending seed so the broken reference run can be found.
    """


def normalized_runtimes(
    grouped: dict[str, list[SimulationResult]],
    job_id: int = 0,
    seeds: list[int] | None = None,
) -> dict[str, list[float]]:
    """Normalized runtime samples per scheduler (failure over normal).

    Every normal-mode reference runtime is validated before use; a zero,
    non-finite, or failed reference raises :class:`NormalizationError`
    naming the seed (``seeds[i]`` when the caller passes the seed list
    used to build the grid, the sample index otherwise).
    """
    normal = grouped["normal"]
    for position, reference in enumerate(normal):
        job = reference.job(job_id)
        runtime = job.runtime
        if job.failed or not math.isfinite(runtime) or runtime <= 0.0:
            which = (
                f"seed {seeds[position]}"
                if seeds is not None and position < len(seeds)
                else f"sample {position}"
            )
            raise NormalizationError(
                f"normal-mode reference runtime for job {job_id} at {which} "
                f"is unusable ({'failed job' if job.failed else runtime!r}); "
                "cannot normalize failure-mode runtimes against it"
            )
    normalized: dict[str, list[float]] = {}
    for name, results in grouped.items():
        if name == "normal":
            continue
        normalized[name] = [
            result.job(job_id).runtime / reference.job(job_id).runtime
            for result, reference in zip(results, normal)
        ]
    return normalized


@dataclass
class ExperimentTable:
    """A printable experiment outcome: labelled rows of named statistics.

    ``rows`` maps a row label (an x-axis point) to ``{column: stats}``.
    """

    title: str
    rows: dict[str, dict[str, BoxplotStats]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_row(self, label: str, columns: dict[str, list[float]]) -> None:
        """Summarise raw samples into a row of boxplot statistics."""
        self.rows[label] = {
            name: BoxplotStats.from_samples(samples) for name, samples in columns.items()
        }

    def format(self) -> str:
        """Render the table the way the paper's figures read."""
        lines = [self.title, "=" * len(self.title)]
        for label, columns in self.rows.items():
            parts = []
            for name, stats in columns.items():
                parts.append(
                    f"{name}: median={stats.median:.3f} "
                    f"[q1={stats.lower_quartile:.3f}, q3={stats.upper_quartile:.3f}] "
                    f"mean={stats.mean:.3f}"
                )
            lines.append(f"{label:>24}  " + "  |  ".join(parts))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def reduction(self, label: str, baseline: str, candidate: str) -> float:
        """Mean fractional reduction of ``candidate`` vs ``baseline`` in a row."""
        row = self.rows[label]
        base = row[baseline].mean
        return (base - row[candidate].mean) / base
