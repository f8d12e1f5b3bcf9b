"""Per-task records, per-job summaries and boxplot statistics.

The paper reports MapReduce runtime (first task launch to last reduce
completion), normalized runtime (failure mode over normal mode), remote task
counts, degraded read times, and per-task-type average runtimes (Table I).
Everything needed for those is collected here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.faults.records import FaultTimeline
from repro.mapreduce.job import MapTaskCategory, TaskKind


@dataclass
class TaskRecord:
    """Lifecycle of one task.

    Times are simulation seconds.  ``download_time`` is the degraded-read
    or remote-fetch duration (0 for node-local tasks); for reduce tasks it
    is the total time spent with shuffle flows outstanding.  ``attempt``
    counts launches of the same task (1 = first try); ``speculative`` marks
    a backup attempt that won the race against a straggler.
    """

    job_id: int
    kind: TaskKind
    category: MapTaskCategory | None
    slave_id: int
    launch_time: float
    download_time: float = 0.0
    finish_time: float = math.nan
    attempt: int = 1
    speculative: bool = False

    @property
    def runtime(self) -> float:
        """Launch-to-completion duration (the paper's task runtime)."""
        return self.finish_time - self.launch_time


def mean_task_runtime(
    tasks: list[TaskRecord], kind: TaskKind, *categories: MapTaskCategory
) -> float:
    """Average runtime of one kind of ``tasks`` (NaN if none), as in Table I.

    For maps, ``categories`` narrows the average to those categories.
    """
    if kind is TaskKind.REDUCE:
        selected = [task for task in tasks if task.kind is TaskKind.REDUCE]
    elif categories:
        selected = [task for task in tasks if task.category in categories]
    else:
        selected = [task for task in tasks if task.kind is TaskKind.MAP]
    if not selected:
        return math.nan
    return sum(task.runtime for task in selected) / len(selected)


@dataclass
class JobMetrics:
    """Summary of one job's execution."""

    job_id: int
    submit_time: float
    first_launch_time: float = math.nan
    finish_time: float = math.nan
    tasks: list[TaskRecord] = field(default_factory=list)
    #: True when the job was abandoned (a task exhausted its retry budget).
    failed: bool = False
    failure_reason: str | None = None
    #: Failure class: ``"retry-budget"`` or ``"data-unavailable"``.
    failure_kind: str | None = None
    #: Attempts killed by node failures (requeued for re-execution).
    killed_attempts: int = 0
    #: Speculative backups launched / interrupted because the other copy won.
    speculative_launched: int = 0
    speculative_killed: int = 0

    @property
    def runtime(self) -> float:
        """The paper's MapReduce runtime: first launch to last completion."""
        return self.finish_time - self.first_launch_time

    @property
    def max_task_attempt(self) -> int:
        """Highest attempt number any completed task needed."""
        return max((task.attempt for task in self.tasks), default=0)

    @property
    def makespan(self) -> float:
        """Submit-to-finish duration (includes queueing in multi-job runs)."""
        return self.finish_time - self.submit_time

    def tasks_of(self, *categories: MapTaskCategory) -> list[TaskRecord]:
        """Map tasks whose category is one of ``categories``."""
        return [task for task in self.tasks if task.category in categories]

    @property
    def remote_task_count(self) -> int:
        """Number of map tasks that ran remote (cross-rack fetch)."""
        return len(self.tasks_of(MapTaskCategory.REMOTE))

    @property
    def stolen_task_count(self) -> int:
        """Normal map tasks that ran off their home node (rack-local + remote).

        This is the interpretation of the paper's Figure 8(a) "number of
        remote tasks": tasks whose input block had to leave its storage
        node.  Our simulator distinguishes a rack-local tier (as Hadoop
        does), so the strictly-cross-rack count is also available as
        :attr:`remote_task_count`.
        """
        return len(self.tasks_of(MapTaskCategory.RACK_LOCAL, MapTaskCategory.REMOTE))

    @property
    def degraded_task_count(self) -> int:
        """Number of degraded map tasks."""
        return len(self.tasks_of(MapTaskCategory.DEGRADED))

    def mean_degraded_read_time(self) -> float:
        """Average degraded-read (download) time over degraded tasks."""
        degraded = self.tasks_of(MapTaskCategory.DEGRADED)
        if not degraded:
            return math.nan
        return sum(task.download_time for task in degraded) / len(degraded)


@dataclass
class SimulationResult:
    """Everything one simulation trial produced."""

    jobs: dict[int, JobMetrics]
    failed_nodes: frozenset[int]
    scheduler: str
    seed: int
    #: Per-job (deposited, drained) shuffle byte totals; equal when every
    #: reducer fetched everything the maps emitted.
    shuffle_totals: dict[int, tuple[float, float]] = field(default_factory=dict)
    #: Fault-tolerance observations: detection latencies, blacklistings,
    #: recoveries, slowdowns (empty timeline for failure-free trials).
    faults: FaultTimeline = field(default_factory=FaultTimeline)

    @property
    def total_runtime(self) -> float:
        """First launch of any job to last completion of any job."""
        first = min(job.first_launch_time for job in self.jobs.values())
        last = max(job.finish_time for job in self.jobs.values())
        return last - first

    def job(self, job_id: int) -> JobMetrics:
        """Metrics for one job."""
        return self.jobs[job_id]


@dataclass(frozen=True)
class BoxplotStats:
    """The five-number summary the paper's boxplots show, plus outliers."""

    minimum: float
    lower_quartile: float
    median: float
    upper_quartile: float
    maximum: float
    mean: float
    outliers: tuple[float, ...] = ()

    @classmethod
    def from_samples(cls, samples: list[float]) -> "BoxplotStats":
        """Compute Tukey boxplot statistics from raw samples."""
        if not samples:
            raise ValueError("cannot summarise zero samples")
        ordered = sorted(samples)
        q1 = _percentile(ordered, 25)
        q2 = _percentile(ordered, 50)
        q3 = _percentile(ordered, 75)
        iqr = q3 - q1
        low_fence = q1 - 1.5 * iqr
        high_fence = q3 + 1.5 * iqr
        inliers = [value for value in ordered if low_fence <= value <= high_fence]
        outliers = tuple(value for value in ordered if value < low_fence or value > high_fence)
        return cls(
            minimum=inliers[0] if inliers else ordered[0],
            lower_quartile=q1,
            median=q2,
            upper_quartile=q3,
            maximum=inliers[-1] if inliers else ordered[-1],
            mean=sum(ordered) / len(ordered),
            outliers=outliers,
        )


def _percentile(ordered: list[float], percent: float) -> float:
    """Linear-interpolation percentile of an already sorted list."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * percent / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction
