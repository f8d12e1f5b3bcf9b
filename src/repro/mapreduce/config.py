"""Configuration for one simulation run.

:class:`SimulationConfig` captures every knob the paper varies; its defaults
are the paper's default simulation configuration (Section V-B): 40 nodes in
4 racks, 4 map + 1 reduce slot per node, 1 Gbps rack bandwidth, 128 MB
blocks, a (20, 15) code, 1440 blocks, map times ~ N(20, 1), reduce times
~ N(30, 2), 30 reduce tasks, 1% shuffle, heartbeats every 3 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.cluster.failures import FailurePattern
from repro.cluster.network import MB, NetworkSpec, gbps
from repro.ec.codec import CodeParams
from repro.faults.schedule import FailureSchedule
from repro.storage.degraded import SourceSelection
from repro.storage.repair_driver import RepairConfig

#: The paper's three schedulers (the full accepted set, including ablation
#: variants and user registrations, comes from
#: :func:`repro.core.scheduler.registered_schedulers`).
SCHEDULERS = ("LF", "BDF", "EDF")


def _require(name: str, value: float, lower: float, lower_open: bool = False) -> None:
    """Raise unless ``lower <= value < inf`` (``lower < value`` if open)."""
    above = lower < value if lower_open else lower <= value
    if not (above and value < math.inf):
        bound = ">" if lower_open else ">="
        raise ValueError(f"{name} must be finite and {bound} {lower:g}, got {value!r}")


@dataclass(frozen=True)
class JobConfig:
    """One MapReduce job in a simulation.

    Parameters
    ----------
    num_blocks:
        Native blocks processed by this job (= number of map tasks).
    map_time_mean, map_time_std:
        Normal distribution of map processing time, seconds (for a node
        with ``speed_factor`` 1.0).
    reduce_time_mean, reduce_time_std:
        Normal distribution of reduce processing time, seconds.
    num_reduce_tasks:
        Reduce task count; 0 makes the job map-only.
    shuffle_ratio:
        Intermediate data emitted by each map task, as a fraction of the
        block size, split evenly across the reduce tasks.
    submit_time:
        Simulation time at which the job enters the FIFO queue.
    """

    num_blocks: int = 1440
    map_time_mean: float = 20.0
    map_time_std: float = 1.0
    reduce_time_mean: float = 30.0
    reduce_time_std: float = 2.0
    num_reduce_tasks: int = 30
    shuffle_ratio: float = 0.01
    submit_time: float = 0.0

    def __post_init__(self) -> None:
        # A NaN or infinite task time stalls the fluid network or never
        # finishes, and a negative one is clamped to a 1e-9 s task: reject
        # them here rather than far into the trial.  Zero stays valid (the
        # testbed passes measured means and deviations).
        for name in (
            "map_time_mean",
            "map_time_std",
            "reduce_time_mean",
            "reduce_time_std",
            "shuffle_ratio",
            "submit_time",
        ):
            _require(name, getattr(self, name), 0.0)
        if self.num_blocks <= 0:
            raise ValueError("job needs at least one block")
        if self.num_reduce_tasks < 0:
            raise ValueError("negative reduce task count")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one simulation trial."""

    # Cluster
    num_nodes: int = 40
    num_racks: int = 4
    map_slots: int = 4
    reduce_slots: int = 1
    speed_factors: tuple[float, ...] | None = None

    # Network
    rack_bandwidth: float = gbps(1)
    network_model: str = "fluid"

    # Storage
    code: CodeParams = field(default_factory=lambda: CodeParams(20, 15))
    block_size: float = 128 * MB
    placement: str = "random"
    source_selection: SourceSelection = SourceSelection.RANDOM

    # Workload
    jobs: tuple[JobConfig, ...] = field(default_factory=lambda: (JobConfig(),))

    # Failure
    failure: FailurePattern = FailurePattern.SINGLE_NODE
    failure_eligible: tuple[int, ...] | None = None
    failure_time: float | None = None
    #: Scripted churn timeline; when set it replaces ``failure`` /
    #: ``failure_time`` entirely (t=0 fail events are down-before-start,
    #: later events are crashes the master detects from heartbeat expiry).
    failure_schedule: FailureSchedule | None = None

    # Scheduling
    scheduler: str = "EDF"
    heartbeat_interval: float = 3.0
    heartbeat_stagger: bool = True
    reduce_slowstart: float = 0.05
    shuffle_drain_interval: float = 3.0

    # Fault tolerance
    #: Seconds of heartbeat silence before the master declares a node dead.
    heartbeat_expiry: float = 30.0
    #: Retry budget per task; exhausting it fails the job (JobFailedError).
    max_attempts: int = 4
    #: Consecutive declared deaths before a node is blacklisted (None = off).
    blacklist_threshold: int | None = 3
    #: Launch speculative backups for straggling map tasks.
    speculative: bool = False
    #: Straggler threshold: elapsed > multiplier x median completed map time.
    speculative_multiplier: float = 1.5

    # Online repair and resilient degraded reads
    #: Online repair driver knobs; None leaves lost blocks unrepaired (the
    #: paper's setting: degraded reads serve everything).
    repair: RepairConfig | None = None
    #: Park tasks whose stripe dropped below ``k`` readable blocks until
    #: repair/recovery restores decodability, instead of failing the job.
    wait_for_repair: bool = False
    #: Times a degraded read re-plans after losing a source mid-flight
    #: before the attempt is handed back to the master.
    degraded_read_retries: int = 3
    #: Base backoff (seconds) before a degraded read re-plans; scales
    #: linearly with the retry number.
    degraded_read_backoff: float = 1.0

    # Reproducibility
    seed: int = 0

    def __post_init__(self) -> None:
        # Imported here: the scheduler registry imports this module's types.
        from repro.core.scheduler import registered_schedulers

        if self.scheduler not in registered_schedulers():
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"choose from {registered_schedulers()}"
            )
        if self.num_nodes <= 1:
            raise ValueError("need at least two nodes")
        # A NaN or infinite interval, bandwidth or size stalls or hangs the
        # trial far from its cause, and a non-positive one runs silently to
        # a meaningless result: reject them here, naming the field.
        for name in (
            "heartbeat_interval",
            "heartbeat_expiry",
            "rack_bandwidth",
            "block_size",
            "degraded_read_backoff",
        ):
            _require(name, getattr(self, name), 0.0, lower_open=True)
        _require("shuffle_drain_interval", self.shuffle_drain_interval, 0.0)
        _require("speculative_multiplier", self.speculative_multiplier, 1.0, lower_open=True)
        if self.failure_time is not None:
            _require("failure_time", self.failure_time, 0.0)
        if not 0 <= self.reduce_slowstart <= 1:
            raise ValueError("reduce slowstart must be in [0, 1]")
        if self.speed_factors is not None:
            if len(self.speed_factors) != self.num_nodes:
                raise ValueError(
                    f"expected {self.num_nodes} speed factors, got {len(self.speed_factors)}"
                )
            for node, factor in enumerate(self.speed_factors):
                _require(f"speed_factors[{node}]", factor, 0.0, lower_open=True)
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.blacklist_threshold is not None and self.blacklist_threshold < 1:
            raise ValueError("blacklist threshold must be at least 1 (or None)")
        if self.degraded_read_retries < 0:
            raise ValueError("degraded_read_retries must be non-negative")

    @property
    def total_blocks(self) -> int:
        """Native blocks summed over all jobs (each job reads its own file)."""
        return sum(job.num_blocks for job in self.jobs)

    def network_spec(self) -> NetworkSpec:
        """The link capacities implied by ``rack_bandwidth``."""
        return NetworkSpec(rack_download_bw=self.rack_bandwidth)

    def with_scheduler(self, scheduler: str) -> "SimulationConfig":
        """Copy of this config using a different scheduler."""
        return replace(self, scheduler=scheduler)

    def with_failure(self, failure: FailurePattern) -> "SimulationConfig":
        """Copy of this config using a different failure pattern."""
        return replace(self, failure=failure)

    def with_failure_schedule(self, schedule: FailureSchedule) -> "SimulationConfig":
        """Copy of this config driven by a scripted failure schedule."""
        return replace(self, failure_schedule=schedule)

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Copy of this config using a different master seed."""
        return replace(self, seed=seed)
