"""Top-level simulation entry point.

``run_simulation(config)`` builds the cluster, storage, scheduler, master
and slaves, injects the configured failure (an at-start pattern, a deferred
strike, or a scripted :class:`~repro.faults.schedule.FailureSchedule`), runs
the event loop to completion and returns a
:class:`~repro.mapreduce.metrics.SimulationResult`.  A job that exhausts its
retry budget aborts the trial with a
:class:`~repro.faults.errors.JobFailedError` carrying the partial result.

Passing an :class:`~repro.obs.ObservabilityCollector` as ``observer``
records structured events, scheduler decision traces and utilization
metrics for the trial.  Instrumentation is strictly passive -- it draws no
random numbers and schedules nothing on the event heap -- so an observed
trial produces a bit-identical :class:`SimulationResult`.
"""

from __future__ import annotations

import contextlib
import os

from repro.cluster.failures import FailureInjector, FailurePattern
from repro.cluster.nodetree import NodeTree
from repro.cluster.topology import ClusterTopology
from repro.core.scheduler import SchedulerContext, make_scheduler
from repro.faults.driver import failure_detector_process, install_schedule
from repro.faults.errors import DataUnavailableError, JobFailedError
from repro.mapreduce.config import SimulationConfig
from repro.mapreduce.master import JobTracker
from repro.mapreduce.metrics import SimulationResult
from repro.mapreduce.slave import SlaveRuntime
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.storage.hdfs import HdfsRaidCluster
from repro.storage.placement import PlacementError, rack_rule_feasible
from repro.storage.repair_driver import RepairDriver


def build_topology(config: SimulationConfig) -> ClusterTopology:
    """Construct the cluster topology a config describes."""
    if config.num_nodes % config.num_racks != 0:
        raise ValueError(
            f"{config.num_nodes} nodes do not divide into {config.num_racks} racks"
        )
    per_rack = config.num_nodes // config.num_racks
    return ClusterTopology.from_rack_sizes(
        [per_rack] * config.num_racks,
        map_slots=config.map_slots,
        reduce_slots=config.reduce_slots,
        speed_factors=list(config.speed_factors) if config.speed_factors else None,
    )


def expected_degraded_read_time(config: SimulationConfig) -> float:
    """The analysis estimate ``(R-1) k S / (R W)`` (Section IV-B).

    Used by EDF's rack-awareness guard as the minimum spacing between
    degraded launches in one rack.
    """
    R = config.num_racks  # noqa: N806 - paper notation
    k = config.code.k
    return (R - 1) * k * config.block_size / (R * config.rack_bandwidth)


@contextlib.contextmanager
def check_env(enabled: bool):
    """Set ``REPRO_CHECK=1`` for the block when ``enabled``, then restore it.

    The environment is how check mode reaches process-pool workers;
    :func:`check_requested` is its only reader.
    """
    previous = os.environ.get("REPRO_CHECK")
    if enabled:
        os.environ["REPRO_CHECK"] = "1"
    try:
        yield
    finally:
        if enabled and previous is None:
            os.environ.pop("REPRO_CHECK", None)
        elif enabled:
            os.environ["REPRO_CHECK"] = previous


def check_requested() -> bool:
    """Whether ``REPRO_CHECK`` asks for sanitized trials (non-empty, not ``0``)."""
    return os.environ.get("REPRO_CHECK", "") not in ("", "0")


def run_simulation(
    config: SimulationConfig, observer=None, check: bool | None = None
) -> SimulationResult:
    """Run one trial and return its metrics.

    The trial is fully determined by ``config`` (including ``config.seed``);
    ``observer`` (an :class:`~repro.obs.ObservabilityCollector`) is optional
    and never perturbs the result.

    With ``check=True`` (or ``REPRO_CHECK`` set non-empty in the
    environment, which is how check mode reaches process-pool workers) the
    trial runs under a :class:`~repro.check.InvariantMonitor`; a violated
    invariant raises :class:`~repro.check.InvariantViolationError` carrying
    the result and the violation report.  The monitor is as passive as a
    plain collector, so a checked trial is bit-identical to an unchecked
    one.  Passing an :class:`InvariantMonitor` as ``observer`` implies
    ``check=True``.
    """
    # Imported lazily: repro.check imports this module for its fuzz driver.
    from repro.check.invariants import InvariantMonitor

    if check is None:
        check = check_requested()
    if isinstance(observer, InvariantMonitor):
        monitor = observer
    elif check:
        monitor = InvariantMonitor(collector=observer)
        observer = monitor
    else:
        monitor = None
    bus = observer.bus if observer is not None else None
    setup_span = (
        observer.profiler.span("setup")
        if observer is not None
        else contextlib.nullcontext()
    )
    with setup_span:
        sim, tracker, runtime = _build_trial(config, observer, bus)
    run_span = (
        observer.profiler.span("run")
        if observer is not None
        else contextlib.nullcontext()
    )
    with run_span:
        sim.run()
    if observer is not None:
        observer.profiler.events_dispatched = sim.dispatched
        observer.profiler.events_emitted = bus.emitted
        observer.finalize(sim.now)
    result = SimulationResult(
        jobs=tracker.metrics,
        failed_nodes=tracker.failed_nodes,
        scheduler=config.scheduler,
        seed=config.seed,
        shuffle_totals={
            job_id: (shuffle.total_deposited, shuffle.total_drained)
            for job_id, shuffle in tracker.shuffles.items()
        },
        faults=tracker.faults,
    )
    if monitor is not None:
        monitor.raise_if_violations(result)
    if not tracker.finished:
        if tracker.parked_tasks > 0:
            raise DataUnavailableError(
                f"{tracker.parked_tasks} task(s) still parked waiting for "
                "repair when the event heap drained -- the lost data never "
                "became decodable again",
                result,
            )
        raise RuntimeError("simulation ended before all jobs completed")
    failed_jobs = sorted(
        job_id for job_id, metrics in tracker.metrics.items() if metrics.failed
    )
    if failed_jobs:
        reasons = "; ".join(
            f"job {job_id}: {tracker.metrics[job_id].failure_reason}"
            for job_id in failed_jobs
        )
        message = f"{len(failed_jobs)} job(s) failed -- {reasons}"
        if any(
            tracker.metrics[job_id].failure_kind == "data-unavailable"
            for job_id in failed_jobs
        ):
            raise DataUnavailableError(message, result)
        raise JobFailedError(message, result)
    return result


def _build_trial(
    config: SimulationConfig, observer, bus
) -> tuple[Simulator, JobTracker, SlaveRuntime]:
    """Assemble one trial's simulator, master and slaves (no events run yet)."""
    sim = Simulator()
    rng = RngStreams(config.seed)
    topology = build_topology(config)

    # A rack failure needs the Section III rack rule, which storage enforces
    # wherever the layout admits it; the paper's testbed layout does not.
    if (
        config.failure is FailurePattern.RACK
        and config.failure_schedule is None
        and not rack_rule_feasible(topology, config.code)
    ):
        raise PlacementError(
            f"failure=rack needs the rack rule, which code {config.code} "
            f"cannot satisfy on {config.num_nodes} nodes in {config.num_racks} racks"
        )

    # Storage: one erasure-coded file shared by all jobs, as in the paper's
    # simulator setup ("we create 1440 blocks in total").
    max_blocks = max(job.num_blocks for job in config.jobs)
    hdfs = HdfsRaidCluster(
        topology=topology,
        params=config.code,
        num_native_blocks=max_blocks,
        placement=config.placement,
        rng=rng,
        source_selection=config.source_selection,
    )

    if config.failure_schedule is not None:
        # Scripted churn: t=0 fail events are down-before-start (the paper's
        # setting); everything later is replayed mid-run by the driver and
        # detected by the master from heartbeat expiry.
        schedule = config.failure_schedule
        schedule.validate(topology)
        chosen_victims = schedule.initial_failures(topology)
        deferred_failure = False
        initial_failed = chosen_victims
    else:
        injector = FailureInjector(config.failure)
        eligible = list(config.failure_eligible) if config.failure_eligible else None
        chosen_victims = injector.choose_failed_nodes(topology, rng, eligible)
        # With a failure_time, the cluster starts healthy and the victims die
        # mid-run; otherwise they are down from the beginning.
        deferred_failure = config.failure_time is not None and bool(chosen_victims)
        initial_failed = frozenset() if deferred_failure else chosen_victims

    if chosen_victims and not config.wait_for_repair:
        # Fail fast on an undecodable initial failure set.  With
        # ``wait_for_repair`` the check is deferred to read time: tasks park
        # until scripted recoveries restore decodability.
        hdfs.block_map.check_recoverable(chosen_victims)

    scheduler = make_scheduler(
        config.scheduler,
        SchedulerContext(
            topology=topology,
            live_nodes=set(topology.node_ids()) - initial_failed,
            expected_degraded_read_time=expected_degraded_read_time(config),
            map_time_mean=config.jobs[0].map_time_mean,
            reduce_slowstart=config.reduce_slowstart,
        ),
    )

    scheduler.bus = bus
    nodetree = NodeTree(sim, topology, config.network_spec(), model=config.network_model)
    if config.repair is not None:
        # The virtual throttle link must exist before the observer snapshots
        # the link set, so repair traffic shows up in utilization reports.
        nodetree.add_throttle(RepairDriver.THROTTLE, config.repair.bandwidth_cap)
    if observer is not None:
        nodetree.set_observer(observer)
    tracker = JobTracker(
        sim,
        topology,
        hdfs,
        scheduler,
        initial_failed,
        max_attempts=config.max_attempts,
        blacklist_threshold=config.blacklist_threshold,
        speculative=config.speculative,
        speculative_multiplier=config.speculative_multiplier,
        bus=bus,
    )
    tracker.expect_jobs(len(config.jobs))
    runtime = SlaveRuntime(
        sim, config, tracker, nodetree, hdfs.planner, rng, observer=observer
    )

    if config.repair is not None:
        driver = RepairDriver(
            sim,
            config.repair,
            hdfs.block_map,
            nodetree,
            rng,
            tracker,
            config.block_size,
            bus=bus,
        )
        tracker.repair_driver = driver
        runtime.repair_driver = driver
        driver.start()

    for job_id, job_config in enumerate(config.jobs):
        sim.call_at(
            job_config.submit_time,
            lambda job_id=job_id, job_config=job_config: tracker.submit_job(
                job_id, job_config
            ),
        )

    if config.failure_schedule is not None:
        install_schedule(config.failure_schedule, runtime, topology)

    if deferred_failure:

        def strike() -> None:
            for victim in sorted(chosen_victims):
                runtime.fail_node(victim)

        sim.call_at(config.failure_time, strike)

    for node_id in sorted(topology.node_ids()):
        if node_id in initial_failed:
            continue
        runtime.spawn_slave(node_id)

    sim.spawn(failure_detector_process(runtime), name="failure-detector")

    # Sanitizers need trial internals the bus does not carry (block map,
    # failure views, slot capacities, the engine's dispatch stream); plain
    # collectors define no such hook.
    on_trial_built = getattr(observer, "on_trial_built", None)
    if on_trial_built is not None:
        on_trial_built(
            sim=sim, tracker=tracker, runtime=runtime, hdfs=hdfs, config=config
        )

    return sim, tracker, runtime
