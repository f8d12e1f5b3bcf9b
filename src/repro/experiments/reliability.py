"""Long-horizon reliability campaigns: MTTDL, latency tails, stability.

The paper evaluates schedulers over single scripted failures; a reliability
campaign asks the operational questions instead: *over years of simulated
churn, how often is data lost, how long do degraded reads take, and does any
scheduling policy fall over under sustained open-loop traffic?*  A campaign
pairs a stochastic failure model (:mod:`repro.faults.models`) with an
open-loop arrival process (:mod:`repro.mapreduce.workload`) and runs two
complementary phases:

**Phase A -- storage-level availability.**  The full horizon (years) is far
too long to simulate at MapReduce granularity, so availability is replayed
at block granularity: the generated schedule drives an event loop over the
real block placement, with failure detection after ``heartbeat_expiry``, a
repair server whose aggregate throughput is ``bandwidth_cap / (k * block
size)`` blocks per second (a bandwidth cap shares, so concurrency does not
change aggregate throughput), and stale-repair cancellation on node
recovery.  This yields the MTTDL estimate (censored lower bound when no
loss occurred), the durability fraction, and the repair-backlog dynamics.

**Phase B -- scheduler-level windows.**  Short windows are cut out of the
same generated schedule with :func:`repro.faults.models.slice_window`,
anchored at failure activity, and each window is run as a *full* MapReduce
trial per scheduling policy (LF/BDF/EDF) with open-loop job arrivals.
These trials produce the degraded-read latency percentiles (p50/p95/p99)
and the saturation verdict: under open-loop traffic an overloaded policy
shows job sojourn times growing with submit time, so the campaign fits a
sojourn-vs-submit slope per window and calls the policy ``saturated`` when
the average slope exceeds :data:`SATURATION_SLOPE`.

Phase A intentionally keeps each block's home fixed (a block rebuilt while
its node is down is counted available, and re-exposed if that node fails
again); this first-order approximation keeps the year-scale loop cheap
while Phase B retains full re-homing fidelity inside its windows.

Everything is deterministic for a campaign seed: model and arrival draws
come from named RNG substreams, window trials fan out over
:func:`repro.experiments.common.run_many` (serial and parallel runs are
bit-identical), and the report is a canonically ordered JSON document
(schema tag ``repro.reliability-campaign/v1``).  Window workers stream
their latency samples into mergeable :class:`repro.obs.digest.LatencyDigest`
histograms -- O(1) memory per worker, merged here in canonical window
order -- so campaign telemetry scales to arbitrarily long windows, and
each policy row carries its merged digests in a ``telemetry`` block.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from collections import deque
from dataclasses import dataclass, field

from repro.cluster.failures import FailurePattern
from repro.cluster.network import mbps
from repro.cluster.topology import ClusterTopology
from repro.experiments.campaign import (
    degraded_read_text,
    merge_trials,
    report_to_json,  # noqa: F401 -- the one definition, importable from here
    run_or_partial,
    trial_telemetry,
)
from repro.faults.models import (
    DAY,
    HOUR,
    YEAR,
    ExponentialLifetimes,
    FailureModel,
    slice_window,
)
from repro.faults.schedule import (
    CorruptEvent,
    FailEvent,
    FailureSchedule,
    RecoverEvent,
)
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.simulation import build_topology, check_env
from repro.mapreduce.workload import ArrivalProcess, PoissonArrivals
from repro.sim.rng import RngStreams
from repro.storage.block import BlockId
from repro.storage.placement import RackConstrainedRandomPlacement
from repro.storage.repair_driver import RepairConfig

#: Schema tag stamped on every campaign report.
REPORT_SCHEMA = "repro.reliability-campaign/v1"

#: Average sojourn-vs-submit slope above which a policy is called saturated:
#: each arriving job waiting half a second longer per second of campaign time
#: means the queue grows without bound under open-loop traffic.
SATURATION_SLOPE = 0.5

_POLICIES = ("LF", "BDF", "EDF")


@dataclass(frozen=True)
class CampaignConfig:
    """One reliability campaign: model + traffic + cluster + horizons.

    ``base`` supplies the cluster shape (nodes, racks, code, block size,
    bandwidth); its ``jobs`` / ``failure`` / ``scheduler`` / ``seed`` fields
    are ignored -- windows get open-loop arrivals, a schedule slice, and a
    derived seed instead.  The stored-file shape is derived from the largest
    arrival template (``ceil(num_blocks / k)`` stripes of ``n`` blocks),
    matching what each window trial stores.
    """

    model: FailureModel = field(default_factory=ExponentialLifetimes)
    arrivals: ArrivalProcess = field(
        default_factory=lambda: PoissonArrivals(
            mean_interarrival=300.0,
            templates=(JobConfig(num_blocks=60, num_reduce_tasks=8),),
        )
    )
    horizon: float = 1.0 * YEAR
    iterations: int = 3
    num_windows: int = 3
    window_duration: float = 1800.0
    policies: tuple[str, ...] = _POLICIES
    base: SimulationConfig = field(default_factory=SimulationConfig)
    repair: RepairConfig = field(
        default_factory=lambda: RepairConfig(bandwidth_cap=mbps(400.0))
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.iterations <= 0:
            raise ValueError(f"iterations must be positive, got {self.iterations}")
        if self.num_windows < 0:
            raise ValueError(f"num_windows must be >= 0, got {self.num_windows}")
        if self.window_duration <= 0:
            raise ValueError(
                f"window_duration must be positive, got {self.window_duration}"
            )
        if not self.policies:
            raise ValueError("need at least one scheduling policy")
        for policy in self.policies:
            if policy not in _POLICIES:
                raise ValueError(
                    f"unknown policy {policy!r}; choose from {_POLICIES}"
                )

    @property
    def num_stripes(self) -> int:
        """Stripes backing the largest arrival template's input file."""
        templates = getattr(self.arrivals, "templates", None) or (JobConfig(),)
        blocks = max(template.num_blocks for template in templates)
        return -(-blocks // self.base.code.k)

    def to_dict(self) -> dict:
        """The campaign parameters, as they appear in the report."""
        return {
            "model": self.model.to_dict(),
            "arrivals": self.arrivals.to_dict(),
            "horizon": self.horizon,
            "iterations": self.iterations,
            "num_windows": self.num_windows,
            "window_duration": self.window_duration,
            "policies": list(self.policies),
            "seed": self.seed,
            "cluster": {
                "num_nodes": self.base.num_nodes,
                "num_racks": self.base.num_racks,
                "code": [self.base.code.n, self.base.code.k],
                "block_size": self.base.block_size,
                "num_stripes": self.num_stripes,
            },
            "repair": {
                "bandwidth_cap": self.repair.bandwidth_cap,
                "concurrent_repairs": self.repair.concurrent_repairs,
            },
        }


# -- Phase A: block-granularity availability replay ---------------------------


class _AvailabilityStats:
    """Accumulators one availability replay fills in."""

    def __init__(self) -> None:
        self.loss_events = 0
        self.lost_stripe_time = 0.0
        self.node_down_time = 0.0
        self.backlog_peak = 0
        self.backlog_mean = 0.0
        self.backlog_first_half_mean = 0.0
        self.backlog_second_half_mean = 0.0
        self.backlog_final = 0
        self.blocks_repaired = 0


def _replay_availability(
    schedule: FailureSchedule,
    topology: ClusterTopology,
    assignment: dict[BlockId, int],
    parity: int,
    service_time: float,
    detection_delay: float,
    horizon: float,
) -> _AvailabilityStats:
    """Replay one generated schedule at block granularity.

    A single repair server with deterministic ``service_time`` per block
    models the bandwidth-capped repair driver's aggregate throughput; the
    queue is FIFO with lazy cancellation (a block whose node recovered is
    skipped when it reaches the head, mirroring the driver's stale-repair
    drop).
    """
    node_blocks: dict[int, list[BlockId]] = {}
    by_coord: dict[tuple[int, int], BlockId] = {}
    for block, node in assignment.items():
        node_blocks.setdefault(node, []).append(block)
        by_coord[(block.stripe_id, block.position)] = block
    for blocks in node_blocks.values():
        blocks.sort(key=lambda b: (b.stripe_id, b.position))

    stats = _AvailabilityStats()
    down: set[int] = set()
    fail_epoch: dict[int, int] = {}
    unavailable: set[BlockId] = set()
    stripe_missing: dict[int, int] = {}
    loss_since: dict[int, float] = {}
    pending: set[BlockId] = set()
    queue: deque[BlockId] = deque()
    in_flight: BlockId | None = None

    # Time-weighted backlog integration, split at the horizon midpoint so
    # the boundedness verdict can compare the two halves.
    half = horizon / 2.0
    last_depth_at = 0.0
    integral = [0.0, 0.0]

    def _note_depth(now: float) -> None:
        nonlocal last_depth_at
        depth = len(pending)
        start = last_depth_at
        while start < now:
            edge = half if start < half else horizon
            end = min(now, edge)
            integral[0 if start < half else 1] += depth * (end - start)
            start = end
        last_depth_at = now

    def _depth_changed(now: float) -> None:
        stats.backlog_peak = max(stats.backlog_peak, len(pending))

    def _mark_unavailable(now: float, block: BlockId) -> None:
        if block in unavailable:
            return
        unavailable.add(block)
        missing = stripe_missing.get(block.stripe_id, 0) + 1
        stripe_missing[block.stripe_id] = missing
        if missing == parity + 1:
            stats.loss_events += 1
            loss_since[block.stripe_id] = now

    def _mark_available(now: float, block: BlockId) -> None:
        if block not in unavailable:
            return
        unavailable.discard(block)
        missing = stripe_missing[block.stripe_id] - 1
        stripe_missing[block.stripe_id] = missing
        if missing == parity and block.stripe_id in loss_since:
            stats.lost_stripe_time += now - loss_since.pop(block.stripe_id)

    # Event heap: (time, sequence, kind, payload).  Kinds: 0 = schedule
    # event, 1 = failure detected, 2 = repair completed.
    heap: list[tuple[float, int, int, object]] = []
    sequence = 0
    for event in schedule.events:
        heapq.heappush(heap, (event.at, sequence, 0, event))
        sequence += 1

    def _start_next(now: float) -> None:
        nonlocal in_flight, sequence
        while in_flight is None and queue:
            block = queue.popleft()
            if block not in pending:
                continue  # cancelled by a recovery
            in_flight = block
            heapq.heappush(heap, (now + service_time, sequence, 2, block))
            sequence += 1

    down_since: dict[int, float] = {}
    while heap:
        now, _seq, kind, payload = heapq.heappop(heap)
        if now >= horizon:
            break
        _note_depth(now)
        if kind == 0:
            event = payload
            if isinstance(event, FailEvent):
                for node in schedule.fail_targets(event, topology):
                    if node in down:
                        continue
                    down.add(node)
                    down_since[node] = now
                    fail_epoch[node] = fail_epoch.get(node, 0) + 1
                    heapq.heappush(
                        heap,
                        (now + detection_delay, sequence, 1, (node, fail_epoch[node])),
                    )
                    sequence += 1
                    for block in node_blocks.get(node, ()):
                        _mark_unavailable(now, block)
            elif isinstance(event, RecoverEvent):
                node = event.node
                if node not in down:
                    continue
                down.discard(node)
                stats.node_down_time += now - down_since.pop(node)
                for block in node_blocks.get(node, ()):
                    if block is not in_flight and block in pending:
                        pending.discard(block)
                    _mark_available(now, block)
                _depth_changed(now)
            elif isinstance(event, CorruptEvent):
                block = by_coord.get((event.stripe, event.position))
                if block is None or block in pending:
                    continue
                _mark_unavailable(now, block)
                pending.add(block)
                queue.append(block)
                _depth_changed(now)
                _start_next(now)
            # SlowdownEvents do not affect availability.
        elif kind == 1:
            node, epoch = payload
            if node not in down or fail_epoch.get(node) != epoch:
                continue  # recovered (or re-failed) before detection
            for block in node_blocks.get(node, ()):
                if block in unavailable and block not in pending:
                    pending.add(block)
                    queue.append(block)
            _depth_changed(now)
            _start_next(now)
        else:
            block = payload
            in_flight = None
            if block in pending:
                pending.discard(block)
                stats.blocks_repaired += 1
                _mark_available(now, block)
            _start_next(now)

    _note_depth(horizon)
    for since in loss_since.values():
        stats.lost_stripe_time += horizon - since
    for since in down_since.values():
        stats.node_down_time += horizon - since
    stats.backlog_first_half_mean = integral[0] / half
    stats.backlog_second_half_mean = integral[1] / (horizon - half)
    stats.backlog_mean = (integral[0] + integral[1]) / horizon
    stats.backlog_final = len(pending)
    return stats


# -- Phase B: windowed full-fidelity trials -----------------------------------


def _window_telemetry(config: SimulationConfig) -> dict | None:
    """One window trial as O(1)-memory telemetry (module-level: journals
    hash its name).

    The shared :func:`~repro.experiments.campaign.trial_telemetry` payload
    plus the window's own observations: whether data was lost and the
    sojourn-vs-submit slope.  ``None`` means the trial refused at build
    time (an unrecoverable stripe) -- a data-loss observation, not a crash.
    """
    result = run_or_partial(config)
    if result is None:
        return None
    jobs = result.jobs.values()
    return {
        "data_loss": any(job.failure_kind == "data-unavailable" for job in jobs),
        "slope": _fit_slope(
            [
                (job.submit_time, job.makespan)
                for job in jobs
                if not (job.failed or math.isnan(job.finish_time))
            ]
        ),
        **trial_telemetry(result),
    }


def _window_starts(
    schedule: FailureSchedule,
    topology: ClusterTopology,
    config: CampaignConfig,
) -> list[float]:
    """Deterministic window anchors, biased toward failure activity.

    Windows open shortly before a fail event (so the crash, its detection,
    and the degraded aftermath all land inside); with fewer fail events than
    windows the remainder falls back to even spacing across the horizon.
    """
    latest = max(0.0, config.horizon - config.window_duration)
    lead = config.window_duration / 4.0
    fails = [
        event.at
        for event in schedule.events
        if isinstance(event, FailEvent) and 0.0 < event.at < config.horizon
    ]
    starts: list[float] = []
    if fails:
        count = min(config.num_windows, len(fails))
        step = (len(fails) - 1) / max(count - 1, 1)
        for index in range(count):
            anchor = fails[round(index * step)]
            starts.append(min(max(0.0, anchor - lead), latest))
    while len(starts) < config.num_windows:
        index = len(starts)
        starts.append(min((index + 0.5) * config.horizon / config.num_windows, latest))
    return starts


def _window_config(
    config: CampaignConfig,
    window: FailureSchedule,
    jobs: tuple[JobConfig, ...],
    policy: str,
    window_index: int,
) -> SimulationConfig:
    """The full-fidelity trial config for one (window, policy) cell."""
    return dataclasses.replace(
        config.base,
        jobs=jobs,
        failure=FailurePattern.NONE,
        failure_time=None,
        failure_schedule=window,
        scheduler=policy,
        seed=config.seed + 1000 + window_index,
        repair=config.repair,
        wait_for_repair=False,
        # Open-loop campaigns measure repeated degraded service on the same
        # nodes; blacklisting every struggling node would empty the cluster.
        blacklist_threshold=None,
    )


def _fit_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of y over x; None when underdetermined."""
    if len(points) < 2:
        return None
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    var = sum((x - mean_x) ** 2 for x, _ in points)
    if var == 0.0:
        return None
    cov = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return cov / var


def _summarize_policy(rows: list[dict | None]) -> dict:
    """One policy's report entry from its window payloads, in window order
    (the grid order :func:`~repro.experiments.campaign.merge_trials` needs).

    A refused window (``None``) and a window that lost data both count as
    data-loss windows; the stability verdict is the mean fitted slope
    against :data:`SATURATION_SLOPE`.
    """
    row, merged = merge_trials(rows)
    slopes = [r["slope"] for r in rows if r is not None and r["slope"] is not None]
    mean_slope = sum(slopes) / len(slopes) if slopes else None
    if mean_slope is None:
        stability = "no-data"
    elif mean_slope > SATURATION_SLOPE:
        stability = "saturated"
    else:
        stability = "stable"
    return {
        "degraded_read_seconds": row["degraded_read_seconds"],
        "jobs": row["jobs"],
        "sojourn": {"mean": merged["sojourn"].mean, "slope": mean_slope},
        "stability": stability,
        "data_loss_windows": sum(1 for r in rows if r is None or r["data_loss"]),
        "telemetry": row["telemetry"],
    }


# -- the campaign driver ------------------------------------------------------


def run_campaign(
    config: CampaignConfig,
    check: bool = False,
    journal_path: str | None = None,
    cache_dir: str | None = None,
) -> dict:
    """Run a full reliability campaign and return the report dict.

    With ``check`` on, generator determinism is asserted up front
    (:func:`repro.check.check_generator_determinism`) and every window trial
    runs under the invariant sanitizer (``REPRO_CHECK`` reaches the process
    pool); an :class:`~repro.check.InvariantViolationError` propagates.

    ``journal_path``/``cache_dir`` make the Phase B window sweep crash-safe
    and resumable via the campaign engine's write-ahead journal and
    verified result cache: re-running an interrupted campaign with the
    same journal skips finished windows and yields a bit-identical report
    (window telemetry payloads are plain JSON, so journal replay is exact).
    """
    topology = build_topology(config.base)
    params = config.base.code
    num_stripes = config.num_stripes
    assignment = RackConstrainedRandomPlacement(topology, params).place_file(
        num_stripes, RngStreams(config.seed)
    )
    service_time = params.k * config.base.block_size / config.repair.bandwidth_cap

    if check:
        from repro.check import (
            check_arrivals_determinism,
            check_generator_determinism,
        )

        check_generator_determinism(
            config.model, topology, config.seed, config.horizon
        )
        check_arrivals_determinism(
            config.arrivals, config.seed + 500, config.window_duration
        )

    # Phase A: availability over every iteration's independently seeded
    # year(s) of churn.  Iteration 0's schedule also anchors Phase B.
    totals = _AvailabilityStats()
    first_schedule: FailureSchedule | None = None
    iteration_rows: list[dict] = []
    second_half_bounded = True
    drained = True
    for iteration in range(config.iterations):
        schedule = config.model.generate(
            topology, RngStreams(config.seed + iteration), config.horizon
        )
        if first_schedule is None:
            first_schedule = schedule
        stats = _replay_availability(
            schedule,
            topology,
            assignment,
            params.parity,
            service_time,
            config.base.heartbeat_expiry,
            config.horizon,
        )
        totals.loss_events += stats.loss_events
        totals.lost_stripe_time += stats.lost_stripe_time
        totals.node_down_time += stats.node_down_time
        totals.blocks_repaired += stats.blocks_repaired
        totals.backlog_peak = max(totals.backlog_peak, stats.backlog_peak)
        totals.backlog_mean += stats.backlog_mean / config.iterations
        if stats.backlog_second_half_mean > 2.0 * stats.backlog_first_half_mean + 1.0:
            second_half_bounded = False
        if stats.backlog_final != 0:
            drained = False
        iteration_rows.append(
            {
                "seed": config.seed + iteration,
                "events": len(schedule),
                "loss_events": stats.loss_events,
                "backlog_peak": stats.backlog_peak,
                "blocks_repaired": stats.blocks_repaired,
            }
        )

    total_time = config.iterations * config.horizon
    total_blocks = num_stripes * params.n
    mttdl = total_time / totals.loss_events if totals.loss_events else None
    durability = 1.0 - totals.lost_stripe_time / (num_stripes * total_time)
    bounded = totals.backlog_peak <= total_blocks and second_half_bounded
    availability = {
        "total_time": total_time,
        "loss_events": totals.loss_events,
        "mttdl": mttdl,
        "mttdl_lower_bound": total_time if totals.loss_events == 0 else None,
        "censored": totals.loss_events == 0,
        "durability": durability,
        "node_downtime_fraction": totals.node_down_time
        / (config.base.num_nodes * total_time),
        "blocks_repaired": totals.blocks_repaired,
        "backlog": {
            "peak": totals.backlog_peak,
            "mean": totals.backlog_mean,
            "bounded": bounded,
            "drained": drained,
        },
        "iterations": iteration_rows,
    }

    # Phase B: windows cut from iteration 0, each run per policy with
    # open-loop arrivals at full MapReduce fidelity.
    starts = _window_starts(first_schedule, topology, config)
    windows: list[dict] = []
    grid: list[SimulationConfig] = []
    keys: list[tuple[int, str]] = []
    for index, start in enumerate(starts):
        window = slice_window(
            first_schedule, topology, start, config.window_duration
        )
        jobs = config.arrivals.generate(
            RngStreams(config.seed + 500 + index), config.window_duration
        )
        if not jobs:
            templates = getattr(config.arrivals, "templates", None) or (JobConfig(),)
            jobs = (dataclasses.replace(templates[0], submit_time=0.0),)
        windows.append(
            {
                "start": start,
                "duration": config.window_duration,
                "events": len(window),
                "jobs": len(jobs),
            }
        )
        for policy in config.policies:
            grid.append(_window_config(config, window, jobs, policy, index))
            keys.append((index, policy))

    from repro.experiments.common import run_many

    with check_env(check):
        results = run_many(
            grid,
            runner=_window_telemetry,
            journal_path=journal_path,
            cache_dir=cache_dir,
        )

    by_policy: dict[str, list[dict | None]] = {
        policy: [] for policy in config.policies
    }
    for (_index, policy), result in zip(keys, results):
        by_policy[policy].append(result)

    return {
        "schema": REPORT_SCHEMA,
        "config": config.to_dict(),
        "checked": check,
        "availability": availability,
        "windows": windows,
        "policies": {
            policy: _summarize_policy(by_policy[policy])
            for policy in config.policies
        },
    }


def render_report(report: dict) -> str:
    """Human-readable campaign summary (the CLI's default output)."""
    config = report["config"]
    availability = report["availability"]
    backlog = availability["backlog"]
    years = config["horizon"] / YEAR
    lines = [
        "== reliability campaign ==",
        f"model: {config['model']['kind']}  arrivals: {config['arrivals']['kind']}"
        f"  seed: {config['seed']}",
        f"horizon: {years:.2f} simulated year(s) x {config['iterations']}"
        f" iteration(s)  ({config['cluster']['num_nodes']} nodes,"
        f" ({config['cluster']['code'][0]},{config['cluster']['code'][1]}) code,"
        f" {config['cluster']['num_stripes']} stripes)",
    ]
    if availability["censored"]:
        lower_years = availability["mttdl_lower_bound"] / YEAR
        lines.append(
            f"MTTDL: no data loss observed (censored; >= {lower_years:.2f} years)"
        )
    else:
        lines.append(
            f"MTTDL: {availability['mttdl'] / YEAR:.3f} years"
            f" ({availability['loss_events']} loss event(s))"
        )
    lines.append(f"durability: {availability['durability']:.9f}")
    lines.append(
        f"repair backlog: peak {backlog['peak']} blocks, mean {backlog['mean']:.2f}"
        f" ({'bounded' if backlog['bounded'] else 'UNBOUNDED'},"
        f" {'drained' if backlog['drained'] else 'not drained'})"
        f"  blocks repaired: {availability['blocks_repaired']}"
    )
    lines.append(
        f"windows: {len(report['windows'])} x {config['window_duration']:.0f} s"
        " at full MapReduce fidelity"
    )
    for policy, row in report["policies"].items():
        tail = degraded_read_text(row["degraded_read_seconds"])
        jobs = row["jobs"]
        lines.append(
            f"  {policy:>3}: {tail}; jobs {jobs['completed']}/{jobs['submitted']}"
            f" completed; {row['stability']}"
            + (
                f" (slope {row['sojourn']['slope']:.3f})"
                if row["sojourn"]["slope"] is not None
                else ""
            )
            + (
                f"; {row['data_loss_windows']} data-loss window(s)"
                if row["data_loss_windows"]
                else ""
            )
        )
    if report["checked"]:
        lines.append("sanitizer: every window trial ran under the invariant monitor")
    return "\n".join(lines)


def main() -> str:
    """Registry entry point: a small default campaign, formatted."""
    config = CampaignConfig(
        model=ExponentialLifetimes(mttf=10.0 * DAY, mttr=4.0 * HOUR),
        horizon=0.1 * YEAR,
        iterations=1,
        num_windows=2,
    )
    return render_report(run_campaign(config))
