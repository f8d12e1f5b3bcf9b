"""Scenario fuzzing: random trials under the sanitizer, with shrinking.

The fuzzer generates small random scenarios -- topology, erasure code,
heterogeneity, workload (scripted bursts or realized open-loop Poisson
arrivals), and a :class:`~repro.faults.schedule.FailureSchedule` of
fail/recover/slowdown/corrupt churn, either hand-scripted or realized from
a stochastic failure model (:mod:`repro.faults.models`) at fuzz-scale
rates -- and a *policy* drawn from the full scheduler registry
(:func:`repro.core.scheduler.registered_schedulers`, so third-party and
zoo policies are fuzzed the moment they register).  Each scenario runs
under its drawn policy with an
:class:`~repro.check.invariants.InvariantMonitor` attached, and treats any
invariant violation (or unexpected crash) as a finding.  Findings are
*shrunk* -- schedule events dropped, features disabled, the workload halved
-- while the failure signature still reproduces, and the minimal scenario
is saved as a JSON repro into ``tests/corpus/`` for the test suite to
replay forever after.

Generation is written against a tiny *chooser* interface (``randint`` /
``choice`` / ``uniform`` / ``random``) satisfied natively by
:class:`random.Random` and by a hypothesis ``draw`` adapter, so the CLI
fuzzer (``repro fuzz``) and the property suite
(``tests/property/test_sanitizer_properties.py``) explore the exact same
scenario space -- see :func:`scenario_strategy`.

Clean outcomes are ``ok`` plus the two *typed* refusals the simulator is
specified to produce (:class:`~repro.faults.errors.DataUnavailableError`
for genuinely lost data, :class:`~repro.faults.errors.JobFailedError` for
an exhausted retry budget); anything else is a bug.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import traceback
from dataclasses import dataclass, field, replace

from repro.check.invariants import InvariantMonitor, InvariantViolation, InvariantViolationError
from repro.cluster.failures import FailurePattern
from repro.core.scheduler import registered_schedulers
from repro.cluster.network import gbps, mbps
from repro.ec.codec import CodeParams
from repro.faults.errors import DataUnavailableError, JobFailedError
from repro.faults.schedule import (
    CorruptEvent,
    FailEvent,
    FailureSchedule,
    RecoverEvent,
    SlowdownEvent,
)
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.serialization import config_from_dict, config_to_dict
from repro.mapreduce.simulation import run_simulation

#: The paper's scheduler triple.  Kept as a stable constant for callers
#: that want exactly these three (the property suite always covers them);
#: scenario *generation* draws its policy from the live registry instead,
#: so every registered policy -- zoo and third-party included -- gets
#: fuzzed without touching this tuple.
SCHEDULERS = ("LF", "BDF", "EDF")

#: Runaway bounds: a fuzz trial exceeding either aborts with a ``runaway``
#: violation instead of spinning (e.g. a shrink candidate that strands
#: parked tasks under ``wait_for_repair`` would otherwise heartbeat
#: forever).  Generous against the scenario sizes generated here -- clean
#: trials stay well under a hundred thousand dispatches.
DEFAULT_MAX_DISPATCH = 2_000_000
MAX_SIM_TIME = 50_000.0

_MB = 1024 * 1024


@dataclass
class TrialReport:
    """Outcome of one checked trial: a status plus the evidence."""

    scheduler: str
    #: ``ok`` / ``data-unavailable`` / ``job-failed`` are clean outcomes;
    #: ``violation`` and ``crash`` are findings.
    status: str
    violations: list[InvariantViolation] = field(default_factory=list)
    message: str = ""

    @property
    def failed(self) -> bool:
        """Whether this trial is a finding (violation or crash)."""
        return self.status in ("violation", "crash")

    @property
    def signature(self) -> tuple[str, str]:
        """What shrinking must preserve: the status and the first broken
        invariant (empty for crashes, whose signature is the status alone --
        pinning the traceback would reject useful shrinks)."""
        invariant = self.violations[0].invariant if self.violations else ""
        return (self.status, invariant)


# -- scenario generation ------------------------------------------------------


class _DrawChooser:
    """Adapts a hypothesis ``draw`` function to the chooser interface.

    This is what makes :func:`build_scenario` genuinely shared between the
    CLI fuzzer (which passes a :class:`random.Random`) and the property
    suite: same generation code, two sources of choice.
    """

    def __init__(self, draw, strategies) -> None:
        self._draw = draw
        self._st = strategies

    def randint(self, low: int, high: int) -> int:
        return self._draw(self._st.integers(min_value=low, max_value=high))

    def choice(self, options):
        return options[self.randint(0, len(options) - 1)]

    def uniform(self, low: float, high: float) -> float:
        return self._draw(
            self._st.floats(
                min_value=low, max_value=high, allow_nan=False, allow_infinity=False
            )
        )

    def random(self) -> float:
        return self.uniform(0.0, 1.0)


def build_scenario(chooser) -> SimulationConfig:
    """Generate one random scenario from a chooser.

    ``chooser`` needs ``randint(low, high)`` (inclusive), ``choice(seq)``,
    ``uniform(low, high)`` and ``random()`` -- the :class:`random.Random`
    surface.  The scheduler policy is itself a fuzzed axis, drawn from the
    full registry rather than the paper's hard-coded triple.  Scenarios
    are kept small (seconds per checked trial) and
    *terminating*: every generated trial either completes or refuses with a
    typed error.  In particular ``wait_for_repair`` -- which parks tasks
    until their data returns -- is only enabled when every failed node is
    scripted to recover and nothing is corrupted, so parked work always
    wakes up.
    """
    # Erasure code and a topology that can place it: distinct nodes per
    # stripe (num_nodes >= n) with at most ``parity`` blocks per rack
    # (num_racks * parity >= n).
    k = chooser.randint(2, 4)
    parity = chooser.randint(2, 3)
    code = CodeParams(n=k + parity, k=k)
    min_racks = -(-code.n // parity)
    num_racks = chooser.randint(min_racks, min_racks + 2)
    per_rack = chooser.randint(1, 4)
    per_rack = max(per_rack, -(-code.n // num_racks))
    num_nodes = num_racks * per_rack

    speed_factors = None
    if chooser.random() < 0.3:
        # Heterogeneous slaves: per-node speed factors.
        speed_factors = tuple(
            round(chooser.uniform(0.5, 2.0), 3) for _ in range(num_nodes)
        )

    jobs = []
    num_jobs = 1 if chooser.random() < 0.7 else 2
    for index in range(num_jobs):
        jobs.append(
            JobConfig(
                num_blocks=chooser.randint(max(4, k), 20),
                map_time_mean=chooser.uniform(4.0, 20.0),
                map_time_std=chooser.uniform(0.1, 2.0),
                reduce_time_mean=chooser.uniform(5.0, 20.0),
                reduce_time_std=chooser.uniform(0.1, 2.0),
                num_reduce_tasks=chooser.randint(1, 4),
                shuffle_ratio=chooser.uniform(0.005, 0.05),
                submit_time=0.0 if index == 0 else chooser.uniform(0.0, 30.0),
            )
        )

    if chooser.random() < 0.3:
        # Open-loop axis: realize a Poisson arrival stream over the scripted
        # job templates.  The realized jobs land in the config directly, so
        # shrinking (which halves and drops jobs) works unchanged.
        from repro.mapreduce.workload import PoissonArrivals
        from repro.sim.rng import RngStreams

        arrived = PoissonArrivals(
            mean_interarrival=chooser.uniform(10.0, 60.0),
            templates=tuple(jobs),
        ).generate(
            RngStreams(chooser.randint(0, 2**31)), chooser.uniform(30.0, 120.0)
        )
        if arrived:  # an empty draw degenerates to the scripted burst
            jobs = list(arrived[:4])

    repair = None
    if chooser.random() < 0.4:
        from repro.storage.repair_driver import RepairConfig

        repair = RepairConfig(
            bandwidth_cap=mbps(chooser.choice([50, 100, 400])),
            concurrent_repairs=chooser.randint(1, 2),
            retry_backoff=chooser.uniform(0.5, 5.0),
            scrub_interval=(
                chooser.uniform(5.0, 30.0) if chooser.random() < 0.5 else None
            ),
        )

    num_stripes = -(-max(job.num_blocks for job in jobs) // k)
    blacklist_threshold = 3  # the SimulationConfig default
    if chooser.random() < 0.35:
        # Stochastic axis: realize a failure *model* into the scripted
        # schedule.  Model-generated churn re-fails recovered nodes, which
        # blacklisting would interact with pathologically (a node dying a
        # third time while blacklisted wedges repair), so it is disabled.
        schedule, all_recover, any_corrupt = _stochastic_schedule(
            chooser,
            num_racks=num_racks,
            per_rack=per_rack,
            num_stripes=num_stripes,
            n=code.n,
        )
        blacklist_threshold = None
    else:
        schedule, all_recover, any_corrupt = _build_schedule(
            chooser,
            num_nodes=num_nodes,
            num_stripes=num_stripes,
            n=code.n,
        )

    # Parking on lost data is only safe when the script guarantees the data
    # comes back; otherwise prefer the typed fail-fast refusal.
    wait_for_repair = all_recover and not any_corrupt and chooser.random() < 0.3

    return SimulationConfig(
        num_nodes=num_nodes,
        num_racks=num_racks,
        map_slots=chooser.randint(1, 4),
        reduce_slots=chooser.randint(1, 2),
        speed_factors=speed_factors,
        rack_bandwidth=gbps(chooser.choice([0.5, 1.0, 2.0])),
        code=code,
        block_size=chooser.choice([4, 8, 16]) * _MB,
        jobs=tuple(jobs),
        failure=FailurePattern.NONE,
        failure_schedule=schedule,
        heartbeat_interval=chooser.uniform(1.0, 4.0),
        heartbeat_expiry=chooser.uniform(8.0, 30.0),
        max_attempts=chooser.randint(2, 5),
        speculative=chooser.random() < 0.3,
        repair=repair,
        wait_for_repair=wait_for_repair,
        blacklist_threshold=blacklist_threshold,
        scheduler=chooser.choice(registered_schedulers()),
        seed=chooser.randint(0, 2**31),
    )


def _build_schedule(chooser, *, num_nodes: int, num_stripes: int, n: int):
    """Generate the scripted churn for one scenario.

    Each node fails at most once (repeated deaths would interact with
    blacklisting in ways that can wedge repair forever -- a scenario the
    simulator refuses rather than models).  Slowdowns only target nodes
    that never fail, and recoveries strictly follow their failure.
    """
    events: list = []
    num_fails = chooser.randint(1, min(3, num_nodes - 1))
    victims = []
    while len(victims) < num_fails:
        node = chooser.randint(0, num_nodes - 1)
        if node not in victims:
            victims.append(node)
    recovered = 0
    for victim in victims:
        at = 0.0 if chooser.random() < 0.5 else round(chooser.uniform(1.0, 60.0), 2)
        events.append(FailEvent(at=at, node=victim))
        if chooser.random() < 0.5:
            events.append(
                RecoverEvent(at=round(at + chooser.uniform(10.0, 120.0), 2), node=victim)
            )
            recovered += 1

    for _ in range(chooser.randint(0, 2)):
        node = chooser.randint(0, num_nodes - 1)
        if node in victims:
            continue
        events.append(
            SlowdownEvent(
                at=round(chooser.uniform(0.0, 60.0), 2),
                node=node,
                factor=round(chooser.uniform(1.5, 6.0), 2),
                duration=round(chooser.uniform(5.0, 60.0), 2),
            )
        )

    num_corrupts = chooser.randint(0, 2) if chooser.random() < 0.4 else 0
    for _ in range(num_corrupts):
        events.append(
            CorruptEvent(
                at=round(chooser.uniform(0.0, 40.0), 2),
                stripe=chooser.randint(0, num_stripes - 1),
                position=chooser.randint(0, n - 1),
            )
        )

    all_recover = recovered == len(victims)
    return FailureSchedule(tuple(events)), all_recover, num_corrupts > 0


def _stochastic_schedule(chooser, *, num_racks: int, per_rack: int, num_stripes: int, n: int):
    """Realize a stochastic failure model into one scenario's schedule.

    The chooser picks a model family (exponential / Weibull / correlated
    bursts / lifetimes + latent sector errors) and fuzz-scale rate
    parameters -- horizons of minutes, not months, so churn actually lands
    inside the trial.  The *realized* event stream is what goes into the
    config: shrinking drops events one at a time and corpus replay stays a
    plain scripted schedule, exactly as for hand-built churn.
    """
    from repro.cluster.topology import ClusterTopology
    from repro.faults import models
    from repro.sim.rng import RngStreams

    topology = ClusterTopology.from_rack_sizes([per_rack] * num_racks)
    horizon = chooser.uniform(60.0, 200.0)
    mttf = chooser.uniform(40.0, 300.0)
    mttr = chooser.uniform(20.0, 120.0)
    family = chooser.choice(["exponential", "weibull", "bursts", "lse-composite"])
    if family == "weibull":
        model = models.WeibullLifetimes(
            mttf=mttf, shape=chooser.uniform(0.5, 1.5), mttr=mttr
        )
    elif family == "bursts":
        model = models.CorrelatedBursts(
            mtbe=chooser.uniform(30.0, 120.0),
            burst_size_mean=chooser.uniform(1.0, 3.0),
            rack_bias=chooser.uniform(0.0, 1.0),
            mttr=mttr,
            spread=chooser.uniform(5.0, 20.0),
        )
    elif family == "lse-composite":
        model = models.CompositeModel(
            models=(
                models.ExponentialLifetimes(mttf=mttf, mttr=mttr),
                models.LatentSectorErrors(
                    num_stripes=num_stripes,
                    stripe_width=n,
                    block_mtbc=num_stripes * n * chooser.uniform(30.0, 150.0),
                ),
            )
        )
    else:
        model = models.ExponentialLifetimes(mttf=mttf, mttr=mttr)
    schedule = model.generate(
        topology, RngStreams(chooser.randint(0, 2**31)), horizon
    )
    failed: set[int] = set()
    recovered_nodes: set[int] = set()
    any_corrupt = False
    for event in schedule.events:
        if isinstance(event, FailEvent):
            failed.update(schedule.fail_targets(event, topology))
        elif isinstance(event, RecoverEvent):
            recovered_nodes.add(event.node)
        elif isinstance(event, CorruptEvent):
            any_corrupt = True
    return schedule, failed <= recovered_nodes, any_corrupt


def scenario_strategy():
    """A hypothesis strategy over the fuzzer's exact scenario space.

    Imported lazily so :mod:`repro.check` works without hypothesis
    installed; the property suite calls this at collection time.
    """
    import hypothesis.strategies as st

    @st.composite
    def _scenarios(draw) -> SimulationConfig:
        return build_scenario(_DrawChooser(draw, st))

    return _scenarios()


# -- checked execution --------------------------------------------------------


def run_checked_trial(
    config: SimulationConfig, max_dispatch: int = DEFAULT_MAX_DISPATCH
) -> TrialReport:
    """Run one scenario under the sanitizer and classify the outcome."""
    monitor = InvariantMonitor(max_dispatch=max_dispatch, max_sim_time=MAX_SIM_TIME)
    try:
        run_simulation(config, observer=monitor)
    except InvariantViolationError as error:
        return TrialReport(config.scheduler, "violation", violations=error.violations)
    except DataUnavailableError:
        return TrialReport(config.scheduler, "data-unavailable")
    except JobFailedError:
        return TrialReport(config.scheduler, "job-failed")
    except Exception:
        return TrialReport(config.scheduler, "crash", message=traceback.format_exc())
    return TrialReport(config.scheduler, "ok")


# -- shrinking ----------------------------------------------------------------


def _shrink_candidates(config: SimulationConfig):
    """Simpler variants of a failing scenario, most aggressive first."""
    schedule = config.failure_schedule
    if schedule is not None:
        for index, event in enumerate(schedule.events):
            kept = [other for position, other in enumerate(schedule.events) if position != index]
            if isinstance(event, FailEvent) and event.node is not None:
                # A recovery without its failure would revive a live node;
                # drop the pair together.
                kept = [
                    other
                    for other in kept
                    if not (isinstance(other, RecoverEvent) and other.node == event.node)
                ]
            yield replace(config, failure_schedule=FailureSchedule(tuple(kept)))
    if len(config.jobs) > 1:
        yield replace(config, jobs=config.jobs[:1])
    if config.speculative:
        yield replace(config, speculative=False)
    if config.speed_factors is not None:
        yield replace(config, speed_factors=None)
    if config.repair is not None and not config.wait_for_repair:
        yield replace(config, repair=None)
    if config.repair is not None and config.repair.scrub_interval is not None:
        yield replace(config, repair=replace(config.repair, scrub_interval=None))
    smaller_jobs = tuple(
        replace(job, num_blocks=max(config.code.k, job.num_blocks // 2))
        for job in config.jobs
    )
    if smaller_jobs != config.jobs:
        yield replace(config, jobs=smaller_jobs)


def shrink_scenario(
    config: SimulationConfig,
    report: TrialReport,
    max_dispatch: int = DEFAULT_MAX_DISPATCH,
) -> tuple[SimulationConfig, TrialReport]:
    """Greedily simplify a failing scenario while its signature reproduces.

    Tries each candidate in turn; the first that still fails with the same
    ``(status, invariant)`` signature is adopted and shrinking restarts
    from it, until no candidate reproduces.
    """
    config = config.with_scheduler(report.scheduler)
    while True:
        for candidate in _shrink_candidates(config):
            retry = run_checked_trial(candidate, max_dispatch=max_dispatch)
            if retry.failed and retry.signature == report.signature:
                config, report = candidate, retry
                break
        else:
            return config, report


# -- the fuzz driver ----------------------------------------------------------


def _repro_payload(config: SimulationConfig, report: TrialReport, found_by: dict) -> dict:
    head = report.violations[0].format() if report.violations else report.message.strip()
    return {
        "invariant": report.signature[1] or report.status,
        "scheduler": report.scheduler,
        "status": report.status,
        "message": head,
        "found_by": found_by,
        "config": config_to_dict(config),
    }


def save_repro(corpus_dir: str, payload: dict) -> str:
    """Write one minimal repro into the corpus; the name is content-keyed."""
    canonical = json.dumps(payload["config"], sort_keys=True)
    digest = hashlib.sha256(
        f"{payload['scheduler']}|{canonical}".encode()
    ).hexdigest()[:8]
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, f"repro-{payload['invariant']}-{digest}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_repro(path: str) -> tuple[SimulationConfig, str]:
    """Load one corpus entry back into a runnable (config, scheduler)."""
    with open(path) as handle:
        payload = json.load(handle)
    return config_from_dict(payload["config"]), payload["scheduler"]


def run_fuzz(
    trials: int,
    seed: int = 0,
    corpus_dir: str | None = None,
    schedulers: tuple[str, ...] | None = None,
    max_dispatch: int = DEFAULT_MAX_DISPATCH,
    progress=None,
) -> dict:
    """Fuzz ``trials`` scenarios; shrink and save findings.

    By default each scenario runs under its own *drawn* policy -- the
    scheduler axis is part of generation, sampled from the full registry --
    so coverage tracks whatever is registered.  Pass ``schedulers`` to
    instead pin an explicit set and run every scenario under each of them
    (the pre-registry behaviour, e.g. ``schedulers=SCHEDULERS`` for the
    paper triple).

    Returns a summary dict: trial/outcome counts plus one entry per finding
    (scheduler, signature, first violation, corpus path).  The scenario
    stream is fully determined by ``seed`` -- findings never perturb it, so
    a finding reproduces from its trial number alone.
    """
    rng = random.Random(seed)
    outcomes: dict[str, int] = {}
    findings: list[dict] = []
    for trial in range(trials):
        scenario = build_scenario(rng)
        for scheduler in schedulers if schedulers is not None else (scenario.scheduler,):
            report = run_checked_trial(
                scenario.with_scheduler(scheduler), max_dispatch=max_dispatch
            )
            outcomes[report.status] = outcomes.get(report.status, 0) + 1
            if progress is not None:
                progress(trial, report)
            if not report.failed:
                continue
            shrunk, shrunk_report = shrink_scenario(
                scenario.with_scheduler(scheduler), report, max_dispatch=max_dispatch
            )
            payload = _repro_payload(
                shrunk, shrunk_report, {"seed": seed, "trial": trial}
            )
            if corpus_dir is not None:
                payload["path"] = save_repro(corpus_dir, payload)
            findings.append(payload)
    return {
        "trials": trials,
        "seed": seed,
        "schedulers": (
            list(schedulers) if schedulers is not None else "drawn-per-scenario"
        ),
        "outcomes": outcomes,
        "findings": findings,
    }


# -- campaign-harness fuzzing -------------------------------------------------
#
# The campaign engine (:mod:`repro.experiments.campaign`) promises complete
# accounting no matter what the trials do: every submitted trial ends done,
# failed, or quarantined, and the engine terminates.  This axis attacks
# that promise directly with a runner that fails, hangs, dies, and recovers
# on a deterministic schedule, under randomized retry/timeout policies.


class FuzzTrialError(RuntimeError):
    """The deliberate failure a :class:`FaultyRunner` trial raises."""


@dataclass(frozen=True)
class FaultyRunner:
    """A deterministic fault-injecting toy runner for campaign fuzzing.

    Each trial's fate is drawn from a hash of its config (seed, scheduler)
    and the runner's ``seed`` -- the same trial misbehaves the same way on
    every attempt and across resumed runs, which is what journal-replay
    checks require.  Fates, by cumulative rate: *fail* (raise
    :class:`FuzzTrialError` on every attempt), *flaky* (fail until a marker
    file in ``flaky_dir`` exists, then succeed -- exercising the
    retry-then-recover path), *kill* (``SIGKILL`` the worker process,
    exercising worker-loss detection), *hang* (sleep ``hang_seconds``,
    exercising trial timeouts).  Anything else returns a small
    deterministic JSON payload, so journaling and caching work too.

    Kill and hang only trigger inside pool worker processes; in the
    driver process (the engine's serial path) they degrade to a plain
    raise, so fuzzing can never kill or wedge the test process itself.
    """

    seed: int = 0
    fail_rate: float = 0.0
    flaky_rate: float = 0.0
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    hang_seconds: float = 30.0
    flaky_dir: str | None = None

    def _trial_key(self, config: SimulationConfig) -> str:
        text = f"{self.seed}|{config.seed}|{config.scheduler}"
        return hashlib.sha256(text.encode()).hexdigest()

    def _roll(self, config: SimulationConfig) -> float:
        return int(self._trial_key(config)[:12], 16) / float(16**12)

    def _in_worker(self) -> bool:
        import multiprocessing

        return multiprocessing.parent_process() is not None

    def __call__(self, config: SimulationConfig) -> dict:
        roll = self._roll(config)
        threshold = self.fail_rate
        if roll < threshold:
            raise FuzzTrialError(f"injected failure for trial {config.seed}")
        threshold += self.flaky_rate
        if roll < threshold:
            if self.flaky_dir is None:
                raise FuzzTrialError("flaky trial without a flaky_dir")
            marker = os.path.join(self.flaky_dir, self._trial_key(config))
            if not os.path.exists(marker):
                with open(marker, "w") as handle:
                    handle.write("attempted\n")
                raise FuzzTrialError(
                    f"injected first-attempt failure for trial {config.seed}"
                )
        else:
            threshold += self.kill_rate
            if roll < threshold:
                if self._in_worker():
                    import signal as _signal

                    os.kill(os.getpid(), _signal.SIGKILL)
                raise FuzzTrialError(
                    f"injected kill (serial fallback) for trial {config.seed}"
                )
            threshold += self.hang_rate
            if roll < threshold:
                if self._in_worker():
                    import time as _time

                    _time.sleep(self.hang_seconds)
                raise FuzzTrialError(
                    f"injected hang (serial fallback) for trial {config.seed}"
                )
        return {
            "trial_seed": config.seed,
            "scheduler": config.scheduler,
            "value": self._trial_key(config)[:8],
        }


def run_campaign_fuzz(batches: int, seed: int = 0) -> dict:
    """Fuzz the campaign harness: randomized faults under randomized policies.

    Each batch builds a grid of toy trials, draws a fault mix (failures,
    first-attempt flakes, worker kills, hangs) and an execution policy
    (retries, workers, optional trial timeout), runs it through a
    journaled :class:`~repro.experiments.campaign.CampaignEngine`, then
    re-runs over the same journal.  Violations are recorded when the
    engine breaks its contract: incomplete accounting
    (``done + failed + quarantined != submitted``), a result list out of
    step with the accounting, an unexpected crash, or a resumed run whose
    replayed payloads differ from the originals.
    """
    import tempfile

    from repro.experiments.campaign import CampaignEngine, CampaignPolicy

    rng = random.Random(seed)
    violations: list[str] = []
    total_trials = 0
    for batch in range(batches):
        with tempfile.TemporaryDirectory(prefix="repro-campaign-fuzz-") as tmp:
            num_trials = rng.randint(4, 9)
            total_trials += num_trials
            configs = [
                SimulationConfig(
                    seed=1000 * batch + index,
                    scheduler=rng.choice(registered_schedulers()),
                )
                for index in range(num_trials)
            ]
            hang = rng.random() < 0.25
            runner = FaultyRunner(
                seed=seed * 7919 + batch,
                fail_rate=rng.uniform(0.0, 0.35),
                flaky_rate=rng.uniform(0.0, 0.35),
                kill_rate=rng.uniform(0.0, 0.25),
                hang_rate=0.2 if hang else 0.0,
                hang_seconds=30.0,
                flaky_dir=tmp,
            )
            policy = CampaignPolicy(
                retries=rng.randint(0, 2),
                trial_timeout=1.0 if hang else None,
                backoff=0.0,
                workers=rng.randint(2, 3),
                on_error="collect",
            )
            journal_path = os.path.join(tmp, "journal.jsonl")

            def check(tag: str, outcome) -> None:
                counters = outcome.counters
                if not counters.consistent():
                    violations.append(
                        f"batch {batch} [{tag}]: accounting broken: "
                        f"{counters.to_dict()}"
                    )
                resolved = sum(
                    1 for payload in outcome.results if payload is not None
                )
                if resolved != counters.done:
                    violations.append(
                        f"batch {batch} [{tag}]: {resolved} result(s) for "
                        f"{counters.done} done trial(s)"
                    )

            try:
                first = CampaignEngine(
                    runner=runner, policy=policy, journal_path=journal_path
                ).run(configs)
                check("first", first)
                resumed = CampaignEngine(
                    runner=runner, policy=policy, journal_path=journal_path
                ).run(configs)
                check("resumed", resumed)
                for index, (before, after) in enumerate(
                    zip(first.results, resumed.results)
                ):
                    if before is not None and before != after:
                        violations.append(
                            f"batch {batch}: replayed payload for trial "
                            f"{index} differs from the original"
                        )
            except Exception as error:
                violations.append(
                    f"batch {batch}: engine crashed: {error!r}\n"
                    + traceback.format_exc()
                )
    return {
        "batches": batches,
        "seed": seed,
        "trials": total_trials,
        "violations": violations,
    }
