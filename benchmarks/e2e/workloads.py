"""The seven workloads of the end-to-end benchmark, and the output checks.

A workload is ``prepare(ctx) -> state`` (build inputs, one untimed warm-up
operation) plus ``run(ctx, state)`` (the timed operations).  Every timed
call goes through :meth:`Context.op`, which times it, opens the tracer's
root span, and turns an exception into a failed operation.  The program
under test only ever sees the generated configs.

Work is sized in *groups* (one trial seed across the workload's
schedulers, one tournament pass, one storage round).  A full run uses
``full_groups``; ``--seconds S`` asks for ``round(S / group_s)`` groups,
where ``group_s`` is the group's cost measured on the 2-CPU reference box.
The amount of work is therefore fixed for a given ``S`` -- exact counts
repeat -- and a run that takes longer than twice ``S`` stops after the
current group.

Trial seeds are a pinned pool, ``0 .. groups - 1``.  One trial's host wall
moves 8-16 % from one trial seed to the next (measured), far more than a
run of this length can average out, so ``--seed`` does not pick new
trials: it rotates the order the pool runs in and seeds the ``ec_storage``
corpus, and every run does the same simulated work.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import traceback
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable

import repro
from repro import (
    FailEvent,
    FailurePattern,
    FailureSchedule,
    JobConfig,
    RecoverEvent,
    RepairConfig,
    SimulationConfig,
    SlowdownEvent,
    run_simulation,
)
from repro.cluster.network import NetworkSpec, gbps, mbps
from repro.cluster.topology import ClusterTopology
from repro.ec.codec import CodeParams
from repro.mapreduce.job import MapTaskCategory
from repro.mapreduce.serialization import result_to_json

#: The policies registered today, pinned by name so a later registration
#: does not silently change ``tournament_campaign``'s size.
TOURNAMENT_POLICIES = tuple(
    "BDF BDF-UNCAPPED CLONE CPATH EAGER EDF EDF-RACK EDF-SLAVE FIFO HETERO LF "
    "LF-DELAY RANDOM STEAL".split()
)

EC_NODES = 12
EC_BLOCK = 1024 * 1024
EC_CORPUS = 32 * EC_BLOCK
EC_WARMUP_ROUNDS = 4


class Context:
    """Times operations, collects samples, checks and simulated statistics."""

    def __init__(
        self, tracer, seed, groups, scratch, layer_kinds=(), deadline_s=None
    ) -> None:
        self.tracer = tracer
        self.seed = seed
        self.num_groups = groups
        #: A directory inside the checkout for journals and caches.
        self.scratch = scratch
        #: Step kinds the tracer records; empty in the untraced run.
        self.layer_kinds = layer_kinds
        self.deadline_s = deadline_s
        self.truncated = False
        self.samples: list[dict] = []
        self.failures: list[str] = []
        self.counters: dict[str, float] = {}
        #: label -> simulated makespan of a finished trial.
        self.makespans: dict[str, float] = {}
        self.sim = {
            "makespan_sum_s": 0.0,
            "degraded_read_s": [],
            "speculative_launched": 0,
            "detections": 0,
            "recoveries": 0,
            "slowdowns": 0,
            "repairs": 0,
            "reclaimed_tasks": 0,
        }
        self.flow_trace: dict | None = None

    @property
    def traced(self) -> bool:
        return bool(self.layer_kinds)

    def groups(self):
        """Group indices, cut short once twice the requested time is spent."""
        started = perf_counter()
        for group in range(self.num_groups):
            if (
                self.deadline_s is not None
                and perf_counter() - started > self.deadline_s
            ):
                self.truncated = True
                return
            yield group

    def trial_seeds(self):
        """The pinned pool, one seed a group, in the order ``--seed`` rotates."""
        for group in self.groups():
            yield (self.seed + group) % self.num_groups

    def op(
        self, label: str, fn: Callable, *args, kind="op", record_flows=False, **kwargs
    ):
        """Run ``fn`` as one timed operation; ``None`` when it raised.

        ``record_flows`` keeps this op's flow starts and cancels (traced run
        only) for the isolated allocator replay.
        """
        tracer = self.tracer
        tracer.active = kind in self.layer_kinds
        record_flows = record_flows and tracer.active
        if record_flows:
            tracer.record_flows()
            reallocations = tracer.flows["reallocations"]
        dispatched = tracer.dispatched
        result = None
        failed = False
        with tracer.op(label):
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:  # the benchmark must go on and count the failure
                failed = True
                self.failures.append(f"{label}: {traceback.format_exc(limit=4)}")
            wall = perf_counter() - started
        tracer.active = False
        if record_flows:
            self.flow_trace = tracer.stop_recording_flows()
            self.flow_trace["reallocations"] = (
                tracer.flows["reallocations"] - reallocations
            )
        self.samples.append(
            {
                "label": label,
                "kind": kind,
                "wall_s": wall,
                "failed": failed,
                "dispatched": tracer.dispatched - dispatched,
            }
        )
        return result

    def fail(self, label: str, message: str) -> None:
        """Mark the operation ``label`` failed: an output check broke."""
        self.failures.append(f"{label}: {message}")
        for sample in self.samples:
            if sample["label"] == label:
                sample["failed"] = True

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def note_result(self, label: str, result) -> None:
        """Check that every job finished and fold in the simulated statistics."""
        if result is None:
            return
        unfinished = [
            job_id
            for job_id, job in result.jobs.items()
            if job.failed or math.isnan(job.finish_time)
        ]
        if unfinished:
            self.fail(label, f"jobs {unfinished} did not finish")
            return
        self.makespans[label] = result.total_runtime
        sim = self.sim
        sim["makespan_sum_s"] += result.total_runtime
        for job in result.jobs.values():
            sim["degraded_read_s"].extend(
                task.download_time for task in job.tasks_of(MapTaskCategory.DEGRADED)
            )
            sim["speculative_launched"] += job.speculative_launched
        faults = result.faults
        sim["detections"] += len(faults.detections)
        sim["recoveries"] += len(faults.recoveries)
        sim["slowdowns"] += len(faults.slowdowns)
        sim["repairs"] += len(faults.repairs)
        sim["reclaimed_tasks"] += sum(r.reclaimed_tasks for r in faults.repairs)

    def edf_gain(self) -> float | None:
        """1 - median over seeds of EDF makespan / LF makespan (simulated)."""
        ratios = []
        for label, makespan in self.makespans.items():
            scheduler, _, trial = label.partition("/")
            baseline = self.makespans.get(f"LF/{trial}")
            if scheduler == "EDF" and baseline:
                ratios.append(makespan / baseline)
        return 1.0 - statistics.median(ratios) if ratios else None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: str
    group_s: float
    full_groups: int
    prepare: Callable
    run: Callable
    #: Step kinds whose spans and dispatch counts feed the layer metrics.
    layer_kinds: tuple[str, ...] = ("op",)
    #: Whether ``sim_edf_gain_frac`` is defined (paired LF and EDF trials).
    edf_gain: bool = False
    #: The paper's value of that gain, where it reports one.
    paper_edf_gain: float | None = None

    def groups_for(self, seconds: float | None) -> int:
        if seconds is None:
            return self.full_groups
        return max(1, round(seconds / self.group_s))


# -- simulator workloads ------------------------------------------------------


def _shrunk(config: SimulationConfig, blocks: int = 120) -> SimulationConfig:
    """The same config with small jobs: the untimed warm-up operation."""
    return replace(
        config,
        jobs=tuple(
            replace(job, num_blocks=min(job.num_blocks, blocks)) for job in config.jobs
        ),
    )


def _run_trials(ctx: Context, make_config, schedulers) -> None:
    for index, trial_seed in enumerate(ctx.trial_seeds()):
        for scheduler in schedulers:
            label = f"{scheduler}/s{trial_seed}"
            result = ctx.op(
                label,
                *(run_simulation, make_config(scheduler, trial_seed)),
                # One trace is enough for the replay: the first EDF trial's.
                record_flows=index == 0 and scheduler == "EDF",
            )
            ctx.note_result(label, result)


def _trial_workload(make_config, schedulers):
    def prepare(ctx: Context):
        run_simulation(_shrunk(make_config(schedulers[0], 0)))

    def run(ctx: Context, state) -> None:
        _run_trials(ctx, make_config, schedulers)

    return prepare, run


def fig7_config(model: str):
    def make(scheduler: str, seed: int) -> SimulationConfig:
        return SimulationConfig(scheduler=scheduler, seed=seed, network_model=model)

    return make


def churn_config(scheduler: str, seed: int) -> SimulationConfig:
    first = seed % 40
    while first in (17, 25):  # the scripted victims below stay distinct
        first = (first + 1) % 40
    schedule = FailureSchedule(
        (
            FailEvent(at=0.0, node=first),
            FailEvent(at=60.0, node=17),
            SlowdownEvent(at=40.0, node=25, factor=3.0, duration=120.0),
            RecoverEvent(at=200.0, node=17),
        )
    )
    return SimulationConfig(
        scheduler=scheduler,
        seed=seed,
        speed_factors=tuple(1.0 if node % 2 == 0 else 0.5 for node in range(40)),
        jobs=tuple(
            JobConfig(num_blocks=480, submit_time=60.0 * job) for job in range(3)
        ),
        failure_schedule=schedule,
        speculative=True,
        repair=RepairConfig(bandwidth_cap=mbps(400), concurrent_repairs=2),
    )


def scale_config(scheduler: str, seed: int) -> SimulationConfig:
    return SimulationConfig(
        scheduler=scheduler,
        seed=seed,
        num_nodes=200,
        num_racks=10,
        jobs=(JobConfig(num_blocks=7200),),
    )


def _prepare_observed(ctx: Context):
    from repro.obs import ObservabilityCollector

    config = _shrunk(fig7_config("fluid")("LF", 0))
    run_simulation(config)
    run_simulation(config, observer=ObservabilityCollector())
    run_simulation(config, check=True)


def _run_observed(ctx: Context, state) -> None:
    """Each config plain, observed and checked, back to back.

    The observed and checked trials are the operations; the plain trial is
    their paired denominator.  Zero perturbation is the output check.
    """
    from repro.check import InvariantViolationError
    from repro.obs import ObservabilityCollector

    def checked_trial(config):
        try:
            return run_simulation(config, check=True)
        except InvariantViolationError as error:
            ctx.count("check.violations", len(error.violations))
            raise

    make_config = fig7_config("fluid")
    for trial_seed in ctx.trial_seeds():
        for scheduler in ("LF", "EDF"):
            trial = f"{scheduler}/s{trial_seed}"
            config = make_config(scheduler, trial_seed)
            plain = ctx.op(f"plain/{trial}", run_simulation, config, kind="plain")
            observed = ctx.op(
                f"observed/{trial}",
                *(run_simulation, config),
                observer=ObservabilityCollector(),
            )
            checked = ctx.op(f"checked/{trial}", checked_trial, config)
            if plain is None:
                ctx.fail(f"observed/{trial}", "no plain trial to compare with")
                continue
            reference = result_to_json(plain)
            for mode, result in (("observed", observed), ("checked", checked)):
                label = f"{mode}/{trial}"
                ctx.note_result(label, result)
                if result is not None and result_to_json(result) != reference:
                    ctx.fail(label, f"{mode} result differs from the plain trial's")


# -- tournament_campaign ------------------------------------------------------


def _tournament_spec(policies=TOURNAMENT_POLICIES, scenarios=2):
    from repro.experiments.tournament import TournamentSpec

    base = SimulationConfig(jobs=(JobConfig(num_blocks=240, num_reduce_tasks=10),))
    named = (
        ("default", base),
        ("rack-failure", replace(base, failure=FailurePattern.RACK)),
    )
    return TournamentSpec(scenarios=named[:scenarios], policies=policies, seeds=(0,))


def _tournament_pass(spec, directory: str, name: str, workers: int, cache=None):
    """One ``run_tournament`` pass with its own journal under ``directory``."""
    from repro.experiments import tournament
    from repro.experiments.campaign import CampaignPolicy

    # Through the module attribute, so the traced run's wrapper is the callee.
    return tournament.run_tournament(
        spec,
        CampaignPolicy(workers=workers, on_error="collect"),
        os.path.join(directory, f"{name}.jsonl"),
        cache,
    )


def _new_cache(directory: str, name: str):
    from repro.experiments.cache import ResultCache

    return ResultCache(os.path.join(directory, name), repro.__version__)


def _prepare_tournament(ctx: Context):
    """Warm up on a four-policy, one-scenario pooled pass."""
    directory = os.path.join(ctx.scratch, "warm-up")
    small = _tournament_spec(TOURNAMENT_POLICIES[:4], scenarios=1)
    _tournament_pass(small, directory, "cold", 2, _new_cache(directory, "cache"))
    shutil.rmtree(directory)
    return _tournament_spec()


def _run_tournament(ctx: Context, spec) -> None:
    """Cold pooled passes are the operations; the extra passes are checks.

    After every cold pass a warm-cache pass; after the first one also a
    resume from the journal cut to half its lines, a serial engine pass
    and -- in the traced run, where its spans are the only in-process view
    of the trial bodies -- a plain loop over ``sweep_trial``.
    """
    from repro.experiments.campaign import sweep_trial
    from repro.experiments.tournament import report_to_json

    def finish(label, outcome_pair, reference=None):
        if outcome_pair is None:
            return None
        report, outcome = outcome_pair
        counters = outcome.counters
        if not counters.consistent() or counters.failed or counters.quarantined:
            ctx.fail(label, f"campaign accounting broke: {counters.to_dict()}")
        text = report_to_json(report)
        if reference is not None and text != reference:
            ctx.fail(label, "report JSON differs from the cold pass's")
        return text

    for group in ctx.groups():
        directory = os.path.join(ctx.scratch, f"pass-{group}")
        cache = _new_cache(directory, "cache")
        label = f"cold/{group}"
        cold = ctx.op(label, _tournament_pass, spec, directory, "cold", 2, cache)
        reference = finish(label, cold)
        if reference is None:
            continue
        ctx.count("campaign.trials", cold[1].counters.submitted)
        ctx.count("campaign.retried", cold[1].counters.retried)
        warm = ctx.op(
            f"warm/{group}",
            *(_tournament_pass, spec, directory, "warm", 2, cache),
            kind="warm",
        )
        if finish(label, warm, reference) is not None:
            ctx.count("campaign.cached", warm[1].counters.cached)
        for stat, value in cache.stats.to_dict().items():
            ctx.count(f"cache.{stat}", value)
        if group == 0:
            with open(os.path.join(directory, "cold.jsonl")) as handle:
                lines = handle.readlines()
            with open(os.path.join(directory, "resume.jsonl"), "w") as handle:
                handle.writelines(lines[: len(lines) // 2])
            resumed = ctx.op(
                "resume", _tournament_pass, spec, directory, "resume", 2, kind="resume"
            )
            if finish(label, resumed, reference) is not None:
                ctx.count("campaign.replayed", resumed[1].counters.replayed)
            serial_cache = _new_cache(directory, "serial-cache")
            serial = ctx.op(
                "serial",
                *(_tournament_pass, spec, directory, "serial", 1, serial_cache),
                kind="serial",
            )
            finish(label, serial, reference)
            if ctx.traced:
                configs, _keys = spec.grid()
                for index, config in enumerate(configs):
                    ctx.op(f"loop/{index}", sweep_trial, config, kind="loop")
        ctx.sim["makespan_sum_s"] += sum(
            row["telemetry"]["makespan"]["total"] for row in cold[0]["policies"].values()
        )
        shutil.rmtree(directory)


# -- ec_storage ---------------------------------------------------------------


def _prepare_ec(ctx: Context):
    from repro.sim.rng import RngStreams
    from repro.testbed.localfs import HdfsRaidFilesystem
    from repro.testbed.netem import EmulatedNetwork
    from repro.testbed.textgen import generate_corpus

    data = generate_corpus(EC_CORPUS, seed=ctx.seed)
    topology = ClusterTopology.from_rack_sizes([4, 4, 4], map_slots=4, reduce_slots=1)
    # time_scale 1e-9: transfers are accounted but nothing sleeps.
    netem = EmulatedNetwork(
        topology, NetworkSpec(rack_download_bw=gbps(1)), time_scale=1e-9
    )
    filesystem = HdfsRaidFilesystem(
        topology, CodeParams(12, 10), EC_BLOCK, netem, rng=RngStreams(ctx.seed)
    )
    state = {"fs": filesystem, "data": data, "blocks": filesystem.split_blocks(data)}
    for warm_up in range(EC_WARMUP_ROUNDS):
        _ec_round(state, warm_up)
    return state


def _ec_round(state, round_no: int) -> dict:
    """Write, lose two nodes, degraded-read, repair, read back; verify bytes."""
    filesystem, blocks = state["fs"], state["blocks"]
    k = filesystem.params.k
    block_map = filesystem.write_file(state["data"])
    failed = frozenset({round_no % EC_NODES, (round_no + 5) % EC_NODES})
    reader = next(node for node in range(EC_NODES) if node not in failed)
    mismatches = 0
    lost_natives = block_map.lost_native_blocks(failed)
    for block in lost_natives:
        payload, _elapsed = filesystem.degraded_read(block, reader, failed)
        mismatches += payload != blocks[block.stripe_id * k + block.position]
    # "Failed" is a view: the dead nodes' stores still hold the lost bytes.
    originals = {
        block: filesystem.stores[node].get(block)
        for node in failed
        for block in block_map.blocks_on_node(node)
    }
    plan = filesystem.repair_failed_nodes(failed)
    for repair in plan.repairs:
        payload, _elapsed = filesystem.read_block(repair.block, reader, failed)
        mismatches += payload != originals[repair.block]
    coding_lengths = [
        max(len(block) for block in blocks[start : start + k])
        for start in range(0, len(blocks), k)
    ]
    rebuilt = len(lost_natives) + len(plan.repairs)
    return {
        "mismatches": mismatches,
        "unrepaired": len(originals) - len(plan.repairs),
        "degraded_reads": len(lost_natives),
        "repaired": len(plan.repairs),
        "bytes_written": len(state["data"]),
        # Computed from block sizes: k blocks go in per stripe encoded and
        # per block rebuilt.
        "bytes_encoded": k * sum(coding_lengths),
        "bytes_rebuilt": k * rebuilt * max(coding_lengths),
    }


def _run_ec(ctx: Context, state) -> None:
    coder = state["fs"].codec.coder
    before = coder.plan_cache_info()
    for round_no in ctx.trial_seeds():
        label = f"round/{round_no}"
        outcome = ctx.op(label, _ec_round, state, EC_WARMUP_ROUNDS + round_no)
        if outcome is None:
            continue
        if outcome["mismatches"] or outcome["unrepaired"]:
            ctx.fail(label, f"bytes differ from the original: {outcome}")
        for name, value in outcome.items():
            ctx.count(f"ec.{name}", value)
    after = coder.plan_cache_info()
    for name in ("plan_hits", "plan_misses", "row_hits", "row_misses"):
        ctx.count(f"ec.{name}", after[name] - before[name])


# -- the table ----------------------------------------------------------------

_FIG7 = "40 nodes / 4 racks, (20,15), 1440 x 128 MB blocks, single-node failure"
_TRIPLE = ("LF", "BDF", "EDF")


def _workload(name, prepare_run, **fields) -> Workload:
    prepare, run = prepare_run
    return Workload(name=name, prepare=prepare, run=run, **fields)


WORKLOADS = {
    workload.name: workload
    for workload in (
        _workload(
            "fig7_fluid",
            _trial_workload(fig7_config("fluid"), _TRIPLE),
            why="the unit every figure sweep repeats; the fluid allocator is about "
            "half its wall, so allocator and engine work shows here first",
            params=f"run_simulation: {_FIG7}, fluid network; "
            "group = LF, BDF, EDF on one seed",
            group_s=2.7,
            full_groups=8,
            edf_gain=True,
            # Figure 7(a), (20,15): EDF cuts failure-mode runtime 32.9 % vs LF.
            paper_edf_gain=0.329,
        ),
        _workload(
            "fig7_exclusive",
            _trial_workload(fig7_config("exclusive"), _TRIPLE),
            why="same grid on the link-holding network: bypasses FluidNetwork, so a "
            "fluid change must show no change here; engine, master, scheduler dominate",
            params=f"run_simulation: {_FIG7}, exclusive network; "
            "group = LF, BDF, EDF on one seed",
            group_s=1.2,
            full_groups=14,
            edf_gain=True,
        ),
        _workload(
            "fig7_observed",
            (_prepare_observed, _run_observed),
            why="the fig7_fluid trial plain, with an ObservabilityCollector and with "
            "check=True: the cost of the obs bus and the sanitizer, absent elsewhere",
            params=f"{_FIG7}, fluid; group = LF, EDF on one seed, each run plain, "
            "observed and checked (the observed and checked trials are the ops)",
            group_s=7.6,
            full_groups=4,
        ),
        _workload(
            "churn_repair",
            _trial_workload(churn_config, ("LF", "EDF")),
            why="failures, a slowdown, recovery, speculation and throttled repair under "
            "three overlapping jobs: flow cancels, repair writes beside degraded reads",
            params="40 nodes at speed 1.0/0.5, 3 x 480-block jobs 60 s apart, "
            "FailureSchedule (fail a seed-chosen node at 0 and node 17 at 60 s, x3 "
            "slowdown of node 25 at 40 s for 120 s, recover 17 at 200 s), speculative, "
            "repair capped at 400 Mbps with 2 workers; group = LF, EDF on one seed",
            group_s=4.1,
            full_groups=6,
            edf_gain=True,
        ),
        _workload(
            "scale_200",
            _trial_workload(scale_config, _TRIPLE),
            why="cluster size is the input the allocator's cost depends on: shows "
            "whether reallocation cost tracks the touched component or the cluster",
            params="run_simulation: 200 nodes / 10 racks, 7200 blocks, (20,15), "
            "single-node failure, fluid; group = LF, BDF, EDF on one seed",
            group_s=20.0,
            full_groups=1,
            edf_gain=True,
        ),
        _workload(
            "tournament_campaign",
            (_prepare_tournament, _run_tournament),
            why="the only workload through experiments.campaign (pipes, journal fsync, "
            "cache), obs.digest and the zoo policies; small trials show engine overhead",
            params="run_tournament: 14 pinned policies x 2 scenarios (default, rack "
            "failure; 240 blocks, 10 reducers) x 1 seed = 28 trials, workers=2, fresh "
            "journal and cache; group = one cold pass, then a warm-cache pass (after "
            "the first: a resume, a serial pass and, traced, a plain sweep_trial loop)",
            group_s=4.0,
            full_groups=8,
            layer_kinds=("op", "warm", "resume", "serial", "loop"),
        ),
        _workload(
            "ec_storage",
            (_prepare_ec, _run_ec),
            why="no simulator: ec kernels and plan caches, testbed.localfs and "
            "storage.repair on real bytes, writes beside degraded reads beside repair",
            params="one HdfsRaidFilesystem: 12 nodes / 3 racks, RS(12,10), 1 MiB "
            "blocks, nothing sleeps; group = one round: write 32 MiB, fail 2 nodes, "
            "degraded-read the lost natives, repair, read the repaired blocks back",
            group_s=0.27,
            full_groups=60,
        ),
    )
}
