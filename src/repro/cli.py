"""Command-line interface: ``repro <command>``.

Commands
--------
``repro list``
    List the reproducible experiments (paper figure/table numbers).
``repro run <experiment> [...]``
    Run one or more experiments and print their reports.
``repro simulate [options]``
    Run a single simulation trial with explicit parameters and print its
    summary -- handy for quick what-if exploration.  ``--policy`` (alias
    ``--scheduler``) accepts any registered policy name.
``repro policies list``
    List every registered scheduling policy with a one-line summary
    (see :mod:`repro.core.scheduler`; third-party policies added via
    ``register_scheduler`` appear here too).
``repro tournament [options]``
    Run every registered policy (or ``--policies``) over a shared scenario
    set -- fig-7/fig-8 style configurations plus, with ``--corpus``, the
    fuzzer's corpus -- through the crash-safe campaign engine, and print a
    ranked leaderboard.  ``--json``/``--html`` export the
    ``repro.tournament-report/v1`` document and a dashboard; the report is
    bit-identical across reruns and serial-vs-parallel execution
    (see :mod:`repro.experiments.tournament`).
``repro fuzz --trials N [options]``
    Generate random scenarios -- each under a policy drawn from the full
    registry, or a fixed set via ``--schedulers`` -- and run them under
    the invariant sanitizer (see :mod:`repro.check`); failures are shrunk
    and saved as repro files.
``repro reliability [options]``
    Run a long-horizon reliability campaign: a stochastic failure model plus
    open-loop Poisson traffic, reporting MTTDL/durability, degraded-read
    latency percentiles, repair-backlog dynamics, and a per-policy
    saturation verdict (see :mod:`repro.experiments.reliability`).
    ``--journal``/``--cache-dir`` make the window sweep crash-safe and
    resumable.
``repro campaign run|resume|status [options]``
    Crash-safe scheduler sweeps (see :mod:`repro.experiments.campaign`):
    ``run`` executes a seeds x schedulers grid with per-trial retries,
    timeouts, and quarantine, journaling every completion to ``--journal``;
    ``resume`` replays the journal and finishes only the missing trials
    (the final report is bit-identical to an uninterrupted run; a journal
    written by another code version is refused with exit 2); ``status``
    summarises a journal without running anything.  ``--cache-dir`` adds a
    content-addressed, sha256-verified result cache shared across
    campaigns.
``repro obs analyze <events.jsonl>``
    Post-hoc trace analytics over an exported event log: critical path,
    map-time attribution, scheduler decision audit, latency digests
    (see :mod:`repro.obs.analyze`).
``repro obs report <input> -o dashboard.html``
    Render an event log, run summary, or campaign report as a fully
    self-contained static HTML dashboard (no external assets).
``repro obs diff <baseline> <candidate>``
    Compare two analysis documents metric by metric; exits 4 when any
    metric regressed past its threshold.

``repro run --check`` / ``repro simulate --check`` run their trials under
the sanitizer too: any invariant violation prints a report and exits 3.

Exit codes
----------
``0``
    Success: every job completed.
``1``
    The trial ran but a job failed (retry budget exhausted or data
    unavailable after too many failures); the summary printed is the
    partial result.
``2``
    Bad invocation: unparsable flags, a malformed ``--code``/config file,
    or an unwritable output path.
``3``
    The sanitizer found an invariant violation (``--check`` / ``fuzz``).
``4``
    ``repro obs diff`` found a metric regression past its threshold.
``5``
    Interrupted and checkpointed: SIGINT/SIGTERM drained the in-flight
    trials into the journal and stopped; ``repro campaign resume`` (or
    re-running ``repro reliability`` with the same ``--journal``) finishes
    the remaining trials.

Environment knobs: ``REPRO_SEEDS`` (samples per configuration, default 30),
``REPRO_WORKERS`` (process-pool width), ``REPRO_TESTBED_RUNS`` (testbed
repetitions, default 3).
"""

from __future__ import annotations

import argparse
import sys

from repro.cluster.failures import FailurePattern
from repro.cluster.network import MB, mbps
from repro.ec.codec import CodeParams


#: The campaign-engine flags, each spelled here and nowhere else; a command
#: picks the ones it supports by short name (:func:`_engine_flags`).
_ENGINE_FLAGS = {
    "journal": ("--journal", dict(
        dest="journal_path", metavar="FILE",
        help="write-ahead JSONL journal of trial completions; re-running with "
        "the same journal skips finished trials (required for 'campaign resume')",
    )),
    "cache": ("--cache-dir", dict(
        dest="cache_dir", metavar="DIR",
        help="content-addressed, sha256-verified result cache shared across "
        "campaigns (corrupt entries are quarantined and recomputed)",
    )),
    "retries": ("--retries", dict(
        type=int, default=2,
        help="re-attempts per trial after the first try (default 2)",
    )),
    "timeout": ("--trial-timeout", dict(
        dest="trial_timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per trial attempt; an overrunning worker is "
        "killed and the trial retried",
    )),
    "backoff": ("--backoff", dict(
        type=float, default=0.5, metavar="SECONDS",
        help="base of the exponential retry backoff (default 0.5)",
    )),
    "workers": ("--workers", dict(
        type=int, default=None,
        help="pool width (default: REPRO_WORKERS or every core)",
    )),
}


def _engine_flags(subparser: argparse.ArgumentParser, *names: str, **overrides) -> None:
    for name in names:
        flag, options = _ENGINE_FLAGS[name]
        subparser.add_argument(flag, **{**options, **overrides})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Degraded-first scheduling for MapReduce in erasure-coded storage "
            "clusters (DSN'14) -- reproduction toolkit"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")

    run = commands.add_parser("run", help="run experiments by name")
    run.add_argument("experiments", nargs="+", help="e.g. fig3 fig5 fig7 fig8 fig9 table1")
    run.add_argument(
        "--check",
        action="store_true",
        help="run every trial under the invariant sanitizer; a violation "
        "prints a report and exits 3",
    )
    run.add_argument(
        "--summary",
        action="store_true",
        help="after each simulation-backed experiment, print a one-paragraph "
        "makespan + map-time-breakdown analysis of a representative "
        "fixed-seed failure trial",
    )

    fuzz = commands.add_parser(
        "fuzz", help="fuzz random scenarios under the invariant sanitizer"
    )
    fuzz.add_argument(
        "--trials", type=int, default=25, help="scenarios to generate (default 25)"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="scenario-stream seed")
    fuzz.add_argument(
        "--schedulers",
        default=None,
        metavar="NAMES",
        help="comma-separated policy names to run every scenario under "
        "(default: one policy drawn per scenario from the full registry)",
    )
    fuzz.add_argument(
        "--corpus",
        dest="corpus_dir",
        metavar="DIR",
        default=None,
        help="save shrunken failing scenarios as repro JSON into this "
        "directory (e.g. tests/corpus)",
    )
    fuzz.add_argument(
        "--report",
        dest="report_path",
        metavar="FILE",
        default=None,
        help="also write the full fuzz summary (outcomes + findings) as JSON",
    )
    fuzz.add_argument(
        "--max-dispatch",
        type=int,
        default=None,
        help="abort a trial as runaway after this many dispatched events",
    )
    fuzz.add_argument(
        "--campaign",
        dest="campaign_batches",
        type=int,
        default=0,
        metavar="N",
        help="also fuzz the campaign harness: N batches with randomized "
        "trial failures/timeouts/worker kills, asserting complete "
        "accounting (done + failed + quarantined == submitted)",
    )

    reliability = commands.add_parser(
        "reliability",
        help="run a long-horizon reliability campaign (MTTDL, latency tails)",
    )
    reliability.add_argument(
        "--model",
        default="exponential",
        choices=["exponential", "weibull", "bursts"],
        help="node-lifetime failure model (default exponential)",
    )
    reliability.add_argument(
        "--mttf-days",
        type=float,
        default=30.0,
        help="mean node time-to-failure in days (default 30)",
    )
    reliability.add_argument(
        "--mttr-hours",
        type=float,
        default=2.0,
        help="mean node repair time in hours (default 2)",
    )
    reliability.add_argument(
        "--weibull-shape",
        type=float,
        default=0.7,
        help="Weibull lifetime shape (default 0.7: infant mortality)",
    )
    reliability.add_argument(
        "--lse-mtbc-years",
        type=float,
        default=None,
        help="overlay latent sector errors with this per-block mean "
        "time-between-corruptions in years (off when omitted)",
    )
    reliability.add_argument(
        "--horizon-years",
        type=float,
        default=1.0,
        help="simulated time per iteration in years (default 1)",
    )
    reliability.add_argument(
        "--iterations",
        type=int,
        default=3,
        help="independently seeded availability iterations (default 3)",
    )
    reliability.add_argument(
        "--windows",
        type=int,
        default=3,
        help="full-fidelity MapReduce windows per campaign (default 3)",
    )
    reliability.add_argument(
        "--window-duration",
        type=float,
        default=1800.0,
        help="seconds of each full-fidelity window (default 1800)",
    )
    reliability.add_argument(
        "--arrival-mean",
        type=float,
        default=300.0,
        help="mean seconds between open-loop job arrivals (default 300)",
    )
    reliability.add_argument(
        "--blocks",
        type=int,
        default=60,
        help="input blocks per arriving job (default 60)",
    )
    reliability.add_argument("--seed", type=int, default=0)
    reliability.add_argument(
        "--check",
        action="store_true",
        help="assert generator determinism and run every window trial under "
        "the invariant sanitizer; a violation prints a report and exits 3",
    )
    reliability.add_argument(
        "--json",
        dest="json_path",
        metavar="FILE",
        help="also write the full campaign report as canonical JSON",
    )
    _engine_flags(reliability, "journal", "cache")

    campaign = commands.add_parser(
        "campaign",
        help="crash-safe scheduler sweeps: run / resume / status",
    )
    campaign_commands = campaign.add_subparsers(dest="campaign_command", required=True)

    def _campaign_execution_flags(subparser: argparse.ArgumentParser) -> None:
        _engine_flags(
            subparser, "journal", "cache", "retries", "timeout", "backoff", "workers"
        )
        subparser.add_argument(
            "--report",
            dest="report_path",
            metavar="FILE",
            help="also write the campaign report as canonical JSON "
            "(bit-identical across interrupted-and-resumed runs)",
        )

    campaign_run = campaign_commands.add_parser(
        "run", help="run a seeds x schedulers sweep from scratch"
    )
    campaign_run.add_argument(
        "--spec",
        dest="spec_path",
        metavar="FILE",
        help="load the sweep spec (repro.campaign/v1 JSON) from a file "
        "instead of building it from the flags below",
    )
    campaign_run.add_argument(
        "--schedulers",
        default="LF,BDF,EDF",
        help="comma-separated scheduler list (default LF,BDF,EDF)",
    )
    campaign_run.add_argument(
        "--seeds", type=int, default=5, help="seeds per scheduler (default 5)"
    )
    campaign_run.add_argument(
        "--nodes", type=int, default=40, help="cluster size (default 40)"
    )
    campaign_run.add_argument(
        "--blocks",
        type=int,
        default=1440,
        help="input blocks per job (default 1440; lower for quick sweeps)",
    )
    _campaign_execution_flags(campaign_run)

    campaign_resume = campaign_commands.add_parser(
        "resume", help="finish an interrupted sweep from its journal"
    )
    campaign_resume.add_argument(
        "--spec",
        dest="spec_path",
        metavar="FILE",
        help="sweep spec JSON (must match the interrupted run)",
    )
    campaign_resume.add_argument("--schedulers", default="LF,BDF,EDF")
    campaign_resume.add_argument("--seeds", type=int, default=5)
    campaign_resume.add_argument("--nodes", type=int, default=40)
    campaign_resume.add_argument("--blocks", type=int, default=1440)
    _campaign_execution_flags(campaign_resume)

    campaign_status = campaign_commands.add_parser(
        "status", help="summarise a campaign journal without running"
    )
    _engine_flags(
        campaign_status, "journal", required=True, help="the journal to inspect"
    )

    policies = commands.add_parser(
        "policies", help="inspect the scheduling-policy registry"
    )
    policies_commands = policies.add_subparsers(dest="policies_command", required=True)
    policies_commands.add_parser(
        "list", help="list registered policies with one-line summaries"
    )

    tournament = commands.add_parser(
        "tournament",
        help="rank every registered policy over a shared scenario set",
    )
    tournament.add_argument(
        "--policies",
        default=None,
        metavar="NAMES",
        help="comma-separated policy names (default: every registered policy)",
    )
    tournament.add_argument(
        "--seeds", type=int, default=3, help="seeds per scenario (default 3)"
    )
    tournament.add_argument(
        "--nodes", type=int, default=40, help="cluster size (default 40)"
    )
    tournament.add_argument(
        "--racks", type=int, default=4, help="rack count (default 4)"
    )
    tournament.add_argument("--code", default="20,15", help="n,k (e.g. 20,15)")
    tournament.add_argument(
        "--blocks",
        type=int,
        default=1440,
        help="input blocks per job (default 1440; lower for quick runs)",
    )
    tournament.add_argument(
        "--corpus",
        dest="corpus_dir",
        metavar="DIR",
        default=None,
        help="also race the policies over every fuzzer-corpus scenario "
        "in this directory (e.g. tests/corpus)",
    )
    tournament.add_argument(
        "--check",
        action="store_true",
        help="run every trial under the invariant sanitizer; violations "
        "surface as trial failures in the report",
    )
    tournament.add_argument(
        "--json",
        dest="json_path",
        metavar="FILE",
        help="also write the ranked repro.tournament-report/v1 JSON "
        "(bit-identical across reruns)",
    )
    tournament.add_argument(
        "--html",
        dest="html_path",
        metavar="FILE",
        help="also write the leaderboard as a self-contained HTML dashboard",
    )
    _engine_flags(tournament, "journal", "cache", "retries", "timeout", "workers")

    simulate = commands.add_parser("simulate", help="run one simulation trial")
    simulate.add_argument(
        "--check",
        action="store_true",
        help="run the trial under the invariant sanitizer; a violation "
        "prints a report and exits 3",
    )
    simulate.add_argument(
        "--config",
        dest="config_path",
        metavar="FILE",
        help="load the simulation configuration from a JSON file "
        "(other flags are ignored except --timeline/--json)",
    )
    simulate.add_argument(
        "--scheduler",
        "--policy",
        dest="scheduler",
        default="EDF",
        help="any registered policy name, case-insensitive "
        "(see 'repro policies list'; default EDF)",
    )
    simulate.add_argument("--nodes", type=int, default=40)
    simulate.add_argument("--racks", type=int, default=4)
    simulate.add_argument("--map-slots", type=int, default=4)
    simulate.add_argument("--code", default="20,15", help="n,k (e.g. 20,15)")
    simulate.add_argument("--blocks", type=int, default=1440)
    simulate.add_argument("--block-size-mb", type=float, default=128.0)
    simulate.add_argument("--bandwidth-mbps", type=float, default=1000.0)
    simulate.add_argument(
        "--failure",
        default="single-node",
        choices=[pattern.value for pattern in FailurePattern],
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--failure-time",
        type=float,
        default=None,
        help="inject the failure at this simulation time instead of at start",
    )
    simulate.add_argument(
        "--failure-trace",
        dest="failure_trace",
        metavar="FILE",
        help="drive failures from a scripted FailureSchedule JSON file "
        "(overrides --failure/--failure-time)",
    )
    simulate.add_argument(
        "--max-attempts",
        type=int,
        default=4,
        help="retry budget per task before the job is failed (default 4)",
    )
    simulate.add_argument(
        "--heartbeat-expiry",
        type=float,
        default=30.0,
        help="seconds of heartbeat silence before a node is declared dead",
    )
    simulate.add_argument(
        "--speculative",
        action="store_true",
        help="launch speculative backups for straggling map tasks",
    )
    simulate.add_argument(
        "--repair-bandwidth-mbps",
        type=float,
        default=None,
        help="enable the online repair driver with this aggregate bandwidth "
        "cap (disabled when omitted)",
    )
    simulate.add_argument(
        "--repair-concurrent",
        type=int,
        default=2,
        help="concurrent repair worker flows (default 2; needs "
        "--repair-bandwidth-mbps)",
    )
    simulate.add_argument(
        "--scrub-interval",
        type=float,
        default=None,
        help="proactively scan one node's blocks for corruption every this "
        "many seconds (needs --repair-bandwidth-mbps)",
    )
    simulate.add_argument(
        "--wait-for-repair",
        action="store_true",
        help="park tasks whose stripe is undecodable until repair/recovery "
        "restores it, instead of failing the job",
    )
    simulate.add_argument(
        "--timeline",
        action="store_true",
        help="render an ASCII map-slot activity chart (the paper's Figure 3 view)",
    )
    simulate.add_argument(
        "--json",
        dest="json_path",
        metavar="FILE",
        help="also write the full task trace as JSON",
    )
    simulate.add_argument(
        "--events",
        dest="events_path",
        metavar="FILE",
        help="record the trial's structured event log as JSON Lines",
    )
    simulate.add_argument(
        "--chrome-trace",
        dest="chrome_trace_path",
        metavar="FILE",
        help="write a Chrome trace-event JSON of the task timeline "
        "(open with Perfetto or chrome://tracing)",
    )
    simulate.add_argument(
        "--utilization-report",
        dest="utilization_report_path",
        metavar="FILE",
        help="write a plain-text slot/link utilization and profiling report "
        "('-' prints to stdout)",
    )
    simulate.add_argument(
        "--summary",
        action="store_true",
        help="print a one-paragraph makespan + map-time-breakdown analysis "
        "of the trial (critical path, locality/degraded rates)",
    )

    obs = commands.add_parser(
        "obs", help="post-hoc trace analytics: analyze / report / diff"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)

    analyze = obs_commands.add_parser(
        "analyze",
        help="analyze an exported event log (critical path, attribution)",
    )
    analyze.add_argument(
        "input",
        help="JSON Lines event log from 'repro simulate --events FILE'",
    )
    analyze.add_argument(
        "--summary",
        action="store_true",
        help="print the one-paragraph summary instead of the full report",
    )
    analyze.add_argument(
        "--json",
        dest="json_path",
        metavar="FILE",
        help="also write the versioned run-summary JSON ('-' prints to stdout)",
    )

    obs_report = obs_commands.add_parser(
        "report", help="render a self-contained static HTML dashboard"
    )
    obs_report.add_argument(
        "input",
        help="events JSONL, run-summary JSON, or a reliability-campaign or "
        "tournament report JSON",
    )
    obs_report.add_argument(
        "-o",
        "--output",
        default="report.html",
        metavar="FILE",
        help="HTML output path (default report.html)",
    )

    diff = obs_commands.add_parser(
        "diff",
        help="compare two analysis documents; exit 4 on metric regression",
    )
    diff.add_argument("baseline", help="baseline document (or events JSONL)")
    diff.add_argument("candidate", help="candidate document (or events JSONL)")
    diff.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative-change threshold for a regression (default 0.10)",
    )
    diff.add_argument(
        "--metric-threshold",
        action="append",
        default=[],
        metavar="NAME=FRACTION",
        help="per-metric threshold override, e.g. makespan_s=0.05 (repeatable)",
    )

    return parser


def _cmd_list() -> int:
    from repro.experiments.registry import list_experiments

    for name in list_experiments():
        print(name)
    return 0


#: Experiments whose headline setting a ``--summary`` trial can represent:
#: the paper's default cluster under a single-node failure, with the
#: experiment's featured scheduler.  Analysis-only (fig5), testbed (fig9),
#: and campaign (reliability) experiments have no single representative
#: simulation trial.
_SUMMARY_SCHEDULERS = {"fig3": "LF", "fig7": "EDF", "fig8": "BDF", "table1": "EDF"}


def _experiment_summary(name: str) -> str | None:
    """One-paragraph analysis of an experiment's representative trial."""
    scheduler = _SUMMARY_SCHEDULERS.get(name)
    if scheduler is None:
        return None
    from repro.mapreduce.config import SimulationConfig
    from repro.mapreduce.simulation import run_simulation
    from repro.obs import ObservabilityCollector
    from repro.obs.analyze import Timeline, analyze_timeline

    collector = ObservabilityCollector(keep_events=False)
    result = run_simulation(
        SimulationConfig(scheduler=scheduler, seed=0), observer=collector
    )
    timeline = Timeline.from_result(result)
    timeline.decisions = [event.to_dict() for event in collector.decisions]
    paragraph = analyze_timeline(timeline).summary_paragraph()
    return f"[{name} representative trial] {paragraph}"


def _cmd_run(names: list[str], check: bool = False, summary: bool = False) -> int:
    from repro.check import InvariantViolationError
    from repro.experiments.registry import get_experiment
    from repro.mapreduce.simulation import check_env

    catch = InvariantViolationError if check else ()
    # Experiments fan trials out over a process pool; the environment
    # variable is how check mode reaches the worker processes.
    with check_env(check):
        for name in names:
            runner = get_experiment(name)
            try:
                print(runner())
            except catch as error:
                print(error.report(), file=sys.stderr)
                print(f"experiment {name!r} violated an invariant", file=sys.stderr)
                return 3
            if summary:
                line = _experiment_summary(name)
                print(
                    line
                    if line is not None
                    else f"[{name}] no representative simulation trial to summarize"
                )
            print()
    return 0


def _cmd_reliability(args: argparse.Namespace) -> int:
    from repro.check import InvariantViolationError
    from repro.experiments.reliability import (
        CampaignConfig,
        render_report,
        report_to_json,
        run_campaign,
    )
    from repro.faults.models import (
        DAY,
        HOUR,
        YEAR,
        CompositeModel,
        CorrelatedBursts,
        ExponentialLifetimes,
        LatentSectorErrors,
        WeibullLifetimes,
    )
    from repro.mapreduce.config import JobConfig, SimulationConfig
    from repro.mapreduce.workload import PoissonArrivals

    base = SimulationConfig()
    try:
        mttf, mttr = args.mttf_days * DAY, args.mttr_hours * HOUR
        if args.model == "weibull":
            model = WeibullLifetimes(mttf=mttf, shape=args.weibull_shape, mttr=mttr)
        elif args.model == "bursts":
            model = CorrelatedBursts(mtbe=mttf, mttr=mttr)
        else:
            model = ExponentialLifetimes(mttf=mttf, mttr=mttr)
        if args.lse_mtbc_years is not None:
            num_stripes = -(-args.blocks // base.code.k)
            model = CompositeModel(
                models=(
                    model,
                    LatentSectorErrors(
                        num_stripes=num_stripes,
                        stripe_width=base.code.n,
                        block_mtbc=args.lse_mtbc_years * YEAR,
                    ),
                )
            )
        config = CampaignConfig(
            model=model,
            arrivals=PoissonArrivals(
                mean_interarrival=args.arrival_mean,
                templates=(JobConfig(num_blocks=args.blocks, num_reduce_tasks=8),),
            ),
            horizon=args.horizon_years * YEAR,
            iterations=args.iterations,
            num_windows=args.windows,
            window_duration=args.window_duration,
            base=base,
            seed=args.seed,
        )
    except ValueError as error:
        print(f"bad campaign options: {error}", file=sys.stderr)
        return 2
    from repro.experiments.campaign import CampaignInterrupted, StaleJournalError

    try:
        report = run_campaign(
            config,
            check=args.check,
            journal_path=args.journal_path,
            cache_dir=args.cache_dir,
        )
    except InvariantViolationError as error:
        print(error.report(), file=sys.stderr)
        print("sanitizer: the campaign violated simulator invariants", file=sys.stderr)
        return 3
    except CampaignInterrupted as stop:
        print(_interrupted_message(stop, args.journal_path), file=sys.stderr)
        return 5
    except StaleJournalError as error:
        print(error, file=sys.stderr)
        return 2
    print(render_report(report))
    if args.json_path and not _write_output(args.json_path, report_to_json(report)):
        return 2
    if args.json_path:
        print(f"campaign report written to {args.json_path}")
    return 0


def _interrupted_message(stop, journal_path: str | None) -> str:
    """The exit-code-5 explanation: what was saved and how to continue."""
    counters = stop.counters
    saved = (
        f"{counters.done} finished trial(s) checkpointed to {journal_path}; "
        "resume with the same --journal to finish the rest"
        if journal_path
        else "no --journal was given, so nothing was checkpointed"
    )
    return f"interrupted: {stop.remaining} trial(s) remaining; {saved}"


def _run_engine_command(args, spec, run, render, exports, label, check=False) -> int:
    """The one handler behind ``campaign run|resume`` and ``tournament``.

    Policy from the engine flags -> cache -> per-trial progress lines ->
    ``run(spec, policy, journal, cache, progress)`` (exit 5 when
    interrupted and checkpointed, exit 2 when the journal was written by
    another code version) -> ``render(report)`` -> ``exports``, a
    list of ``(path or None, serialise, what)`` (exit 2 when unwritable) ->
    cache statistics; exit 1 when a trial failed terminally.
    """
    from repro.experiments.campaign import (
        CampaignInterrupted,
        CampaignPolicy,
        StaleJournalError,
    )
    from repro.experiments.common import open_cache
    from repro.mapreduce.simulation import check_env

    try:
        policy = CampaignPolicy(
            retries=args.retries,
            trial_timeout=args.trial_timeout,
            backoff=getattr(args, "backoff", CampaignPolicy.backoff),
            workers=args.workers,
            on_error="collect",
        )
    except ValueError as error:
        print(f"bad {label} options: {error}", file=sys.stderr)
        return 2
    cache = open_cache(args.cache_dir)

    def progress(index: int, status: str, attempts: int) -> None:
        retried = f" (attempt {attempts})" if attempts > 1 else ""
        print(f"trial {index:4d}: {status}{retried}")

    try:
        with check_env(check):
            report, _outcome = run(spec, policy, args.journal_path, cache, progress)
    except CampaignInterrupted as stop:
        print(_interrupted_message(stop, args.journal_path), file=sys.stderr)
        return 5
    except StaleJournalError as error:
        print(error, file=sys.stderr)
        return 2
    print(render(report))
    for path, serialise, what in exports:
        if not path:
            continue
        if not _write_output(path, serialise(report)):
            return 2
        print(f"{what} written to {path}")
    if cache is not None:
        stats = cache.stats
        print(
            f"cache: {stats.hits} hit(s), {stats.misses} miss(es), "
            f"{stats.corrupt} corrupt, {stats.stores} store(s)"
        )
    return 1 if report["failures"] else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.experiments.campaign import (
        Journal,
        SweepSpec,
        journal_status,
        render_sweep_report,
        report_to_json,
        run_sweep,
    )

    if args.campaign_command == "status":
        status = journal_status(args.journal_path)
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0

    try:
        if args.spec_path:
            spec = SweepSpec.load(args.spec_path)
        else:
            from repro.mapreduce.config import JobConfig, SimulationConfig

            schedulers = tuple(
                name.strip() for name in args.schedulers.split(",") if name.strip()
            )
            spec = SweepSpec(
                base=SimulationConfig(
                    num_nodes=args.nodes,
                    jobs=(JobConfig(num_blocks=args.blocks),),
                ),
                schedulers=schedulers,
                seeds=tuple(range(args.seeds)),
            )
    except (OSError, ValueError) as error:
        print(f"bad campaign options: {error}", file=sys.stderr)
        return 2

    journal_path = args.journal_path
    if args.campaign_command == "resume":
        if not journal_path:
            print("campaign resume needs --journal", file=sys.stderr)
            return 2
        if not os.path.exists(journal_path):
            print(f"no journal at {journal_path!r} to resume from", file=sys.stderr)
            return 2
    elif journal_path and Journal.load(journal_path).records:
        print(
            f"journal {journal_path!r} already has finished trials; "
            "use 'repro campaign resume' to continue it",
            file=sys.stderr,
        )
        return 2
    return _run_engine_command(
        args,
        spec,
        run_sweep,
        render_sweep_report,
        [(args.report_path, report_to_json, "campaign report")],
        "campaign",
    )


def _cmd_policies(args: argparse.Namespace) -> int:
    from repro.core.scheduler import POLICIES

    if args.policies_command == "list":
        for name, summary in POLICIES.catalog():
            print(f"{name:<14} {summary}")
        return 0
    raise AssertionError(f"unhandled policies command {args.policies_command}")


def _parse_code(text: str) -> CodeParams | None:
    """``--code``'s ``n,k`` as :class:`CodeParams`; prints why and returns None if bad."""
    try:
        n_text, k_text = text.split(",")
        return CodeParams(int(n_text), int(k_text))
    except ValueError as error:
        print(f"bad --code value {text!r}: {error}", file=sys.stderr)
        return None


def _resolve_policies(text: str) -> tuple[str, ...]:
    """A comma-separated policy list, each name resolved; ``ValueError`` names a bad one."""
    from repro.core.scheduler import POLICIES

    return tuple(POLICIES.resolve(name.strip()) for name in text.split(",") if name.strip())


def _cmd_tournament(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import Journal
    from repro.experiments.tournament import (
        TournamentSpec,
        corpus_scenarios,
        default_scenarios,
        render_leaderboard,
        report_to_json,
        run_tournament,
    )
    from repro.mapreduce.config import JobConfig, SimulationConfig
    from repro.obs import report_html

    code = _parse_code(args.code)
    if code is None:
        return 2
    try:
        names = _resolve_policies(args.policies) if args.policies else ()
        base = SimulationConfig(
            num_nodes=args.nodes,
            num_racks=args.racks,
            code=code,
            jobs=(JobConfig(num_blocks=args.blocks),),
        )
        scenarios = default_scenarios(base)
        if args.corpus_dir:
            scenarios = scenarios + corpus_scenarios(args.corpus_dir)
        spec = TournamentSpec(
            scenarios=scenarios,
            policies=names,
            seeds=tuple(range(args.seeds)),
        )
    except (OSError, ValueError) as error:
        print(f"bad tournament options: {error}", file=sys.stderr)
        return 2

    if args.journal_path and Journal.load(args.journal_path).records:
        print(f"resuming tournament from journal {args.journal_path!r}")
    return _run_engine_command(
        args,
        spec,
        run_tournament,
        render_leaderboard,
        [
            (args.json_path, report_to_json, "tournament report"),
            (args.html_path, report_html, "leaderboard dashboard"),
        ],
        "tournament",
        check=args.check,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.mapreduce.config import JobConfig, SimulationConfig

    if args.config_path:
        from repro.mapreduce.serialization import load_config

        config = load_config(args.config_path)
        return _report_simulation(args, config)
    from repro.core.scheduler import POLICIES

    try:
        scheduler = POLICIES.resolve(args.scheduler)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    code = _parse_code(args.code)
    if code is None:
        return 2
    schedule = None
    if args.failure_trace:
        from repro.faults.schedule import FailureSchedule

        schedule = FailureSchedule.load(args.failure_trace)
    repair = None
    if args.repair_bandwidth_mbps is not None:
        from repro.storage.repair_driver import RepairConfig

        try:
            repair = RepairConfig(
                bandwidth_cap=mbps(args.repair_bandwidth_mbps),
                concurrent_repairs=args.repair_concurrent,
                scrub_interval=args.scrub_interval,
            )
        except ValueError as error:
            print(f"bad repair options: {error}", file=sys.stderr)
            return 2
    elif args.scrub_interval is not None:
        print(
            "--scrub-interval needs --repair-bandwidth-mbps", file=sys.stderr
        )
        return 2
    config = SimulationConfig(
        num_nodes=args.nodes,
        num_racks=args.racks,
        map_slots=args.map_slots,
        code=code,
        block_size=args.block_size_mb * MB,
        rack_bandwidth=mbps(args.bandwidth_mbps),
        jobs=(JobConfig(num_blocks=args.blocks),),
        failure=FailurePattern(args.failure),
        failure_time=args.failure_time,
        failure_schedule=schedule,
        max_attempts=args.max_attempts,
        heartbeat_expiry=args.heartbeat_expiry,
        speculative=args.speculative,
        repair=repair,
        wait_for_repair=args.wait_for_repair,
        scheduler=scheduler,
        seed=args.seed,
    )
    return _report_simulation(args, config)


def _report_simulation(args: argparse.Namespace, config) -> int:
    from repro.faults import JobFailedError
    from repro.mapreduce.simulation import run_simulation

    observer = None
    if args.events_path or args.utilization_report_path or args.summary:
        from repro.obs import ObservabilityCollector

        observer = ObservabilityCollector()
    if args.check:
        from repro.check import InvariantMonitor

        # The monitor wraps any requested collector, so --check composes
        # with the export flags; exports keep reading the inner collector.
        monitor = InvariantMonitor(collector=observer)
        observer = observer if observer is not None else monitor.collector
    else:
        monitor = None
    from repro.check import InvariantViolationError

    failure: JobFailedError | None = None
    try:
        result = run_simulation(
            config, observer=monitor if monitor is not None else observer
        )
    except InvariantViolationError as error:
        print(error.report(), file=sys.stderr)
        print("sanitizer: the trial violated simulator invariants", file=sys.stderr)
        return 3
    except JobFailedError as error:
        if error.result is None:
            print(f"job failed: {error}", file=sys.stderr)
            return 1
        failure = error
        result = error.result
    job = result.job(0)
    print(f"scheduler: {config.scheduler}")
    print(f"failed nodes: {sorted(result.failed_nodes)}")
    print(f"runtime: {job.runtime:.1f} s")
    print(f"degraded tasks: {job.degraded_task_count}")
    print(f"mean degraded read time: {job.mean_degraded_read_time():.1f} s")
    print(f"remote tasks (cross-rack): {job.remote_task_count}")
    _report_faults(result)
    if args.summary:
        from repro.obs.analyze import Timeline, analyze_timeline

        timeline = Timeline.from_result(result)
        timeline.decisions = [event.to_dict() for event in observer.decisions]
        timeline.event_counts = dict(observer.bus.counts)
        print()
        print(analyze_timeline(timeline).summary_paragraph())
    if args.timeline:
        from repro.mapreduce.trace import render_timeline

        print()
        print(render_timeline(result))
    if args.json_path:
        from repro.mapreduce.trace import to_json

        if not _write_output(args.json_path, to_json(result, indent=2) + "\n"):
            return 2
        print(f"trace written to {args.json_path}")
    if args.events_path:
        from repro.obs import events_jsonl

        if not _write_output(args.events_path, events_jsonl(observer.events)):
            return 2
        print(f"event log written to {args.events_path}")
    if args.chrome_trace_path:
        from repro.obs import chrome_trace_json

        if not _write_output(args.chrome_trace_path, chrome_trace_json(result)):
            return 2
        print(f"chrome trace written to {args.chrome_trace_path}")
    if args.utilization_report_path:
        report = observer.render_utilization_report()
        if args.utilization_report_path == "-":
            print()
            print(report, end="")
        elif _write_output(args.utilization_report_path, report):
            print(f"utilization report written to {args.utilization_report_path}")
        else:
            return 2
    if failure is not None:
        print(f"job failed: {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.check import run_fuzz
    from repro.check.fuzz import DEFAULT_MAX_DISPATCH

    if args.trials <= 0:
        print(f"--trials must be positive, got {args.trials}", file=sys.stderr)
        return 2
    schedulers = None
    if args.schedulers:
        try:
            schedulers = _resolve_policies(args.schedulers)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2

    def progress(trial: int, report) -> None:
        print(f"trial {trial:4d} {report.scheduler:>3}: {report.status}")

    summary = run_fuzz(
        args.trials,
        seed=args.seed,
        corpus_dir=args.corpus_dir,
        schedulers=schedulers,
        max_dispatch=(
            args.max_dispatch if args.max_dispatch is not None else DEFAULT_MAX_DISPATCH
        ),
        progress=progress,
    )
    outcomes = " ".join(
        f"{status}={count}" for status, count in sorted(summary["outcomes"].items())
    )
    print(f"fuzzed {summary['trials']} scenario(s) (seed {summary['seed']}): {outcomes}")
    if args.report_path and not _write_output(
        args.report_path, json.dumps(summary, indent=2, sort_keys=True) + "\n"
    ):
        return 2
    campaign_findings: list[str] = []
    if args.campaign_batches > 0:
        from repro.check import run_campaign_fuzz

        campaign_summary = run_campaign_fuzz(
            args.campaign_batches, seed=args.seed
        )
        campaign_findings = campaign_summary["violations"]
        print(
            f"campaign-fuzzed {campaign_summary['batches']} batch(es) "
            f"({campaign_summary['trials']} trial(s), seed {args.seed}): "
            f"{len(campaign_findings)} accounting violation(s)"
        )
    if summary["findings"] or campaign_findings:
        for finding in summary["findings"]:
            where = finding.get("path", "(not saved; pass --corpus)")
            print(
                f"finding [{finding['invariant']}] scheduler={finding['scheduler']}: "
                f"{finding['message']}\n  repro: {where}",
                file=sys.stderr,
            )
        for message in campaign_findings:
            print(f"finding [campaign-accounting]: {message}", file=sys.stderr)
        return 3
    return 0


def _load_analysis_document(path: str) -> dict:
    """Load an analysis document, analyzing event logs on the fly.

    Accepts any schema-tagged JSON document (run summary, reliability,
    tournament or sweep report) or a raw events JSONL, which is analyzed
    into a run summary.  Raises :class:`ValueError` with a usable message
    on anything else.
    """
    import json

    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise ValueError(f"cannot read {path!r}: {error}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            parsed = json.loads(text)
        except json.JSONDecodeError:
            parsed = None
        if isinstance(parsed, dict) and "schema" in parsed:
            return parsed
    from repro.obs import analyze_run, read_events_jsonl

    try:
        events = read_events_jsonl(text)
    except ValueError as error:
        raise ValueError(
            f"{path!r} is neither an analysis document (with a 'schema' "
            f"tag) nor an events JSONL: {error}"
        ) from None
    return analyze_run(events).to_dict()


def _cmd_obs_analyze(args: argparse.Namespace) -> int:
    from repro.obs import analyze_run, load_events_jsonl

    try:
        events = load_events_jsonl(args.input)
    except (OSError, ValueError) as error:
        print(f"cannot analyze {args.input!r}: {error}", file=sys.stderr)
        return 2
    analysis = analyze_run(events)
    # Write the JSON artifact before touching stdout: a downstream pipe
    # closing early (``| head``) must not cost the file.
    written = None
    if args.json_path and args.json_path != "-":
        if not _write_output(args.json_path, _summary_json(analysis)):
            return 2
        written = args.json_path
    print(analysis.summary_paragraph() if args.summary else analysis.render_text())
    if args.json_path == "-":
        print(_summary_json(analysis), end="")
    elif written:
        print(f"run summary written to {written}")
    return 0


def _summary_json(analysis) -> str:
    import json

    from repro.obs import sanitize

    return json.dumps(sanitize(analysis.to_dict()), indent=2, sort_keys=True) + "\n"


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import report_html

    try:
        document = _load_analysis_document(args.input)
        html_text = report_html(document)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if not _write_output(args.output, html_text):
        return 2
    print(f"dashboard written to {args.output}")
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_reports, has_regression, render_diff_text

    overrides: dict[str, float] = {}
    for item in args.metric_threshold:
        name, separator, value = item.partition("=")
        try:
            if not separator or not name:
                raise ValueError("expected NAME=FRACTION")
            overrides[name] = float(value)
        except ValueError as error:
            print(f"bad --metric-threshold {item!r}: {error}", file=sys.stderr)
            return 2
    try:
        baseline = _load_analysis_document(args.baseline)
        candidate = _load_analysis_document(args.candidate)
        rows = diff_reports(
            baseline, candidate, threshold=args.threshold, overrides=overrides
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(render_diff_text(rows))
    return 4 if has_regression(rows) else 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "analyze":
        return _cmd_obs_analyze(args)
    if args.obs_command == "report":
        return _cmd_obs_report(args)
    if args.obs_command == "diff":
        return _cmd_obs_diff(args)
    raise AssertionError(f"unhandled obs command {args.obs_command}")


def _write_output(path: str, text: str) -> bool:
    """Write an export, creating parent directories; False (and a clean
    stderr message) instead of a traceback when the path is unwritable."""
    from repro.obs import write_text

    try:
        write_text(path, text)
    except OSError as error:
        print(f"cannot write {path!r}: {error}", file=sys.stderr)
        return False
    return True


def _report_faults(result) -> None:
    """Print the fault-tolerance side of a trial, if anything happened."""
    faults = result.faults
    for record in faults.detections:
        print(
            f"detected node {record.node} dead at {record.detected_at:.1f} s "
            f"(failed {record.failed_at:.1f} s, latency {record.latency:.1f} s)"
        )
    for record in faults.recoveries:
        print(
            f"node {record.node} recovered at {record.at:.1f} s "
            f"(reclaimed {record.reclaimed_tasks} degraded tasks)"
        )
    for record in faults.blacklistings:
        print(
            f"node {record.node} blacklisted at {record.at:.1f} s "
            f"after {record.consecutive_failures} consecutive failures"
        )
    for record in faults.corruptions:
        print(
            f"block {record.block} found corrupt on node {record.node} "
            f"at {record.detected_at:.1f} s (via {record.via})"
        )
    if faults.repairs:
        first = min(record.started_at for record in faults.repairs)
        last = max(record.finished_at for record in faults.repairs)
        reclaimed = sum(record.reclaimed_tasks for record in faults.repairs)
        print(
            f"repairs: {len(faults.repairs)} blocks rebuilt "
            f"({faults.repaired_bytes / 1e6:.0f} MB fetched) between "
            f"{first:.1f} s and {last:.1f} s, "
            f"{reclaimed} degraded tasks reclassified"
        )
    killed = sum(job.killed_attempts for job in result.jobs.values())
    spec_launched = sum(job.speculative_launched for job in result.jobs.values())
    spec_killed = sum(job.speculative_killed for job in result.jobs.values())
    max_attempt = max(
        (job.max_task_attempt for job in result.jobs.values()), default=1
    )
    if killed or spec_launched or max_attempt > 1:
        print(
            f"attempts: killed={killed} max-per-task={max_attempt} "
            f"speculative-launched={spec_launched} speculative-killed={spec_killed}"
        )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiments, check=args.check, summary=args.summary)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "reliability":
        return _cmd_reliability(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "policies":
        return _cmd_policies(args)
    if args.command == "tournament":
        return _cmd_tournament(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "obs":
        return _cmd_obs(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
