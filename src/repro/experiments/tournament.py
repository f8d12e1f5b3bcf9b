"""Policy tournament: every registered scheduler over a shared scenario set.

The tournament is the research-platform payoff of the policy framework:
take a scenario set -- figure-7/figure-8 style configurations plus,
optionally, the fuzzer's corpus -- and run *every* policy over every
scenario and seed through the crash-safe campaign engine (journaled,
cached, resumable).  Per-policy makespan and degraded-read
:class:`~repro.obs.digest.LatencyDigest` aggregates feed a ranked
leaderboard emitted as a ``repro.tournament-report/v1`` JSON document and
an HTML dashboard (``repro obs report``).

Determinism contract: the trial grid is in canonical order
(scenario-major, then seed, then policy) and digests merge in grid order,
so the ranked report is bit-identical across reruns and across
serial-vs-parallel execution -- the same property the campaign layer
guarantees, inherited wholesale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.core.scheduler import registered_schedulers
from repro.experiments.cache import ResultCache
from repro.experiments.campaign import (
    CampaignOutcome,
    CampaignPolicy,
    failure_lines,
    merge_trials,
    report_to_json,  # noqa: F401 -- the one definition, importable from here
    run_grid,
)
from repro.mapreduce.config import SimulationConfig
from repro.mapreduce.serialization import config_to_dict

#: Schema tag of the ranked tournament report.
TOURNAMENT_SCHEMA = "repro.tournament-report/v1"


def default_scenarios(
    base: SimulationConfig | None = None,
) -> tuple[tuple[str, SimulationConfig], ...]:
    """The built-in scenario set, derived from the paper's fig-7/fig-8 axes.

    Every scenario is a variation of ``base`` (the paper's default cluster
    when omitted): the default single-node-failure run, the halved block
    size and rack-failure points of Figure 7, the half-speed-nodes
    heterogeneous cluster of Figure 8, and the ten-job open stream of
    Figure 7(f).  Names are stable identifiers used in reports and
    journals.
    """
    from repro.experiments.fig7_simulation import multi_job_config

    if base is None:
        base = SimulationConfig()
    half_block = replace(base, block_size=base.block_size / 2)
    heterogeneous = replace(
        base,
        speed_factors=tuple(
            1.0 if index % 2 == 0 else 0.5 for index in range(base.num_nodes)
        ),
    )
    from repro.cluster.failures import FailurePattern

    return (
        ("fig7-default", base),
        ("fig7-half-block", half_block),
        ("fig7-rack-failure", replace(base, failure=FailurePattern.RACK)),
        ("fig8-heterogeneous", heterogeneous),
        ("fig7f-multi-job", multi_job_config(base, 0)),
    )


def corpus_scenarios(corpus_dir: str) -> tuple[tuple[str, SimulationConfig], ...]:
    """Fuzzer-corpus scenarios: one per repro JSON, sorted by file name.

    The corpus entry's own scheduler is ignored -- the tournament runs
    *every* policy over each scenario; its embedded seed is likewise
    overridden by the tournament's seed axis.
    """
    from repro.check.fuzz import load_repro

    scenarios = []
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        config, _scheduler = load_repro(os.path.join(corpus_dir, name))
        scenarios.append((f"corpus-{name[:-len('.json')]}", config))
    return tuple(scenarios)


@dataclass(frozen=True)
class TournamentSpec:
    """A declarative tournament: scenarios x seeds x policies."""

    scenarios: tuple[tuple[str, SimulationConfig], ...] = field(
        default_factory=default_scenarios
    )
    policies: tuple[str, ...] = ()
    seeds: tuple[int, ...] = tuple(range(3))

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("tournament needs at least one scenario")
        if not self.seeds:
            raise ValueError("tournament needs at least one seed")
        if len({name for name, _ in self.scenarios}) != len(self.scenarios):
            raise ValueError("scenario names must be unique")
        if not self.policies:
            # Freeze the registry contents at spec-construction time so the
            # spec (and hence the report) is self-describing.
            object.__setattr__(self, "policies", tuple(registered_schedulers()))
        for name in self.policies:
            if name not in registered_schedulers():
                raise ValueError(
                    f"unknown policy {name!r}; choose from {registered_schedulers()}"
                )

    def grid(self) -> tuple[list[SimulationConfig], list[tuple[str, int, str]]]:
        """The trial grid and its (scenario, seed, policy) keys, in the
        canonical scenario-major order that makes reports bit-identical
        across serial, parallel, and resumed runs."""
        configs: list[SimulationConfig] = []
        keys: list[tuple[str, int, str]] = []
        for scenario_name, scenario in self.scenarios:
            for seed in self.seeds:
                for policy in self.policies:
                    configs.append(scenario.with_scheduler(policy).with_seed(seed))
                    keys.append((scenario_name, seed, policy))
        return configs, keys

    def to_dict(self) -> dict:
        return {
            "scenarios": [
                {"name": name, "config": config_to_dict(config)}
                for name, config in self.scenarios
            ],
            "policies": list(self.policies),
            "seeds": list(self.seeds),
        }


def run_tournament(
    spec: TournamentSpec,
    policy: CampaignPolicy | None = None,
    journal_path: str | None = None,
    cache: ResultCache | None = None,
    progress=None,
) -> tuple[dict, CampaignOutcome]:
    """Run (or resume) a tournament; returns (report, outcome).

    The report (schema ``repro.tournament-report/v1``) is the shared
    campaign envelope plus one :func:`~repro.experiments.campaign.merge_trials`
    row per policy (merged in grid order), each extended with its mean
    makespan and per-scenario completion counts, and the leaderboard.
    """
    keys, outcome, envelope = run_grid(spec, policy, journal_path, cache, progress)
    rows: dict[str, dict] = {}
    for name in spec.policies:
        mine = [
            (scenario_name, payload)
            for (scenario_name, _seed, key_policy), payload in zip(keys, outcome.results)
            if key_policy == name
        ]
        row, merged = merge_trials(payload for _scenario, payload in mine)
        scenarios_done = {scenario_name: 0 for scenario_name, _ in spec.scenarios}
        for scenario_name, payload in mine:
            if payload is not None and not payload["refused"]:
                scenarios_done[scenario_name] += 1
        rows[name] = {
            **row,
            "scenarios": scenarios_done,
            "makespan_mean_s": merged["makespan"].mean,
        }
    report = {
        "schema": TOURNAMENT_SCHEMA,
        "tournament": spec.to_dict(),
        **envelope,
        "policies": rows,
        "leaderboard": _rank(rows),
    }
    return report, outcome


def _rank(rows: dict[str, dict]) -> list[dict]:
    """Ranked leaderboard entries: lowest mean makespan wins.

    Ties break on degraded-read p99, then name; policies with no completed
    work rank last (alphabetically among themselves).  Composite jobs
    scores are carried along for the report reader.
    """
    import math

    def sort_key(item: tuple[str, dict]):
        name, row = item
        mean = row["makespan_mean_s"]
        p99 = row["degraded_read_seconds"]["p99"]
        return (
            mean if mean is not None else math.inf,
            p99 if p99 is not None else math.inf,
            name,
        )

    entries = []
    for rank, (name, row) in enumerate(sorted(rows.items(), key=sort_key), start=1):
        entries.append(
            {
                "rank": rank,
                "policy": name,
                "makespan_mean_s": row["makespan_mean_s"],
                "makespan_p50_s": row["makespan_seconds"]["p50"],
                "degraded_p99_s": row["degraded_read_seconds"]["p99"],
                "jobs_completed": row["jobs"]["completed"],
                "trials_done": row["done"],
                "refused": row["refused"],
            }
        )
    return entries


def render_leaderboard(report: dict) -> str:
    """Human-readable ranked leaderboard (the CLI's default output)."""
    accounting = report["accounting"]
    scenario_count = len(report["tournament"]["scenarios"])
    seed_count = len(report["tournament"]["seeds"])
    lines = [
        "== tournament ==",
        f"{len(report['policies'])} policies x {scenario_count} scenario(s)"
        f" x {seed_count} seed(s):"
        f" {accounting['submitted']} submitted, {accounting['done']} done,"
        f" {accounting['failed']} failed, {accounting['quarantined']} quarantined",
        f"{'rank':>4}  {'policy':<14} {'makespan mean':>14} {'p50':>9}"
        f" {'degraded p99':>13} {'jobs':>9}",
    ]

    def _fmt(value, pattern="{:.1f}s"):
        return pattern.format(value) if value is not None else "-"

    for entry in report["leaderboard"]:
        lines.append(
            f"{entry['rank']:>4}  {entry['policy']:<14}"
            f" {_fmt(entry['makespan_mean_s']):>14}"
            f" {_fmt(entry['makespan_p50_s']):>9}"
            f" {_fmt(entry['degraded_p99_s'], '{:.2f}s'):>13}"
            f" {entry['jobs_completed']:>9,}"
        )
    return "\n".join(lines + failure_lines(report))
