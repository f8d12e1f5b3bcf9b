"""The CLI contract in two tables: exit codes 0-5 and the campaign flag surface.

Both tables were written against the CLI *before* PR 15 collapsed
``campaign run|resume`` and ``tournament`` onto one handler and spelled
each engine flag once; they pass unchanged after it.  A refactor of
``cli.py`` that moves a row here changed behaviour, not structure.

Engine-level outcomes (a terminally failed trial, an interrupt) are forced
by patching :class:`~repro.experiments.campaign.CampaignEngine` itself, so
the rows do not depend on which wrapper (sweep, tournament, reliability
window sweep) sits between the command and the engine.
"""

from __future__ import annotations

import argparse
import json
import os

import pytest

from repro.cli import _build_parser, main
from repro.experiments.campaign import CampaignEngine

_REPORTS = os.path.join(os.path.dirname(__file__), "..", "golden", "reports")

_SIM = ["simulate", "--nodes", "6", "--racks", "2", "--code", "4,2", "--blocks", "24"]
# 48 blocks keep the degraded backlog long enough that BDF's pacing forbids
# a launch, which the forced break (the mutation hook) then takes anyway.
_BDF = ["--nodes", "6", "--racks", "2", "--code", "4,2", "--blocks", "48"]
_SWEEP = [
    "--schedulers", "LF", "--seeds", "2", "--blocks", "60",
    "--backoff", "0.0", "--workers", "1",
]
_TOURNEY = [
    "tournament", "--nodes", "12", "--racks", "3", "--code", "6,4",
    "--blocks", "48", "--seeds", "1", "--policies", "LF,edf", "--workers", "1",
]
_RELIABILITY = [
    "reliability", "--mttf-days", "10", "--horizon-years", "0.02",
    "--iterations", "1", "--windows", "1", "--window-duration", "600",
]


# -- fixtures the rows ask for by name ------------------------------------------


def _unwritable(tmp_path) -> str:
    blocker = tmp_path / "file"
    blocker.write_text("")
    return str(blocker / "sub" / "out.json")


def _doomed_trace(tmp_path) -> str:
    # (3,2) tolerates one failure; two overlapping ones doom a stripe.
    trace = tmp_path / "double.json"
    trace.write_text(
        '{"events": [{"kind": "fail", "at": 20.0, "node": 0},'
        ' {"kind": "fail", "at": 26.0, "node": 2}]}'
    )
    return str(trace)


def _bad_spec(tmp_path) -> str:
    spec = tmp_path / "spec.json"
    spec.write_text('{"schema": "wrong/v1"}')
    return str(spec)


def _unknown_scheduler_spec(tmp_path) -> str:
    spec = tmp_path / "spec.json"
    spec.write_text('{"schema": "repro.campaign/v1", "schedulers": ["LF", "foo"]}')
    return str(spec)


def _finished_journal(tmp_path) -> str:
    journal = str(tmp_path / "finished.jsonl")
    assert main(["campaign", "run", *_SWEEP, "--journal", journal]) == 0
    return journal


def _golden(name: str) -> str:
    return os.path.join(_REPORTS, name)


def _regressed_tournament(tmp_path) -> str:
    with open(_golden("tournament.json")) as handle:
        report = json.load(handle)
    report["policies"]["EDF"]["degraded_read_seconds"]["p99"] *= 2.0
    path = tmp_path / "regressed.json"
    path.write_text(json.dumps(report))
    return str(path)


def _boom(config):
    raise RuntimeError("trial exploded")


def _every_trial_fails(monkeypatch) -> None:
    real_init = CampaignEngine.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.runner = _boom

    monkeypatch.setattr(CampaignEngine, "__init__", init)


def _stop_as_the_engine_starts(monkeypatch) -> None:
    real_run = CampaignEngine.run

    def run(self, configs):
        self.request_stop()  # what the first SIGINT does
        return real_run(self, configs)

    monkeypatch.setattr(CampaignEngine, "run", run)


def _break_bdf_pacing(monkeypatch) -> None:
    from repro.core import degraded_first

    monkeypatch.setattr(degraded_first, "pacing_allows_degraded", lambda job: True)


# -- the exit-code table ---------------------------------------------------------

#: (id, expected exit code, argv builder(tmp_path), monkeypatch hook or None)
_EXIT_CODES = [
    # 0: success
    ("simulate-clean", 0, lambda t: [*_SIM], None),
    ("simulate-check-clean", 0, lambda t: [*_SIM, "--check"], None),
    ("campaign-run-clean", 0, lambda t: ["campaign", "run", *_SWEEP], None),
    (
        "campaign-run-lowercase-scheduler", 0,
        lambda t: ["campaign", "run", *_SWEEP[2:], "--schedulers", "lf"], None,
    ),
    (
        "campaign-resume-finished-journal", 0,
        lambda t: ["campaign", "resume", *_SWEEP, "--journal", _finished_journal(t)],
        None,
    ),
    (
        "campaign-status", 0,
        lambda t: ["campaign", "status", "--journal", str(t / "absent.jsonl")], None,
    ),
    ("tournament-clean", 0, lambda t: [*_TOURNEY], None),
    ("tournament-check-clean", 0, lambda t: [*_TOURNEY, "--check"], None),
    ("reliability-clean", 0, lambda t: [*_RELIABILITY], None),
    (
        "obs-diff-identical-tournament", 0,
        lambda t: ["obs", "diff", _golden("tournament.json"), _golden("tournament.json")],
        None,
    ),
    (
        "obs-diff-identical-reliability", 0,
        lambda t: ["obs", "diff", _golden("reliability.json"), _golden("reliability.json")],
        None,
    ),
    (
        "obs-report-tournament", 0,
        lambda t: ["obs", "report", _golden("tournament.json"), "-o", str(t / "t.html")],
        None,
    ),
    # 1: ran, but a job / a trial failed
    (
        "simulate-job-failed", 1,
        lambda t: [
            "simulate", "--nodes", "6", "--racks", "3", "--code", "3,2",
            "--blocks", "48", "--seed", "3", "--heartbeat-expiry", "9",
            "--failure-trace", _doomed_trace(t),
        ],
        None,
    ),
    (
        "campaign-run-terminally-failed-trial", 1,
        lambda t: ["campaign", "run", *_SWEEP, "--retries", "0"], _every_trial_fails,
    ),
    (
        "tournament-terminally-failed-trial", 1,
        lambda t: [*_TOURNEY, "--retries", "0"], _every_trial_fails,
    ),
    (
        "tournament-check-violation-is-a-trial-failure", 1,
        lambda t: [
            "tournament", *_BDF, "--seeds", "3", "--policies", "bdf",
            "--workers", "1", "--retries", "0", "--check",
        ],
        _break_bdf_pacing,
    ),
    # 2: bad invocation
    ("simulate-bad-code", 2, lambda t: ["simulate", "--code", "oops"], None),
    ("simulate-unknown-policy", 2, lambda t: ["simulate", "--policy", "NOPE"], None),
    (
        "simulate-unwritable-json", 2,
        lambda t: [*_SIM, "--json", _unwritable(t)], None,
    ),
    (
        "campaign-run-bad-retries", 2,
        lambda t: ["campaign", "run", *_SWEEP, "--retries", "-1"], None,
    ),
    (
        "campaign-run-bad-spec-schema", 2,
        lambda t: ["campaign", "run", "--spec", _bad_spec(t)], None,
    ),
    (
        "campaign-run-empty-schedulers", 2,
        lambda t: ["campaign", "run", "--schedulers", ",", "--seeds", "1"], None,
    ),
    (
        "campaign-run-unknown-scheduler", 2,
        lambda t: ["campaign", "run", "--schedulers", "LF,foo", "--seeds", "1"], None,
    ),
    (
        "campaign-run-spec-unknown-scheduler", 2,
        lambda t: ["campaign", "run", "--spec", _unknown_scheduler_spec(t)], None,
    ),
    (
        "campaign-resume-unknown-scheduler", 2,
        lambda t: [
            "campaign", "resume", "--schedulers", "foo", "--seeds", "1",
            "--journal", str(t / "nope.jsonl"),
        ],
        None,
    ),
    (
        "campaign-resume-without-journal", 2,
        lambda t: ["campaign", "resume", *_SWEEP], None,
    ),
    (
        "campaign-resume-missing-journal", 2,
        lambda t: ["campaign", "resume", *_SWEEP, "--journal", str(t / "nope.jsonl")],
        None,
    ),
    (
        "campaign-run-onto-populated-journal", 2,
        lambda t: ["campaign", "run", *_SWEEP, "--journal", _finished_journal(t)],
        None,
    ),
    (
        "campaign-run-unwritable-report", 2,
        lambda t: ["campaign", "run", *_SWEEP, "--report", _unwritable(t)], None,
    ),
    ("tournament-bad-code", 2, lambda t: ["tournament", "--code", "oops"], None),
    (
        "tournament-unknown-policy", 2,
        lambda t: ["tournament", "--policies", "LF,NOPE"], None,
    ),
    (
        "tournament-bad-retries", 2, lambda t: [*_TOURNEY, "--retries", "-1"], None,
    ),
    (
        "tournament-unwritable-json", 2,
        lambda t: [*_TOURNEY, "--json", _unwritable(t)], None,
    ),
    (
        "tournament-unwritable-html", 2,
        lambda t: [*_TOURNEY, "--html", _unwritable(t)], None,
    ),
    (
        "reliability-bad-options", 2,
        lambda t: ["reliability", "--iterations", "0"], None,
    ),
    (
        "reliability-unwritable-json", 2,
        lambda t: [*_RELIABILITY, "--json", _unwritable(t)], None,
    ),
    (
        "obs-diff-bad-threshold", 2,
        lambda t: [
            "obs", "diff", _golden("tournament.json"), _golden("tournament.json"),
            "--metric-threshold", "nonsense",
        ],
        None,
    ),
    (
        "obs-diff-mixed-schemas", 2,
        lambda t: ["obs", "diff", _golden("tournament.json"), _golden("reliability.json")],
        None,
    ),
    (
        "obs-report-not-a-document", 2,
        lambda t: ["obs", "report", _golden("sweep.txt"), "-o", str(t / "x.html")],
        None,
    ),
    # 3: the sanitizer found a violation
    (
        "simulate-check-violation", 3,
        lambda t: ["simulate", *_BDF, "--seed", "2", "--scheduler", "BDF", "--check"],
        _break_bdf_pacing,
    ),
    (
        "fuzz-finding", 3,
        lambda t: ["fuzz", "--trials", "10", "--seed", "0", "--schedulers", "bdf"],
        _break_bdf_pacing,
    ),
    # 4: obs diff regression
    (
        "obs-diff-regression", 4,
        lambda t: ["obs", "diff", _golden("tournament.json"), _regressed_tournament(t)],
        None,
    ),
    # 5: interrupted and checkpointed
    (
        "campaign-run-interrupted", 5,
        lambda t: ["campaign", "run", *_SWEEP, "--journal", str(t / "j.jsonl")],
        _stop_as_the_engine_starts,
    ),
    (
        "campaign-resume-interrupted", 5,
        lambda t: ["campaign", "resume", *_SWEEP, "--journal", _finished_journal(t)],
        _stop_as_the_engine_starts,
    ),
    ("tournament-interrupted", 5, lambda t: [*_TOURNEY], _stop_as_the_engine_starts),
    (
        "reliability-interrupted", 5,
        lambda t: [*_RELIABILITY, "--journal", str(t / "j.jsonl")],
        _stop_as_the_engine_starts,
    ),
]


@pytest.mark.parametrize(
    "expected,build_argv,patch",
    [row[1:] for row in _EXIT_CODES],
    ids=[row[0] for row in _EXIT_CODES],
)
def test_exit_code(expected, build_argv, patch, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    argv = build_argv(tmp_path)  # may run a setup command un-patched
    if patch is not None:
        patch(monkeypatch)
    assert main(argv) == expected
    # --check reaches pool workers through the environment; no command may
    # leave it set behind.
    assert "REPRO_CHECK" not in os.environ


# -- the flag surface --------------------------------------------------------------

#: command path -> {option string: (dest, default)}
_FLAG_SURFACE = {
    ("campaign", "run"): {
        "--backoff": ("backoff", 0.5),
        "--blocks": ("blocks", 1440),
        "--cache-dir": ("cache_dir", None),
        "--journal": ("journal_path", None),
        "--nodes": ("nodes", 40),
        "--report": ("report_path", None),
        "--retries": ("retries", 2),
        "--schedulers": ("schedulers", "LF,BDF,EDF"),
        "--seeds": ("seeds", 5),
        "--spec": ("spec_path", None),
        "--trial-timeout": ("trial_timeout", None),
        "--workers": ("workers", None),
    },
    ("tournament",): {
        "--blocks": ("blocks", 1440),
        "--cache-dir": ("cache_dir", None),
        "--check": ("check", False),
        "--code": ("code", "20,15"),
        "--corpus": ("corpus_dir", None),
        "--html": ("html_path", None),
        "--journal": ("journal_path", None),
        "--json": ("json_path", None),
        "--nodes": ("nodes", 40),
        "--policies": ("policies", None),
        "--racks": ("racks", 4),
        "--retries": ("retries", 2),
        "--seeds": ("seeds", 3),
        "--trial-timeout": ("trial_timeout", None),
        "--workers": ("workers", None),
    },
    ("reliability",): {
        "--arrival-mean": ("arrival_mean", 300.0),
        "--blocks": ("blocks", 60),
        "--cache-dir": ("cache_dir", None),
        "--check": ("check", False),
        "--horizon-years": ("horizon_years", 1.0),
        "--iterations": ("iterations", 3),
        "--journal": ("journal_path", None),
        "--json": ("json_path", None),
        "--lse-mtbc-years": ("lse_mtbc_years", None),
        "--model": ("model", "exponential"),
        "--mttf-days": ("mttf_days", 30.0),
        "--mttr-hours": ("mttr_hours", 2.0),
        "--seed": ("seed", 0),
        "--weibull-shape": ("weibull_shape", 0.7),
        "--window-duration": ("window_duration", 1800.0),
        "--windows": ("windows", 3),
    },
}
# ``resume`` must describe the same sweep ``run`` did: identical surface.
_FLAG_SURFACE[("campaign", "resume")] = _FLAG_SURFACE[("campaign", "run")]


def _subparser(*path: str) -> argparse.ArgumentParser:
    parser = _build_parser()
    for name in path:
        action = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        parser = action.choices[name]
    return parser


@pytest.mark.parametrize("path", sorted(_FLAG_SURFACE), ids=" ".join)
def test_flag_surface(path):
    surface = {}
    for action in _subparser(*path)._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        assert len(action.option_strings) == 1, "positional or aliased flag appeared"
        surface[action.option_strings[0]] = (action.dest, action.default)
    assert surface == _FLAG_SURFACE[path]
