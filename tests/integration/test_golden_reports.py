"""Golden report bytes: refactors of the campaign layers move no report.

"Report bytes stay identical" (a fixed point of the ROADMAP's design aim)
used to be checked only *within* a run -- serial against pooled against
resumed.  The files under
``tests/golden/reports/`` pin it *across commits*: every campaign-shaped
document this repo emits (sweep, tournament, reliability; JSON, CLI text
and HTML) plus the run-summary dashboard, generated through the public
Python entry points on fixed seeds with one worker.  PR 15 added them on
the unmodified ``src/`` and then collapsed the three campaign layers onto
one spine; none of these files moved.

If one moves after an intentional change to a report schema, regenerate
with ``PYTHONPATH=src:. python tests/golden/regenerate.py``, check that
the diff touches only what the change meant to move, and name the PR and
the reason in the commit message.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import campaign, reliability, tournament
from repro.experiments.campaign import CampaignPolicy, SweepSpec
from repro.faults.models import DAY, YEAR, ExponentialLifetimes
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.simulation import run_simulation
from repro.obs import ObservabilityCollector, analyze_run, report_html

REPORTS_DIR = os.path.join(os.path.dirname(__file__), "..", "golden", "reports")

_BASE = SimulationConfig(jobs=(JobConfig(num_blocks=240),))
_SERIAL = CampaignPolicy(workers=1, on_error="collect")


def _sweep() -> dict[str, str]:
    spec = SweepSpec(base=_BASE, schedulers=("LF", "BDF", "EDF"), seeds=(0, 1, 2))
    report, _outcome = campaign.run_sweep(spec, _SERIAL)
    return {
        "sweep.json": campaign.report_to_json(report),
        "sweep.txt": campaign.render_sweep_report(report) + "\n",
    }


def _tournament() -> dict[str, str]:
    spec = tournament.TournamentSpec(
        scenarios=tournament.default_scenarios(_BASE)[:2],
        policies=("LF", "BDF", "EDF", "STEAL"),
        seeds=(0,),
    )
    report, _outcome = tournament.run_tournament(spec, _SERIAL)
    return {
        "tournament.json": tournament.report_to_json(report),
        "tournament.txt": tournament.render_leaderboard(report) + "\n",
        "tournament.html": report_html(report),
    }


def _reliability() -> dict[str, str]:
    config = reliability.CampaignConfig(
        model=ExponentialLifetimes(mttf=10.0 * DAY),
        horizon=0.1 * YEAR,
        iterations=1,
        num_windows=2,
    )
    report = reliability.run_campaign(config)
    return {
        "reliability.json": reliability.report_to_json(report),
        "reliability.txt": reliability.render_report(report) + "\n",
        "reliability.html": report_html(report),
    }


def _run_summary() -> dict[str, str]:
    collector = ObservabilityCollector()
    config = SimulationConfig(
        scheduler="EDF", seed=3, jobs=(JobConfig(num_blocks=240),)
    )
    analysis = analyze_run(run_simulation(config, observer=collector))
    analysis.timeline.decisions = [d.to_dict() for d in collector.decisions]
    analysis = analyze_run(analysis.timeline)  # re-fold with the audit
    return {"run-summary.html": report_html(analysis.to_dict())}


_FAMILIES = {
    "sweep": _sweep,
    "tournament": _tournament,
    "reliability": _reliability,
    "run-summary": _run_summary,
}


def golden_reports(family: str | None = None) -> dict[str, str]:
    """File name -> exact text of every golden report (or one family's).

    ``REPRO_WORKERS`` is pinned to 1 for the call: reliability's window
    sweep takes its pool width from the environment only.
    """
    previous = os.environ.get("REPRO_WORKERS")
    os.environ["REPRO_WORKERS"] = "1"
    try:
        documents: dict[str, str] = {}
        for name, build in _FAMILIES.items():
            if family in (None, name):
                documents.update(build())
        return documents
    finally:
        if previous is None:
            del os.environ["REPRO_WORKERS"]
        else:
            os.environ["REPRO_WORKERS"] = previous


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_reports_match_committed_bytes(family):
    documents = golden_reports(family)
    assert documents
    for name, text in documents.items():
        with open(os.path.join(REPORTS_DIR, name), newline="") as handle:
            committed = handle.read()
        assert text == committed, (
            f"{name} moved; if intentional, regenerate with "
            "`PYTHONPATH=src:. python tests/golden/regenerate.py`"
        )


def test_the_reports_directory_holds_exactly_the_pinned_files():
    assert sorted(os.listdir(REPORTS_DIR)) == [
        "reliability.html", "reliability.json", "reliability.txt",
        "run-summary.html",
        "sweep.json", "sweep.txt",
        "tournament.html", "tournament.json", "tournament.txt",
    ]
