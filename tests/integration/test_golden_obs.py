"""Golden observability bytes: work on the obs path moves no export.

The trajectory goldens pin what a trial *computes*; the files under
``tests/golden/obs/`` pin what an observed trial *exports*.  For one fluid
trial with a mid-run failure (flow cancels, task kills) and one trial on
the exclusive-hold network, each run once under a plain
:class:`~repro.obs.ObservabilityCollector`:

``<name>.events.jsonl``
    The ``--events`` log, byte for byte: every event, its order, its
    field order and its float formatting.
``<name>.utilization.txt``
    The ``--utilization-report`` text with the profiler's wall-clock
    figures (the only host-time lines) replaced by placeholders.
``<name>.series.json``
    Every time-weighted series' breakpoints -- one line per series, the
    never-busy links and never-queued slots included, so a series that
    stops being created or gains a redundant breakpoint shows up.

PR 16 added them on the unmodified ``src/`` and then rebuilt the event bus
routing and the collector's series updates; none of these files moved.

If one moves after an intentional change to an event payload or a report
line, regenerate with ``PYTHONPATH=src:. python tests/golden/regenerate.py``,
check that the diff touches only what the change meant to move, and name
the PR and the reason in the commit message.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.mapreduce.simulation import run_simulation
from repro.obs import ObservabilityCollector
from repro.obs.export import events_jsonl
from tests.integration.test_golden_equivalence import golden_cases

OBS_DIR = os.path.join(os.path.dirname(__file__), "..", "golden", "obs")

#: The pinned trials: one per network model.
OBS_CASES = ("edf-midrun-failure", "lf-exclusive")

_WALL_CLOCK_LINES = (
    # The figure is right-aligned, so its width moves the padding too.
    (re.compile(r"^(  \S+) +[0-9.]+ ms$", re.MULTILINE), r"\1 <wall> ms"),
    (
        re.compile(r"^(  callbacks per wall-second: )[0-9,]+$", re.MULTILINE),
        r"\1<rate>",
    ),
)


def normalise_utilization(report: str) -> str:
    """The report with the profiler's host-time figures blanked."""
    for pattern, replacement in _WALL_CLOCK_LINES:
        report = pattern.sub(replacement, report)
    return report


def series_json(collector: ObservabilityCollector) -> str:
    """``{series name: samples}``, sorted, one series per line."""
    rows = [
        f" {json.dumps(name)}: {json.dumps(series.samples, allow_nan=False)}"
        for name, series in sorted(collector.registry.series.items())
    ]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def golden_obs(name: str) -> dict[str, str]:
    """File name -> exact text of one trial's observability exports."""
    collector = ObservabilityCollector()
    run_simulation(golden_cases()[name], observer=collector)
    return {
        f"{name}.events.jsonl": events_jsonl(collector.events),
        f"{name}.utilization.txt": normalise_utilization(
            collector.render_utilization_report()
        )
        + "\n",
        f"{name}.series.json": series_json(collector),
    }


@pytest.mark.parametrize("name", OBS_CASES)
def test_exports_match_committed_bytes(name):
    for filename, text in golden_obs(name).items():
        with open(os.path.join(OBS_DIR, filename), newline="") as handle:
            committed = handle.read()
        if text != committed:
            fresh, pinned = text.splitlines(), committed.splitlines()
            line = next(
                (i for i, (a, b) in enumerate(zip(fresh, pinned)) if a != b),
                min(len(fresh), len(pinned)),
            )
            pytest.fail(
                f"{filename} moved at line {line + 1} ({len(fresh)} lines now,"
                f" {len(pinned)} pinned); if intentional, regenerate with"
                " `PYTHONPATH=src:. python tests/golden/regenerate.py`"
            )


def test_the_utilization_report_keeps_only_host_time_out():
    report = golden_obs("lf-exclusive")["lf-exclusive.utilization.txt"]
    assert report.count("<wall> ms") == 2  # the setup and run spans
    assert report.count("<rate>") == 1
    assert "engine callbacks dispatched: " in report
    assert not re.search(r"[0-9] ms$", report, re.MULTILINE)


def test_every_link_owns_a_pinned_series_busy_or_not():
    with open(os.path.join(OBS_DIR, "edf-midrun-failure.series.json")) as handle:
        series = json.load(handle)
    links = {name: samples for name, samples in series.items() if name[:5] == "link."}
    assert len(links) == 88  # 40 NIC pairs + 4 rack up/down pairs
    idle = [name for name, samples in links.items() if samples == [[0.0, 0.0]]]
    assert idle, "the pinned trial should include never-busy links"


def test_the_obs_directory_holds_exactly_the_pinned_files():
    assert sorted(os.listdir(OBS_DIR)) == sorted(
        f"{name}.{suffix}"
        for name in OBS_CASES
        for suffix in ("events.jsonl", "series.json", "utilization.txt")
    )
