"""Benchmarks: Figure 7, simulated LF vs EDF over six parameter sweeps.

Assertions target the paper's *shapes*: EDF's median normalized runtime is
below LF's in every setting; the EDF-over-LF reduction grows with the
coding parameters; single-node failures benefit more than rack failures.

Sample counts follow ``REPRO_SEEDS`` (abbreviated by default; 30 = paper).
Figures 7(a)-(e) share one batch of runs (a module-scoped fixture), so the
default configuration's trials, which four of them contain, run once.
"""

from __future__ import annotations

import pytest

from conftest import check, one_shot
from repro.experiments.fig7_simulation import (
    Fig7Data,
    run_fig7a,
    run_fig7b,
    run_fig7c,
    run_fig7d,
    run_fig7e,
    run_fig7f,
)


@pytest.fixture(scope="module")
def data():
    return Fig7Data()


def _assert_edf_wins(table, rows=None):
    print("\n" + table.format())
    for label, columns in table.rows.items():
        if rows is not None and label not in rows:
            continue
        check(f"EDF median vs LF at {label}", columns["EDF"].median, "<=", columns["LF"].median)


def test_fig7a(benchmark, data):
    table = one_shot(benchmark, run_fig7a, data=data)
    _assert_edf_wins(table)
    # Reduction grows with (n, k): compare the extremes.
    small = table.reduction("(8,6)", "LF", "EDF")
    large = table.reduction("(20,15)", "LF", "EDF")
    check("larger codes should benefit more (paper: 17% -> 33%)", large, ">", small)


def test_fig7b(benchmark, data):
    table = one_shot(benchmark, run_fig7b, data=data)
    _assert_edf_wins(table)
    for label in table.rows:
        reduction = table.reduction(label, "LF", "EDF")
        check(f"EDF reduction at {label} (paper: ~35-40%)", reduction, ">", 0.15)


def test_fig7c(benchmark, data):
    table = one_shot(benchmark, run_fig7c, data=data)
    _assert_edf_wins(table)
    # Both schedulers slow down as bandwidth shrinks.
    lf_medians = [columns["LF"].median for columns in table.rows.values()]
    print(f"  check LF medians non-increasing with bandwidth: {lf_medians}")
    assert lf_medians == sorted(lf_medians, reverse=True)


def test_fig7d(benchmark, data):
    table = one_shot(benchmark, run_fig7d, data=data)
    _assert_edf_wins(table, rows=("single-node", "double-node"))
    single = table.reduction("single-node", "LF", "EDF")
    rack = table.reduction("rack", "LF", "EDF")
    check("rack failures leave less room to win (paper: 33% vs 6%)", single, ">", rack)
    # Severity ordering: more failures, higher normalized runtime.
    lf = {label: columns["LF"].median for label, columns in table.rows.items()}
    check("LF median single-node < double-node", lf["single-node"], "<", lf["double-node"])
    check("LF median double-node < rack", lf["double-node"], "<", lf["rack"])


def test_fig7e(benchmark, data):
    table = one_shot(benchmark, run_fig7e, data=data)
    _assert_edf_wins(table)
    # EDF's normalized runtime creeps up with shuffle volume (its degraded
    # reads now compete with live shuffle traffic).
    edf = [columns["EDF"].median for columns in table.rows.values()]
    check("EDF median at 30% >= at 1%", edf[-1], ">=", edf[0])


def test_fig7f(benchmark):
    table = one_shot(benchmark, run_fig7f)
    print("\n" + table.format())
    wins = sum(
        1
        for columns in table.rows.values()
        if columns["EDF"].median <= columns["LF"].median
    )
    check("EDF should win for nearly every job (jobs won of 10)", wins, ">=", 8)
