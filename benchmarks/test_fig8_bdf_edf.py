"""Benchmarks: Figure 8, basic vs enhanced degraded-first scheduling.

Paper shapes asserted: BDF launches more off-node ("remote") tasks than LF
while EDF launches fewer; both slash degraded-read time (EDF at least as
much); both cut runtime; and in the extreme case EDF's cut exceeds BDF's.

The four sub-figures are different statistics over the same simulation
runs, so a module-scoped fixture computes the runs once.
"""

from __future__ import annotations

import pytest

from conftest import check, one_shot
from repro.experiments.fig8_bdf_edf import (
    Fig8Data,
    run_fig8a,
    run_fig8b,
    run_fig8c,
    run_fig8d,
)


@pytest.fixture(scope="module")
def data():
    return Fig8Data()


def test_fig8a(benchmark, data):
    table = one_shot(benchmark, run_fig8a, data=data)
    print("\n" + table.format())
    homo = table.rows["homogeneous"]
    # Paper: BDF +35% remote tasks, EDF -10.7% (homogeneous cluster).
    check("EDF should launch fewer off-node tasks than LF", homo["EDF"].mean, "<", 0)
    check("BDF should steal more than EDF", homo["BDF"].mean, ">", homo["EDF"].mean)


def test_fig8b(benchmark, data):
    table = one_shot(benchmark, run_fig8b, data=data)
    print("\n" + table.format())
    for label, columns in table.rows.items():
        # Paper: ~80-85% degraded-read time reduction for both.
        check(f"BDF cut at {label}", columns["BDF"].mean, ">", 0.5)
        check(f"EDF cut at {label}", columns["EDF"].mean, ">", 0.5)
        edf, bdf = columns["EDF"].mean, columns["BDF"].mean
        check(f"EDF cut vs BDF cut - 0.10 at {label}", edf, ">=", bdf - 0.10)


def test_fig8c(benchmark, data):
    table = one_shot(benchmark, run_fig8c, data=data)
    print("\n" + table.format())
    for label, columns in table.rows.items():
        # Paper: 24-34% runtime savings.
        check(f"BDF saving at {label}", columns["BDF"].mean, ">", 0.10)
        check(f"EDF saving at {label}", columns["EDF"].mean, ">", 0.10)


def test_fig8d(benchmark, data):
    table = one_shot(benchmark, run_fig8d, data=data)
    print("\n" + table.format())
    extreme = table.rows["extreme"]
    # Paper: EDF 32.6% vs BDF 11.7% in the extreme case.
    check("EDF saving, extreme case", extreme["EDF"].mean, ">", 0.10)
    edf, bdf = extreme["EDF"].mean, extreme["BDF"].mean
    check("EDF saving vs BDF saving - 0.05, extreme", edf, ">=", bdf - 0.05)
