"""Pins of the simulated figure tables.

Figures 7 and 8 are statistics over seeded simulation trials, so the text
each sub-figure renders is a pure function of its configs and seeds.
These tests pin the SHA-256 of ``ExperimentTable.format()`` for:

* Figures 7(a)-(f) on the quick cluster of ``test_experiments_quick`` at
  seeds 0 and 1 (7(a) over codes that fit on its eight nodes);
* Figures 8(a)-(d) on the paper's clusters at seed 0.

A change to how trials are built, batched or grouped must leave every
digest where it is; only a change to the simulation itself may move one.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.ec.codec import CodeParams
from repro.experiments import fig7_simulation, fig8_bdf_edf
from tests.integration.test_experiments_quick import quick_base

SEEDS_FIG7 = [0, 1]
SEEDS_FIG8 = [0]

#: Codes for 7(a) that fit the quick cluster (the paper's go up to n=20).
QUICK_CODES = (CodeParams(4, 2), CodeParams(6, 4), CodeParams(8, 6))

TABLE_DIGESTS = {
    "fig7a": "2f0ea63061288bc59882fb10d1de713d790fe518e868ce2873702aed51ba076c",
    "fig7b": "9f6555f910ebc233473451ac843a16a9224ded74be1776f4eafff7c0694ca052",
    "fig7c": "85356f13e616c5987c1d7b1f847e931b772c89d3fd1739a4f3ac109dddafc663",
    "fig7d": "78b700fc100fd83536b708fd7387e1ebffc3ac768c75ddd92e6c7894e7bbb858",
    "fig7e": "ab6547a4e3370c946cc90c5a9d82aa1c9c61d7b3a6499d425fc2dfc4d803fb66",
    "fig7f": "7b8bd19d1cd52374dbbcd679adb92858c3d0b091bad1463f87be6097243c9f9a",
    "fig8a": "bc3be8639780d9a532fdac37da31b9c8641aa4abfe4facac909523f40e631e22",
    "fig8b": "f9d68d8911472ccd906d81b0c2b98801606222555eedea7c680ac8e20c364252",
    "fig8c": "47217a1392d64a5bee13ee4c5637b951165e372de9fa47208c520feda4ec7be4",
    "fig8d": "c037853669bfd09dd9e3fa621cb50161d1aadfc5f97acfc85d5f44c8aafed4be",
}


def table_digest(table) -> str:
    return hashlib.sha256(table.format().encode()).hexdigest()


@pytest.mark.parametrize("sub", "abcdef")
def test_fig7_table_pinned(sub):
    run = getattr(fig7_simulation, f"run_fig7{sub}")
    extra = {"codes": QUICK_CODES} if sub == "a" else {}
    table = run(quick_base(), seeds=SEEDS_FIG7, **extra)
    assert table_digest(table) == TABLE_DIGESTS[f"fig7{sub}"], table.format()


def test_fig7_shared_batch_matches_the_pins():
    """7(a)-(e) read from one shared batch render the same tables as alone."""
    base = quick_base()
    rows = {letter: build(base) for letter, (_title, build) in fig7_simulation._SWEEPS.items()}
    rows["a"] = fig7_simulation._code_rows(base, QUICK_CODES)
    data = fig7_simulation.Fig7Data(rows, SEEDS_FIG7)
    for sub in "abcde":
        table = getattr(fig7_simulation, f"run_fig7{sub}")(data=data)
        assert table_digest(table) == TABLE_DIGESTS[f"fig7{sub}"], table.format()


@pytest.fixture(scope="module")
def fig8_data():
    return fig8_bdf_edf.Fig8Data(SEEDS_FIG8)


@pytest.mark.parametrize("sub", "abcd")
def test_fig8_table_pinned(fig8_data, sub):
    table = getattr(fig8_bdf_edf, f"run_fig8{sub}")(data=fig8_data)
    assert table_digest(table) == TABLE_DIGESTS[f"fig8{sub}"], table.format()
