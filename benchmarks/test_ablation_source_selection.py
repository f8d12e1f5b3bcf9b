"""Ablation: degraded-read source selection (random-k vs rack-local-first).

The paper's analysis assumes degraded reads pick k random survivors; an
implementation could instead prefer survivors in the reader's own rack,
trading core-switch traffic for intra-rack traffic.  The headline result
must hold under both; rack-local-first should not be slower.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import check, mean_runtimes, one_shot
from repro.experiments.common import default_seeds
from repro.mapreduce.config import SimulationConfig
from repro.storage.degraded import SourceSelection

SELECTIONS = (SourceSelection.RANDOM, SourceSelection.RACK_LOCAL_FIRST)
SCHEDULERS = ("LF", "EDF")


def run_ablation() -> dict[tuple[str, str], float]:
    return mean_runtimes(
        (
            (selection.value, name),
            replace(SimulationConfig(source_selection=selection), scheduler=name, seed=seed),
        )
        for selection in SELECTIONS
        for name in SCHEDULERS
        for seed in default_seeds()
    )


def test_ablation_source_selection(benchmark):
    means = one_shot(benchmark, run_ablation)
    print("\nAblation: degraded-read source selection (mean runtime, s)")
    for selection in SELECTIONS:
        lf = means[(selection.value, "LF")]
        edf = means[(selection.value, "EDF")]
        print(
            f"  {selection.value:>16}: LF={lf:8.1f}  EDF={edf:8.1f}  "
            f"reduction={(lf - edf) / lf:.1%}"
        )
        check(f"EDF beats LF with {selection.value} sources", edf, "<", lf)
    # Preferring in-rack sources reduces core-switch traffic: LF's contended
    # tail should not get worse.
    local_lf, random_lf = means[("rack-local-first", "LF")], means[("random", "LF")]
    check("rack-local-first LF vs random LF x 1.05", local_lf, "<=", random_lf * 1.05)
