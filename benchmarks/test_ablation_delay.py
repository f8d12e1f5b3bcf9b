"""Ablation: delay scheduling vs degraded-first scheduling.

Delay scheduling (Zaharia et al.) is the classic locality improvement the
paper cites; it makes slaves wait briefly rather than take non-local tasks.
It addresses a different problem: it cannot move degraded reads off the end
of the map phase.  Expected: LF-DELAY tracks LF's failure-mode runtime
closely (within noise) while EDF clearly beats both -- evidence that the
paper's gain comes from degraded-task placement, not from generic locality
tuning.
"""

from __future__ import annotations

from conftest import check, mean_runtimes, one_shot
from repro.experiments.common import default_seeds
from repro.mapreduce.config import SimulationConfig

SCHEDULERS = ("LF", "LF-DELAY", "EDF")


def run_ablation() -> dict[str, float]:
    return mean_runtimes(
        (name, SimulationConfig().with_scheduler(name).with_seed(seed))
        for seed in default_seeds()
        for name in SCHEDULERS
    )


def test_ablation_delay_scheduling(benchmark):
    means = one_shot(benchmark, run_ablation)
    print("\nAblation: delay scheduling vs degraded-first (mean runtime, s)")
    for name in SCHEDULERS:
        print(f"  {name:>9}: {means[name]:8.1f}")
    check("EDF beats plain locality-first", means["EDF"], "<", means["LF"])
    check("EDF beats locality tuning alone", means["EDF"], "<", means["LF-DELAY"])
