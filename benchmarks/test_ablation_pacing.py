"""Ablation: the pacing rule and the one-per-heartbeat cap.

Compares LF, EAGER (all degraded first, no pacing), BDF-UNCAPPED (pacing
but no per-heartbeat cap) and BDF on the default simulated cluster.

Expected: BDF <= BDF-UNCAPPED <= EAGER <= LF on average -- pacing beats
eager launching, and the cap squeezes out a further gain by never running
two degraded reads on one slave at once.
"""

from __future__ import annotations

from conftest import check, mean_runtimes, one_shot
from repro.experiments.common import default_seeds
from repro.mapreduce.config import SimulationConfig

SCHEDULERS = ("LF", "EAGER", "BDF-UNCAPPED", "BDF")


def run_ablation() -> dict[str, float]:
    return mean_runtimes(
        (name, SimulationConfig().with_scheduler(name).with_seed(seed))
        for seed in default_seeds()
        for name in SCHEDULERS
    )


def test_ablation_pacing(benchmark):
    means = one_shot(benchmark, run_ablation)
    print("\nAblation: pacing and the per-heartbeat cap (mean runtime, s)")
    for name in SCHEDULERS:
        print(f"  {name:>12}: {means[name]:8.1f}")
    check("pacing beats locality-first (BDF < LF)", means["BDF"], "<", means["LF"])
    check("eager degraded launch beats LF", means["EAGER"], "<", means["LF"])
    check("pacing does not lose to eager (x 1.02)", means["BDF"], "<=", means["EAGER"] * 1.02)
