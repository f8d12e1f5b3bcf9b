"""Ablation: EDF's two admission guards, separately and together.

Compares BDF (no guards), EDF-SLAVE (locality preservation only), EDF-RACK
(rack awareness only) and EDF (both) on the heterogeneous cluster, where
the guards matter most (Figure 8's analysis).

Expected: every guarded variant is at least as good as BDF on average, and
full EDF is the best or statistically tied for best.
"""

from __future__ import annotations

from conftest import check, mean_runtimes, one_shot
from repro.experiments.common import default_seeds
from repro.experiments.fig8_bdf_edf import heterogeneous_config

SCHEDULERS = ("BDF", "EDF-SLAVE", "EDF-RACK", "EDF")


def run_ablation() -> dict[str, float]:
    base = heterogeneous_config()
    return mean_runtimes(
        (name, base.with_scheduler(name).with_seed(seed))
        for seed in default_seeds()
        for name in SCHEDULERS
    )


def test_ablation_edf_guards(benchmark):
    means = one_shot(benchmark, run_ablation)
    print("\nAblation: EDF guards on the heterogeneous cluster (mean runtime, s)")
    for name in SCHEDULERS:
        print(f"  {name:>10}: {means[name]:8.1f}")
    # Each guard alone should not hurt materially; both together should not
    # lose to no-guards by more than noise.
    check("EDF <= BDF x 1.05", means["EDF"], "<=", means["BDF"] * 1.05)
    check("EDF-SLAVE <= BDF x 1.08", means["EDF-SLAVE"], "<=", means["BDF"] * 1.08)
    check("EDF-RACK <= BDF x 1.08", means["EDF-RACK"], "<=", means["BDF"] * 1.08)
