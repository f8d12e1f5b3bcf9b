"""Ablation: fluid max-min fair links vs exclusive hold-the-link (CSIM).

The paper's simulator holds links exclusively for each transmission; our
default shares bandwidth max-min fairly.  The headline result must not
depend on that modelling choice: EDF beats LF under both.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import check, mean_runtimes, one_shot
from repro.experiments.common import default_seeds
from repro.mapreduce.config import SimulationConfig

MODELS = ("fluid", "exclusive")
SCHEDULERS = ("LF", "EDF")


def run_ablation() -> dict[tuple[str, str], float]:
    return mean_runtimes(
        ((model, name), replace(SimulationConfig(network_model=model), scheduler=name, seed=seed))
        for model in MODELS
        for name in SCHEDULERS
        for seed in default_seeds()
    )


def test_ablation_network_model(benchmark):
    means = one_shot(benchmark, run_ablation)
    print("\nAblation: network contention model (mean runtime, s)")
    for model in MODELS:
        lf = means[(model, "LF")]
        edf = means[(model, "EDF")]
        print(f"  {model:>9}: LF={lf:8.1f}  EDF={edf:8.1f}  reduction={(lf - edf) / lf:.1%}")
        check(f"EDF beats LF under the {model} model", edf, "<", lf)
