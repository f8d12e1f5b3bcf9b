"""Name -> experiment runner registry used by the CLI.

Each runner is a module's zero-argument ``main`` returning a printable
report string.  Experiment names follow the paper's figure/table numbering.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable

#: Experiment name -> module under :mod:`repro.experiments` whose ``main``
#: runs it.  Modules are imported on lookup, so listing stays cheap.
_EXPERIMENTS: dict[str, str] = {
    "fig3": "fig3_motivating",
    "fig5": "fig5_analysis",
    "fig7": "fig7_simulation",
    "fig8": "fig8_bdf_edf",
    "fig9": "fig9_testbed",
    "table1": "table1_breakdown",
    "reliability": "reliability",
}


def list_experiments() -> list[str]:
    """Names of all registered experiments."""
    return sorted(_EXPERIMENTS)


def get_experiment(name: str) -> Callable[[], str]:
    """Look up an experiment runner by name."""
    try:
        module = _EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {list_experiments()}"
        ) from None
    return importlib.import_module(f"repro.experiments.{module}").main
