"""Per-figure/table experiment harnesses.

Every evaluation artifact of the paper has a module here that regenerates
its rows:

* :mod:`repro.experiments.fig5_analysis` -- Figure 5 (analytical model).
* :mod:`repro.experiments.fig7_simulation` -- Figure 7 (LF vs EDF sweeps).
* :mod:`repro.experiments.fig8_bdf_edf` -- Figure 8 (BDF vs EDF).
* :mod:`repro.experiments.fig9_testbed` -- Figure 9 (functional testbed).
* :mod:`repro.experiments.table1_breakdown` -- Table I (task breakdown).
* :mod:`repro.experiments.reliability` -- long-horizon reliability
  campaigns (MTTDL, degraded-read latency tails, saturation verdicts).
* :mod:`repro.experiments.registry` -- name -> runner mapping for the CLI.
* :mod:`repro.experiments.common` -- shared trial plumbing.
* :mod:`repro.experiments.campaign` -- crash-safe campaign engine
  (journaled resumable sweeps, worker fault tolerance).
* :mod:`repro.experiments.cache` -- integrity-verified result cache.
"""

from repro.experiments.campaign import (
    CampaignEngine,
    CampaignInterrupted,
    CampaignPolicy,
    SweepSpec,
    run_sweep,
)
from repro.experiments.cache import ResultCache
from repro.experiments.common import (
    ExperimentTable,
    NormalizationError,
    normalized_runtimes,
    run_many,
)
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.reliability import (
    CampaignConfig,
    render_report,
    report_to_json,
    run_campaign,
)

__all__ = [
    "CampaignConfig",
    "CampaignEngine",
    "CampaignInterrupted",
    "CampaignPolicy",
    "ExperimentTable",
    "NormalizationError",
    "ResultCache",
    "SweepSpec",
    "get_experiment",
    "list_experiments",
    "normalized_runtimes",
    "render_report",
    "report_to_json",
    "run_campaign",
    "run_many",
    "run_sweep",
]
