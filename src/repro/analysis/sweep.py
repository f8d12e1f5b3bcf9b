"""Parameter sweeps over the analytical model (Figure 5 of the paper).

Each sweep varies one parameter of :class:`~repro.analysis.model.AnalysisParams`
and returns, per point, the normalized runtimes of locality-first and
degraded-first scheduling plus the fractional reduction -- the exact series
Figure 5 plots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.model import AnalysisParams, AnalyticalModel
from repro.cluster.network import mbps
from repro.ec.codec import CodeParams

#: The coding schemes of Figure 5(a).
FIG5A_CODES = (CodeParams(8, 6), CodeParams(12, 9), CodeParams(16, 12), CodeParams(20, 15))

#: The block counts of Figure 5(b).
FIG5B_BLOCKS = (720, 1440, 2160, 2880)

#: The bandwidths of Figure 5(c), in Mbps.
FIG5C_BANDWIDTHS_MBPS = (100, 250, 500, 1000)


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis point of a Figure 5 sweep."""

    label: str
    normalized_lf: float
    normalized_df: float
    reduction: float


def _evaluate(label: str, params: AnalysisParams) -> SweepPoint:
    model = AnalyticalModel(params)
    return SweepPoint(
        label=label,
        normalized_lf=model.normalized_locality_first(),
        normalized_df=model.normalized_degraded_first(),
        reduction=model.runtime_reduction(),
    )


def sweep_code(base: AnalysisParams | None = None) -> list[SweepPoint]:
    """Figure 5(a): normalized runtime versus erasure-coding scheme."""
    base = base or AnalysisParams()
    return [_evaluate(str(code), base.with_code(code)) for code in FIG5A_CODES]


def sweep_blocks(base: AnalysisParams | None = None) -> list[SweepPoint]:
    """Figure 5(b): normalized runtime versus the number of native blocks."""
    base = base or AnalysisParams()
    return [_evaluate(str(count), base.with_blocks(count)) for count in FIG5B_BLOCKS]


def sweep_bandwidth(base: AnalysisParams | None = None) -> list[SweepPoint]:
    """Figure 5(c): normalized runtime versus rack download bandwidth."""
    base = base or AnalysisParams()
    return [
        _evaluate(f"{bandwidth}Mbps", base.with_bandwidth(mbps(bandwidth)))
        for bandwidth in FIG5C_BANDWIDTHS_MBPS
    ]
