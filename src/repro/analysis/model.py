"""The paper's closed-form runtime model (Section IV-B).

Setting: ``N`` homogeneous nodes in ``R`` racks, ``L`` map slots per node,
map processing time ``T``, block size ``S``, per-rack download bandwidth
``W``, an ``(n, k)`` code with stripes spread evenly (parity declustering),
``F`` native blocks, a map-only job, and a single failed node.

Derived quantities:

* normal mode:          ``FT / (NL)``
* locality-first:       ``FT/(NL) + F/(NR) * (R-1)kS/(RW) + T``
* degraded-first:       ``max( FT/((N-1)L) + T ,  F/(NR) * (R-1)kS/(RW) + T )``

All three are exposed both as absolute seconds and normalized over the
normal-mode runtime, which is how Figure 5 plots them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.network import MB, gbps
from repro.ec.codec import CodeParams


@dataclass(frozen=True)
class AnalysisParams:
    """Inputs of the analytical model, defaulting to the paper's values.

    The paper's default setting (Section IV-B, "Numerical results"):
    ``N=40``, ``R=4``, ``L=4``, ``S=128MB``, ``W=1Gbps``, ``T=20s``,
    ``F=1440``, ``(n,k)=(16,12)``.
    """

    num_nodes: int = 40
    num_racks: int = 4
    map_slots: int = 4
    map_time: float = 20.0
    block_size: float = 128 * MB
    rack_bandwidth: float = gbps(1)
    code: CodeParams = CodeParams(16, 12)
    num_blocks: int = 1440

    def __post_init__(self) -> None:
        if self.num_nodes <= 1:
            raise ValueError("the failure-mode analysis needs at least two nodes")
        if self.num_racks < 1:
            raise ValueError("need at least one rack")
        if self.map_slots < 1:
            raise ValueError("need at least one map slot per node")
        if min(self.map_time, self.block_size, self.rack_bandwidth) <= 0:
            raise ValueError("times, sizes and bandwidths must be positive")
        if self.num_blocks <= 0:
            raise ValueError("need at least one block")

    def with_code(self, code: CodeParams) -> "AnalysisParams":
        """Copy with a different erasure code."""
        return replace(self, code=code)

    def with_blocks(self, num_blocks: int) -> "AnalysisParams":
        """Copy with a different file size."""
        return replace(self, num_blocks=num_blocks)

    def with_bandwidth(self, rack_bandwidth: float) -> "AnalysisParams":
        """Copy with a different rack download bandwidth."""
        return replace(self, rack_bandwidth=rack_bandwidth)


class AnalyticalModel:
    """Evaluates the Section IV-B formulas for a parameter set."""

    def __init__(self, params: AnalysisParams) -> None:
        self.params = params

    # -- building blocks -----------------------------------------------------

    def degraded_tasks_per_rack(self) -> float:
        """``F / (N R)``: degraded tasks each rack hosts after one node fails."""
        p = self.params
        return p.num_blocks / (p.num_nodes * p.num_racks)

    def expected_degraded_read_time(self) -> float:
        """``(R-1) k S / (R W)``: expected cross-rack download per lost block."""
        p = self.params
        return (p.num_racks - 1) * p.code.k * p.block_size / (p.num_racks * p.rack_bandwidth)

    def total_degraded_read_time_per_rack(self) -> float:
        """Serial time for one rack to download all its degraded reads."""
        return self.degraded_tasks_per_rack() * self.expected_degraded_read_time()

    # -- the three runtimes ---------------------------------------------------

    def normal_mode_runtime(self) -> float:
        """``F T / (N L)``: the map phase with no failures."""
        p = self.params
        return p.num_blocks * p.map_time / (p.num_nodes * p.map_slots)

    def locality_first_runtime(self) -> float:
        """LF in failure mode: local phase, then serialized degraded reads."""
        p = self.params
        return (
            self.normal_mode_runtime()
            + self.total_degraded_read_time_per_rack()
            + p.map_time
        )

    def degraded_first_runtime(self) -> float:
        """DF in failure mode: the max of the two bottleneck cases.

        Case 1 (reads fit inside the map phase): ``FT/((N-1)L) + T``.
        Case 2 (reads are the bottleneck): rack download time ``+ T``.
        """
        p = self.params
        compute_bound = (
            p.num_blocks * p.map_time / ((p.num_nodes - 1) * p.map_slots) + p.map_time
        )
        network_bound = self.total_degraded_read_time_per_rack() + p.map_time
        return max(compute_bound, network_bound)

    # -- normalized views --------------------------------------------------------

    def normalized_locality_first(self) -> float:
        """LF runtime over normal-mode runtime."""
        return self.locality_first_runtime() / self.normal_mode_runtime()

    def normalized_degraded_first(self) -> float:
        """DF runtime over normal-mode runtime."""
        return self.degraded_first_runtime() / self.normal_mode_runtime()

    def runtime_reduction(self) -> float:
        """Fractional runtime saved by DF relative to LF."""
        lf = self.locality_first_runtime()
        return (lf - self.degraded_first_runtime()) / lf
