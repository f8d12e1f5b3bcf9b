"""Bandwidth specification and transfer-time primitives.

All bandwidths are stored in **bytes per second** and all sizes in bytes;
helpers convert from the paper's megabit figures.  The paper's single
network parameter is ``W``, "the download bandwidth of each rack"; the spec
additionally exposes the rack uplink and the per-node port (NIC) bandwidth
so the simulator can model shuffle and rack-local traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes per megabyte, matching the paper's use of MB for block sizes.
MB = 1024 * 1024

#: Bytes per gigabyte.
GB = 1024 * MB


def mbps(value: float) -> float:
    """Convert megabits/second to bytes/second (decimal megabits, as in '1Gbps')."""
    return value * 1_000_000 / 8


def gbps(value: float) -> float:
    """Convert gigabits/second to bytes/second."""
    return mbps(value * 1000)


@dataclass(frozen=True)
class NetworkSpec:
    """Link capacities of the two-level topology.

    Parameters
    ----------
    rack_download_bw:
        Bytes/second each rack can receive from the core switch (the paper's
        ``W``).
    rack_upload_bw:
        Bytes/second each rack can send to the core switch.  Defaults to the
        download bandwidth; set to ``float('inf')`` to reproduce the
        analysis, which only bottlenecks on downloads.
    node_bandwidth:
        Bytes/second of each node's switch port (NIC), in each direction.
        The top-of-rack switch is modelled as non-blocking, so an
        intra-rack transfer is limited only by the two ports; this matches
        the paper's premise that rack-local tasks run as fast as node-local
        ones.  Defaults to ``rack_download_bw``.
    """

    rack_download_bw: float
    rack_upload_bw: float | None = None
    node_bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.rack_download_bw <= 0:
            raise ValueError("rack download bandwidth must be positive")
        if self.rack_upload_bw is None:
            object.__setattr__(self, "rack_upload_bw", self.rack_download_bw)
        if self.node_bandwidth is None:
            object.__setattr__(self, "node_bandwidth", self.rack_download_bw)
