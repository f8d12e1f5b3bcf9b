"""Wall-clock network emulation for the threaded testbed.

Transfers between testbed nodes take real (scaled) time and really contend:
each link of the two-level topology is guarded by a lock, and a transfer
holds every link on its path for ``size / bandwidth * time_scale`` seconds
-- the same exclusive-hold semantics the paper's CSIM simulator uses for its
NodeTree.  ``time_scale`` compresses the emulation (0.001 makes a simulated
second one millisecond) so testbed experiments finish quickly.

Lock acquisition is ordered by link name to stay deadlock-free.
"""

from __future__ import annotations

import threading
import time

from repro.cluster.network import NetworkSpec
from repro.cluster.topology import ClusterTopology


class EmulatedNetwork:
    """Thread-safe emulated network over a cluster topology.

    Parameters
    ----------
    topology:
        The cluster layout.
    network:
        Link capacities (bytes/second, pre-scaling).
    time_scale:
        Wall seconds per simulated second; 0.001 runs 1000x faster than
        real time.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        network: NetworkSpec,
        time_scale: float = 0.001,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time scale must be positive, got {time_scale}")
        self.topology = topology
        self.network = network
        self.time_scale = time_scale
        self._locks: dict[str, threading.Lock] = {}
        for rack in topology.racks:
            self._locks[f"rack{rack.rack_id}:down"] = threading.Lock()
            self._locks[f"rack{rack.rack_id}:up"] = threading.Lock()
        for node in topology.nodes:
            self._locks[f"node{node.node_id}:in"] = threading.Lock()
            self._locks[f"node{node.node_id}:out"] = threading.Lock()

    def path(self, src_node: int, dst_node: int) -> list[str]:
        """Links a transfer crosses (same scheme as the simulator NodeTree)."""
        if src_node == dst_node:
            return []
        src_rack = self.topology.rack_of(src_node)
        dst_rack = self.topology.rack_of(dst_node)
        links = [f"node{src_node}:out"]
        if src_rack != dst_rack:
            links.append(f"rack{src_rack}:up")
            links.append(f"rack{dst_rack}:down")
        links.append(f"node{dst_node}:in")
        return links

    def _bandwidth(self, link: str) -> float:
        if link.startswith("node"):
            return self.network.node_bandwidth
        if link.endswith(":up"):
            return self.network.rack_upload_bw
        return self.network.rack_download_bw

    def transfer(self, src_node: int, dst_node: int, size: float) -> float:
        """Move ``size`` bytes; blocks the calling thread for the duration.

        Returns the simulated (unscaled) seconds the transfer took,
        including queueing for busy links.
        """
        started = time.monotonic()
        links = sorted(self.path(src_node, dst_node))
        if links and size > 0:
            bottleneck = min(self._bandwidth(link) for link in links)
            duration = size / bottleneck * self.time_scale
            acquired: list[threading.Lock] = []
            try:
                for link in links:
                    lock = self._locks[link]
                    lock.acquire()
                    acquired.append(lock)
                time.sleep(duration)
            finally:
                for lock in reversed(acquired):
                    lock.release()
        return (time.monotonic() - started) / self.time_scale
