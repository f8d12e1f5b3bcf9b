"""The NodeTree: routing transfers through the two-level switch hierarchy.

The paper's simulator exposes a *NodeTree* structure that "simulates a
storage cluster with two levels of switches ... and handles all intra-rack
and inter-rack transmission requests".  This module reproduces it: given a
:class:`~repro.cluster.topology.ClusterTopology` and a
:class:`~repro.cluster.network.NetworkSpec`, it creates

* one **uplink** and one **downlink** per rack (capacity ``W``, the paper's
  rack download bandwidth), crossed by inter-rack traffic, and
* one **NIC ingress** and **NIC egress** link per node (capacity defaults
  to ``W``), so that top-of-rack switching is non-blocking: distinct
  intra-rack node pairs transfer in parallel at full port speed, matching
  the paper's premise that "rack-local tasks can run as fast as node-local
  tasks if the network speed within the same rack is sufficiently high".

Two contention models are supported (see :mod:`repro.sim.resources`):
``"fluid"`` max-min fair sharing (default) and ``"exclusive"``
hold-the-link semantics (CSIM style).
"""

from __future__ import annotations

from repro.cluster.network import NetworkSpec
from repro.cluster.topology import ClusterTopology
from repro.sim.engine import Event, Simulator
from repro.sim.resources import ExclusivePathNetwork, FluidNetwork

#: Supported contention models.
CONTENTION_MODELS = ("fluid", "exclusive")


class NodeTree:
    """Routes node-to-node transfers over rack links and node NICs.

    Parameters
    ----------
    sim:
        The simulation engine.
    topology:
        The cluster layout.
    network:
        Link capacities.
    model:
        ``"fluid"`` (max-min fair sharing) or ``"exclusive"`` (each transfer
        holds its links, CSIM style).
    """

    def __init__(
        self,
        sim: Simulator,
        topology: ClusterTopology,
        network: NetworkSpec,
        model: str = "fluid",
    ) -> None:
        if model not in CONTENTION_MODELS:
            raise ValueError(
                f"unknown contention model {model!r}; use one of {CONTENTION_MODELS}"
            )
        self.sim = sim
        self.topology = topology
        self.network = network
        self.model = model
        if model == "fluid":
            self._links: FluidNetwork | ExclusivePathNetwork = FluidNetwork(sim)
        else:
            self._links = ExclusivePathNetwork(sim)
        for rack in topology.racks:
            self._links.add_link(self._downlink(rack.rack_id), network.rack_download_bw)
            self._links.add_link(self._uplink(rack.rack_id), network.rack_upload_bw)
        for node in topology.nodes:
            self._links.add_link(self._nic_in(node.node_id), network.node_bandwidth)
            self._links.add_link(self._nic_out(node.node_id), network.node_bandwidth)

    def set_observer(self, observer) -> None:
        """Attach a network observer (see :mod:`repro.obs`) to the links.

        The observer learns every link's capacity up front, then receives
        ``flow_started`` / ``flow_finished`` / ``rates_updated`` callbacks
        synchronously as transfers come and go.  Pass ``None`` to detach.
        """
        self._links.set_observer(observer)

    @staticmethod
    def _downlink(rack_id: int) -> str:
        return f"rack{rack_id}:down"

    @staticmethod
    def _uplink(rack_id: int) -> str:
        return f"rack{rack_id}:up"

    @staticmethod
    def _nic_in(node_id: int) -> str:
        return f"node{node_id}:in"

    @staticmethod
    def _nic_out(node_id: int) -> str:
        return f"node{node_id}:out"

    def path(self, src_node: int, dst_node: int) -> list[str]:
        """Links crossed by a transfer from ``src_node`` to ``dst_node``.

        Same node: no links.  Same rack: both NICs (the top-of-rack switch
        is non-blocking).  Cross rack: both NICs plus the source rack's
        uplink and the destination rack's downlink.
        """
        if src_node == dst_node:
            return []
        src_rack = self.topology.rack_of(src_node)
        dst_rack = self.topology.rack_of(dst_node)
        links = [self._nic_out(src_node)]
        if src_rack != dst_rack:
            links.append(self._uplink(src_rack))
            links.append(self._downlink(dst_rack))
        links.append(self._nic_in(dst_node))
        return links

    def rack_path(self, src_rack: int, dst_node: int) -> list[str]:
        """Links for an aggregate flow from many nodes of one rack.

        The individual source NICs are omitted (each source contributes only
        a slice of the aggregate); the flow still crosses the rack uplink,
        the reader rack's downlink and the reader's NIC.
        """
        dst_rack = self.topology.rack_of(dst_node)
        if src_rack == dst_rack:
            return [self._nic_in(dst_node)]
        return [
            self._uplink(src_rack),
            self._downlink(dst_rack),
            self._nic_in(dst_node),
        ]

    def add_throttle(self, name: str, capacity: float) -> None:
        """Register a virtual throttle link (e.g. the repair bandwidth cap).

        A throttle link is not part of any node-to-node path; callers add it
        to a transfer via :meth:`transfer_throttled`, so the combined rate
        of all flows sharing the throttle never exceeds ``capacity`` while
        each flow still competes max-min fairly on the real links it
        crosses.  Must be called before :meth:`set_observer` for the link to
        appear in utilization reports.
        """
        self._links.add_link(name, capacity)

    def has_throttle(self, name: str) -> bool:
        """Whether a throttle link with this name is registered."""
        return self._links.has_link(name)

    def transfer(self, src_node: int, dst_node: int, size: float) -> Event:
        """Move ``size`` bytes; the returned event fires on completion."""
        return self._links.transfer(self.path(src_node, dst_node), size)

    def transfer_throttled(
        self, src_node: int, dst_node: int, size: float, throttle: str
    ) -> Event:
        """Move ``size`` bytes with the flow also crossing a throttle link."""
        return self._links.transfer(
            self.path(src_node, dst_node) + [throttle], size
        )

    def cancel(self, done: Event) -> bool:
        """Abort an in-flight transfer by its completion event (source died).

        True if the flow was found and removed; its event never fires.
        """
        return self._links.cancel(done)

    def transfer_from_rack(self, src_rack: int, dst_node: int, size: float) -> Event:
        """Move ``size`` bytes aggregated from several nodes of one rack.

        Degraded reads and shuffle fetches pull from many sources at once;
        modelling the sources of one rack as a single aggregate flow keeps
        the event count manageable while preserving which links carry the
        bytes.
        """
        return self._links.transfer(self.rack_path(src_rack, dst_node), size)

    def is_cross_rack(self, src_node: int, dst_node: int) -> bool:
        """Whether a transfer between the nodes crosses the core switch."""
        return self.topology.rack_of(src_node) != self.topology.rack_of(dst_node)
