"""Nodes, racks and the two-level cluster topology.

The paper's clusters (Figures 1 and 2) are two-level: nodes connect to a
top-of-rack switch, top-of-rack switches connect to a core switch.  A
:class:`ClusterTopology` is an immutable description of that structure plus
per-node compute characteristics (slot counts, relative speed) used by the
heterogeneous-cluster experiments.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Node:
    """One server in the cluster.

    Parameters
    ----------
    node_id:
        Cluster-wide identifier, dense from 0.
    rack_id:
        Identifier of the rack this node lives in.
    map_slots:
        Number of map tasks the node can run concurrently.
    reduce_slots:
        Number of reduce tasks the node can run concurrently.
    speed_factor:
        Relative compute speed; task processing time is divided by this, so
        2.0 means twice as fast and 0.5 half as fast.  Used by the
        heterogeneous and "extreme case" experiments (Figure 8).
    """

    node_id: int
    rack_id: int
    map_slots: int = 4
    reduce_slots: int = 1
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.map_slots < 0 or self.reduce_slots < 0:
            raise ValueError("slot counts must be non-negative")
        if self.speed_factor <= 0:
            raise ValueError(f"speed factor must be positive, got {self.speed_factor}")


@dataclass(frozen=True)
class Rack:
    """A rack: an id plus the ids of its member nodes."""

    rack_id: int
    node_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class ClusterTopology:
    """Immutable description of a two-level cluster.

    Build with :meth:`homogeneous`, :meth:`from_rack_sizes` or
    :meth:`from_nodes`.
    """

    nodes: tuple[Node, ...]
    racks: tuple[Rack, ...]
    _node_by_id: dict[int, Node] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id = {node.node_id: node for node in self.nodes}
        if len(by_id) != len(self.nodes):
            raise ValueError("duplicate node ids in topology")
        rack_ids = {rack.rack_id for rack in self.racks}
        if len(rack_ids) != len(self.racks):
            raise ValueError("duplicate rack ids in topology")
        for node in self.nodes:
            if node.rack_id not in rack_ids:
                raise ValueError(f"node {node.node_id} references unknown rack {node.rack_id}")
        for rack in self.racks:
            for node_id in rack.node_ids:
                if node_id not in by_id:
                    raise ValueError(f"rack {rack.rack_id} references unknown node {node_id}")
                if by_id[node_id].rack_id != rack.rack_id:
                    raise ValueError(
                        f"node {node_id} disagrees with rack {rack.rack_id} membership"
                    )
        object.__setattr__(self, "_node_by_id", by_id)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_nodes(cls, nodes: Sequence[Node]) -> "ClusterTopology":
        """Build a topology from an explicit node list; racks are inferred."""
        rack_members: dict[int, list[int]] = {}
        for node in nodes:
            rack_members.setdefault(node.rack_id, []).append(node.node_id)
        racks = tuple(
            Rack(rack_id=rack_id, node_ids=tuple(sorted(members)))
            for rack_id, members in sorted(rack_members.items())
        )
        return cls(nodes=tuple(nodes), racks=racks)

    @classmethod
    def from_rack_sizes(
        cls,
        rack_sizes: Sequence[int],
        map_slots: int = 4,
        reduce_slots: int = 1,
        speed_factors: Sequence[float] | None = None,
    ) -> "ClusterTopology":
        """Build a topology with the given number of nodes per rack.

        ``speed_factors``, if given, supplies one factor per node in
        node-id order; otherwise all nodes run at speed 1.0.
        """
        total = sum(rack_sizes)
        if speed_factors is not None and len(speed_factors) != total:
            raise ValueError(
                f"expected {total} speed factors, got {len(speed_factors)}"
            )
        nodes: list[Node] = []
        node_id = 0
        for rack_id, size in enumerate(rack_sizes):
            if size <= 0:
                raise ValueError(f"rack {rack_id} has non-positive size {size}")
            for _ in range(size):
                speed = 1.0 if speed_factors is None else speed_factors[node_id]
                nodes.append(
                    Node(
                        node_id=node_id,
                        rack_id=rack_id,
                        map_slots=map_slots,
                        reduce_slots=reduce_slots,
                        speed_factor=speed,
                    )
                )
                node_id += 1
        return cls.from_nodes(nodes)

    @classmethod
    def homogeneous(cls, num_nodes: int, num_racks: int) -> "ClusterTopology":
        """Build the paper's default layout: ``num_nodes`` spread evenly.

        Each node has the default four map slots and one reduce slot.
        """
        if num_racks <= 0:
            raise ValueError(f"need at least one rack, got {num_racks}")
        if num_nodes % num_racks != 0:
            raise ValueError(
                f"{num_nodes} nodes do not divide evenly into {num_racks} racks"
            )
        per_rack = num_nodes // num_racks
        return cls.from_rack_sizes([per_rack] * num_racks)

    # -- queries ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return len(self.nodes)

    @property
    def num_racks(self) -> int:
        """Total rack count."""
        return len(self.racks)

    def node(self, node_id: int) -> Node:
        """Look up a node by id."""
        try:
            return self._node_by_id[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    def rack_of(self, node_id: int) -> int:
        """Rack id of a node."""
        return self.node(node_id).rack_id

    def rack(self, rack_id: int) -> Rack:
        """Look up a rack by id."""
        for candidate in self.racks:
            if candidate.rack_id == rack_id:
                return candidate
        raise KeyError(f"no rack with id {rack_id}")

    def nodes_in_rack(self, rack_id: int) -> tuple[int, ...]:
        """Node ids in a rack."""
        return self.rack(rack_id).node_ids

    def node_ids(self) -> Iterable[int]:
        """All node ids in ascending order."""
        return sorted(self._node_by_id)
