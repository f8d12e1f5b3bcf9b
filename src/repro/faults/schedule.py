"""Declarative failure schedules: a reproducible timeline of cluster churn.

A :class:`FailureSchedule` is an ordered list of timed events -- nodes (or
whole racks) failing, failed nodes recovering, nodes slowing down -- that a
driver process replays against the running simulation.  Because the schedule
is plain data and the simulator is deterministic, trials with mid-run churn
are exactly reproducible from a seed.

Schedules are built two ways:

* programmatically::

      FailureSchedule((FailEvent(at=30.0, node=5), RecoverEvent(at=120.0, node=5)))

* from a small dict / JSON trace (``kind`` selects the event type)::

      {"events": [{"kind": "fail", "at": 30.0, "node": 5},
                  {"kind": "recover", "at": 120.0, "node": 5},
                  {"kind": "slowdown", "at": 60.0, "node": 7,
                   "factor": 4.0, "duration": 50.0},
                  {"kind": "corrupt", "at": 15.0, "stripe": 2, "position": 0}]}


Events at ``at == 0`` model nodes that are *down before the trial starts*
(the paper's setting): the master knows about them from the outset, exactly
as the pre-existing ``failed_nodes`` plumbing behaved.  Events at ``at > 0``
are genuine crashes: the node's processes die silently and the master only
learns of the death once heartbeats stop arriving (see
:mod:`repro.faults.driver`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Union

from repro.cluster.topology import ClusterTopology


@dataclass(frozen=True)
class FailEvent:
    """A node (or a whole rack) crashes at ``at``.

    Exactly one of ``node`` / ``rack`` must be given; a rack event expands
    to simultaneous crashes of every node in the rack.
    """

    at: float
    node: int | None = None
    rack: int | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"negative event time {self.at}")
        if (self.node is None) == (self.rack is None):
            raise ValueError("a FailEvent needs exactly one of node= or rack=")


@dataclass(frozen=True)
class RecoverEvent:
    """A previously failed node rejoins the cluster at ``at``."""

    at: float
    node: int

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"negative event time {self.at}")


@dataclass(frozen=True)
class SlowdownEvent:
    """A node runs ``factor`` times slower between ``at`` and ``at + duration``.

    Only task processing speed is affected (slow CPU / contended disk); the
    node keeps heartbeating, so the master never declares it dead -- this is
    the straggler scenario speculative execution exists for.
    """

    at: float
    node: int
    factor: float
    duration: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"negative event time {self.at}")
        if self.factor <= 1.0:
            raise ValueError(f"slowdown factor must exceed 1, got {self.factor}")
        if self.duration <= 0:
            raise ValueError(f"slowdown duration must be positive, got {self.duration}")


@dataclass(frozen=True)
class CorruptEvent:
    """One stored block goes checksum-bad at ``at`` while its node stays up.

    ``stripe`` / ``position`` name the block (position ``>= k`` is a parity
    block).  The master is *not* told: corruption is discovered lazily when
    a reader checksums the block, or proactively by the scrubber process if
    one is configured (see :mod:`repro.storage.repair_driver`).
    """

    at: float
    stripe: int
    position: int

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"negative event time {self.at}")
        if self.stripe < 0:
            raise ValueError(f"negative stripe id {self.stripe}")
        if self.position < 0:
            raise ValueError(f"negative block position {self.position}")


FaultEvent = Union[FailEvent, RecoverEvent, SlowdownEvent, CorruptEvent]

#: ``kind`` tag used in dict/JSON traces, per event class.
_KIND_OF = {
    FailEvent: "fail",
    RecoverEvent: "recover",
    SlowdownEvent: "slowdown",
    CorruptEvent: "corrupt",
}
_CLASS_OF = {kind: cls for cls, kind in _KIND_OF.items()}


@dataclass(frozen=True)
class FailureSchedule:
    """An immutable, time-ordered list of fault events for one trial."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda event: event.at))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: dict) -> "FailureSchedule":
        """Build a schedule from a ``{"events": [...]}`` trace dict."""
        entries = payload.get("events", [])
        events = []
        for entry in entries:
            fields = dict(entry)
            kind = fields.pop("kind", None)
            if kind not in _CLASS_OF:
                raise ValueError(
                    f"event kind must be one of {sorted(_CLASS_OF)}, got {kind!r}"
                )
            events.append(_CLASS_OF[kind](**fields))
        return cls(tuple(events))

    @classmethod
    def from_json(cls, text: str) -> "FailureSchedule":
        """Parse a schedule from a JSON trace string."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FailureSchedule":
        """Load a schedule from a JSON trace file."""
        with open(path) as handle:
            return cls.from_json(handle.read())

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> dict:
        """The dict trace this schedule round-trips through."""
        events = []
        for event in self.events:
            entry = {"kind": _KIND_OF[type(event)]}
            entry.update(
                {key: value for key, value in asdict(event).items() if value is not None}
            )
            events.append(entry)
        return {"events": events}

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise to a JSON trace string."""
        return json.dumps(self.to_dict(), indent=indent)

    # -- queries the simulation driver makes ----------------------------------

    def validate(
        self,
        topology: ClusterTopology,
        num_stripes: int | None = None,
        stripe_width: int | None = None,
    ) -> None:
        """Raise if any event targets a node, rack, or block that never exists.

        The topology is static for the lifetime of a trial, so a node id
        outside it can never become valid ("recovers later" is not a thing
        the cluster model allows) -- every event is checked, not just the
        initial-failure set.  Error messages carry the offending event's
        index into :attr:`events` so a bad entry in a long generated or
        trace-loaded schedule can be found directly.

        ``num_stripes`` / ``stripe_width`` optionally bound
        :class:`CorruptEvent` block coordinates; without them corrupt events
        are deferred to install time, when the BlockMap shape is known.
        """
        node_ids = set(topology.node_ids())
        rack_ids = {rack.rack_id for rack in topology.racks}
        for index, event in enumerate(self.events):
            where = f"events[{index}] ({_KIND_OF[type(event)]} at t={event.at})"
            if isinstance(event, CorruptEvent):
                if num_stripes is not None and event.stripe >= num_stripes:
                    raise ValueError(
                        f"{where} references unknown stripe {event.stripe} "
                        f"(file has {num_stripes} stripes)"
                    )
                if stripe_width is not None and event.position >= stripe_width:
                    raise ValueError(
                        f"{where} references unknown block position "
                        f"{event.position} (stripes are n={stripe_width} wide)"
                    )
            elif isinstance(event, FailEvent) and event.rack is not None:
                if event.rack not in rack_ids:
                    raise ValueError(f"{where} references unknown rack {event.rack}")
            elif event.node not in node_ids:
                raise ValueError(f"{where} references unknown node {event.node}")

    def fail_targets(self, event: FailEvent, topology: ClusterTopology) -> list[int]:
        """The concrete node ids one fail event takes down."""
        if event.node is not None:
            return [event.node]
        return sorted(topology.nodes_in_rack(event.rack))

    def initial_failures(self, topology: ClusterTopology) -> frozenset[int]:
        """Nodes dead before the trial starts (``FailEvent`` at ``t == 0``)."""
        dead: set[int] = set()
        for event in self.events:
            if isinstance(event, FailEvent) and event.at == 0.0:
                dead.update(self.fail_targets(event, topology))
        return frozenset(dead)

    def deferred_events(self) -> list[FaultEvent]:
        """Events the driver must replay mid-run (everything but t=0 fails)."""
        return [
            event
            for event in self.events
            if not (isinstance(event, FailEvent) and event.at == 0.0)
        ]
