"""The structured event bus: typed simulation events, synchronously fanned out.

Every instrumented subsystem (engine callbacks aside) publishes *events* --
small ``(time, kind, fields)`` records -- onto one :class:`EventBus` per
trial.  Subscribers (normally the
:class:`~repro.obs.collector.ObservabilityCollector`) receive each event
synchronously, in emission order, at the simulation instant it happened.

Design constraints, enforced by construction:

* **Zero overhead when off.**  Instrumented call sites hold ``bus = None``
  by default and guard every emission with ``if bus is not None``; no event
  object is ever built on the off path.
* **No perturbation when on.**  ``emit`` calls subscribers directly -- it
  never schedules simulator callbacks, never touches the event heap, and
  never draws randomness -- so a trial's :class:`SimulationResult` is
  bit-identical with instrumentation on or off.

Event taxonomy (the ``kind`` strings; fields documented in DESIGN.md §8):

=====================  =========================================================
kind                   emitted when
=====================  =========================================================
``job.submit``         a job enters the FIFO queue
``job.finish``         a job's last task completes
``job.fail``           a job is abandoned (retry budget exhausted)
``heartbeat``          the master handled one slave heartbeat
``sched.decision``     a scheduler chose (or rejected) a map assignment
``task.launch``        a slave spawned a task-runner process
``task.finish``        a task completed and reported back
``task.kill``          a running attempt was interrupted
``task.requeue``       the master re-queued a lost attempt for re-execution
``degraded.start``     a degraded read began fetching surviving blocks
``degraded.end``       a degraded read finished reconstructing its block
``degraded.replan``    a degraded read lost a source mid-flight and re-planned
``degraded.park``      a task parked waiting for repair to restore its stripe
``degraded.unpark``    a parked task woke after an availability change
``block.corrupt``      a checksum-bad block was discovered (read or scrub)
``repair.start``       the repair driver began rebuilding one block
``repair.end``         a rebuilt block landed and the BlockMap was updated
``repair.retry``       a repair lost a source mid-flight and will re-plan
``repair.backlog``     the repair queue depth changed (queued + in flight)
``flow.start``         a network flow entered the fluid/exclusive network
``flow.end``           a network flow completed
``flow.cancel``        a network flow was aborted (its source node died)
``slot.change``        a map/reduce slot was taken or released
``shuffle.deposit``    a completed map deposited intermediate data
``shuffle.drain``      a reducer claimed its pending shuffle bytes
``failure.detect``     heartbeat expiry declared a node dead
``node.fail``          a node left the live view (scripted or detected)
``node.recover``       a failed node rejoined
``node.blacklist``     a node crossed the consecutive-failure threshold
``spec.launch``        a speculative backup attempt was issued
=====================  =========================================================
"""

from __future__ import annotations

from collections.abc import Callable

#: Subscription key matching every event kind.
WILDCARD = "*"


class ObsEvent:
    """One structured observation: what happened, when, and its payload.

    A ``__slots__`` value object, one built per emission; treat it as
    immutable -- every subscriber shares it.
    """

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: dict | None = None) -> None:
        self.time = time
        self.kind = kind
        self.fields = {} if fields is None else fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.time, self.kind, self.fields) == (
            other.time, other.kind, other.fields
        )

    def __repr__(self) -> str:
        time, kind, fields = self.time, self.kind, self.fields
        return f"ObsEvent({time=}, {kind=}, {fields=})"

    def to_dict(self) -> dict:
        """Flat JSON-friendly form.

        ``t`` and ``kind`` are reserved: a payload field with either name
        is shadowed, never the event's own timestamp/kind.
        """
        record = dict(self.fields)
        record["t"] = self.time
        record["kind"] = self.kind
        return record


class EventBus:
    """Synchronous publish/subscribe fan-out for :class:`ObsEvent`.

    Subscribers registered for a specific kind receive only that kind;
    subscribers registered for :data:`WILDCARD` receive everything.
    Dispatch order is registration order (kind-specific before wildcard);
    that order is folded into one tuple per kind on the kind's first
    emission, and every ``subscribe`` drops the folded routes.
    """

    def __init__(self) -> None:
        self._subscribers: dict[str, list[Callable[[ObsEvent], None]]] = {}
        self._routes: dict[str, tuple[Callable[[ObsEvent], None], ...]] = {}
        self.emitted = 0
        self.counts: dict[str, int] = {}

    def subscribe(self, kind: str, handler: Callable[[ObsEvent], None]) -> None:
        """Register ``handler`` for ``kind`` (or :data:`WILDCARD`)."""
        self._subscribers.setdefault(kind, []).append(handler)
        self._routes.clear()

    def emit(self, kind: str, time: float, /, **fields) -> ObsEvent:
        """Publish one event; subscribers run synchronously, in order.

        ``kind`` and ``time`` are positional-only so payloads may reuse
        those words as field names (e.g. ``kind="map"`` on task events).
        """
        event = ObsEvent(time, kind, fields)
        self.emitted += 1
        counts = self.counts
        try:
            counts[kind] += 1
        except KeyError:
            counts[kind] = 1
        try:
            route = self._routes[kind]
        except KeyError:
            subscribers = self._subscribers
            route = self._routes[kind] = (
                *subscribers.get(kind, ()), *subscribers.get(WILDCARD, ())
            )
        for handler in route:
            handler(event)
        return event
