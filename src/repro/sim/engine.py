"""A deterministic generator-based discrete-event engine.

The engine follows the classic process-interaction style (SimPy, CSIM):
simulation *processes* are Python generators that ``yield`` either a
:class:`Timeout` (advance virtual time) or an :class:`Event` (block until it
fires).  The engine maintains a single event heap keyed by
``(time, sequence)`` so that simultaneous events run in schedule order,
making every run bit-for-bit reproducible.

Heap entries are plain tuples ``(time, seq, kind, target, payload, epoch)``
dispatched inline by :meth:`Simulator.run` -- no closure object is
allocated per scheduled step, which is the engine's dominant cost in large
sweeps.  ``kind`` is ``"send"``/``"throw"`` for process resumes (``target``
is the process, ``epoch`` guards against stale wake-ups) or ``"call"`` for
plain callbacks scheduled via :meth:`Simulator.call_at`.  The sequence
number is unique, so tuple comparison never reaches the non-orderable
fields.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield Timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker(sim, "a", 2.0))
>>> _ = sim.spawn(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. re-firing an event)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; calling :meth:`succeed` fires it, waking
    every process that yielded it.  Waiting on an already fired event
    resumes the waiter immediately with the stored value.
    """

    __slots__ = ("_sim", "_fired", "_value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._fired = False
        self._value: Any = None
        # Insertion-ordered waiter set: wake order matches append order (as
        # a list would give) while discarding a waiter stays O(1).
        self._waiters: dict[Process, None] = {}
        self.name = name

    @property
    def fired(self) -> bool:
        """Whether the event has already fired."""
        return self._fired

    @property
    def value(self) -> Any:
        """The value the event fired with; only valid once fired."""
        if not self._fired:
            raise SimulationError(f"event {self.name!r} has not fired yet")
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Fire the event successfully, waking all waiters this instant."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, {}
        for process in waiters:
            self._sim._schedule_resume(process, value)

    def _add_waiter(self, process: "Process") -> None:
        if self._fired:
            self._sim._schedule_resume(process, self._value)
        else:
            self._waiters[process] = None

    def _discard_waiter(self, process: "Process") -> None:
        self._waiters.pop(process, None)


class Timeout:
    """Yielded by a process to sleep for ``delay`` units of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout {delay}")
        self.delay = delay


class AllOf:
    """Yielded to wait until *all* of the given events have fired.

    Resumes with a list of the events' values in the given order.
    """

    __slots__ = ("events",)

    def __init__(self, events: list[Event]) -> None:
        self.events = list(events)


class Process:
    """A running simulation process wrapping a generator."""

    __slots__ = ("_sim", "_generator", "finished", "name", "_waiting_on", "_epoch")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        self._sim = sim
        self._generator = generator
        self.finished: Event = Event(sim, name=f"finished:{name}")
        self.name = name
        self._waiting_on: Event | None = None
        # Incremented every time the process runs; scheduled resumes capture
        # the epoch they were armed in, so a stale wake-up (e.g. a timeout
        # that was outrun by an interrupt) is dropped instead of resuming
        # the process a second time.
        self._epoch = 0

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self.finished.fired:
            return
        if self._waiting_on is not None:
            self._waiting_on._discard_waiter(self)
            self._waiting_on = None
        self._sim._schedule_throw(self, Interrupt(cause))

    def _step(self, kind: str, payload: Any) -> None:
        if self.finished.fired:
            return
        self._epoch += 1
        self._waiting_on = None
        try:
            if kind == "throw":
                yielded = self._generator.throw(payload)
            else:
                yielded = self._generator.send(payload)
        except StopIteration as stop:
            self.finished.succeed(stop.value)
            return
        except Interrupt as interrupt:
            # An unhandled interrupt terminates the process quietly.  Its
            # traceback holds this frame, whose ``payload`` is the interrupt:
            # a cycle that would pin the killed process's frames.
            interrupt.__traceback__ = None
            self.finished.succeed(None)
            return
        if type(yielded) is Timeout:
            # Fast path for the dominant yield kind: push the resume entry
            # inline, skipping the isinstance ladder and the method call.
            # The tuple is exactly what _schedule_resume would build.
            # (Timeout is never subclassed; _handle_yield keeps the
            # isinstance branch for any other caller.)
            sim = self._sim
            sim._sequence = seq = sim._sequence + 1
            _heappush(
                sim._heap,
                (sim._now + yielded.delay, seq, "send", self, None, self._epoch),
            )
            return
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            self._sim._schedule_resume(self, None, delay=yielded.delay)
            return
        if isinstance(yielded, Event):
            self._waiting_on = yielded
            yielded._add_waiter(self)
            return
        if isinstance(yielded, Process):
            self._waiting_on = yielded.finished
            yielded.finished._add_waiter(self)
            return
        if isinstance(yielded, AllOf):
            gate = Event(self._sim, name="allof")
            remaining = len(yielded.events)
            if remaining == 0:
                self._sim._schedule_resume(self, [])
                return
            values: list[Any] = [None] * remaining
            state = {"remaining": remaining}

            def arm(index: int, event: Event) -> None:
                def on_fire(value: Any) -> None:
                    values[index] = value
                    state["remaining"] -= 1
                    if state["remaining"] == 0:
                        gate.succeed(values)

                self._sim._add_callback(event, on_fire)

            for index, event in enumerate(yielded.events):
                arm(index, event)
            self._waiting_on = gate
            gate._add_waiter(self)
            return
        raise SimulationError(f"process {self.name!r} yielded unsupported {yielded!r}")


class _CallbackShim:
    """Quacks like a Process for Event's waiter set: a one-shot callback.

    It holds the callback and no reference back to the event, so the shim
    of an event that never fires (a cancelled flow) dies with that event.
    """

    __slots__ = ("_fn",)
    _epoch = 0  # callbacks are one-shot; no staleness to track

    def __init__(self, fn: Callable[[Any], None]) -> None:
        self._fn = fn

    def _step(self, kind: str, payload: Any) -> None:
        # Only events wake a shim, and events only succeed: ``kind`` is "send".
        self._fn(payload)


class Simulator:
    """The event loop: a heap of timestamped tuple entries and a virtual clock.

    Each heap entry is ``(time, seq, kind, target, payload, epoch)``;
    :meth:`run` dispatches entries inline instead of calling per-entry
    closures (see the module docstring).
    """

    __slots__ = ("_now", "_heap", "_sequence", "dispatched", "monitor", "__weakref__")

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, str, Any, Any, int]] = []
        self._sequence = 0
        #: Callbacks dispatched so far -- the engine's always-on profiling
        #: counter (an int increment per event; feeds events/sec reporting).
        self.dispatched = 0
        #: Optional sanitizer (see :mod:`repro.check`); when set, its
        #: ``on_dispatch(time)`` sees every dispatched heap entry.  The hook
        #: observes only -- it must never schedule or mutate state -- except
        #: that it may raise to abort a runaway trial.
        self.monitor = None

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def all_of(self, events: list[Event]) -> AllOf:
        """Create a conjunction wait on several events."""
        return AllOf(events)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator; first step runs at ``now``."""
        process = Process(self, generator, name=name)
        self._schedule_resume(process, None)
        return process

    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule a plain callback at an absolute virtual time."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} before now {self._now}")
        self._push(time, fn)

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule a plain callback after ``delay`` units."""
        self.call_at(self._now + delay, fn)

    def run(self, until: float | None = None) -> None:
        """Run until the heap drains or virtual time reaches ``until``."""
        heap = self._heap
        pop = _heappop
        monitor = self.monitor
        count = 0
        try:
            if until is None:
                # Run-to-drain loop: no horizon, so skip the per-entry peek
                # and bound check entirely.
                while heap:
                    time, _, kind, target, payload, epoch = pop(heap)
                    self._now = time
                    count += 1
                    if monitor is not None:
                        monitor.on_dispatch(time)
                    if kind == "call":
                        target()
                    elif target._epoch == epoch:
                        # A stale wake-up (the process ran since this entry
                        # was armed, e.g. a timeout outrun by an interrupt)
                        # is dropped without resuming the process again.
                        target._step(kind, payload)
                return
            while heap:
                time = heap[0][0]
                if time > until:
                    self._now = until
                    return
                _, _, kind, target, payload, epoch = pop(heap)
                self._now = time
                count += 1
                if monitor is not None:
                    monitor.on_dispatch(time)
                if kind == "call":
                    target()
                elif target._epoch == epoch:
                    # Same stale-wake-up guard as the drain loop above.
                    target._step(kind, payload)
        finally:
            # Batched so the hot loop touches one local instead of an
            # attribute per event; exceptions still leave the count right.
            self.dispatched += count
        if until is not None and until > self._now:
            self._now = until

    def peek(self) -> float | None:
        """Time of the next scheduled callback, or None when idle."""
        if not self._heap:
            return None
        return self._heap[0][0]

    # -- internal plumbing -------------------------------------------------

    def _push(self, time: float, fn: Callable[[], None]) -> None:
        self._sequence = seq = self._sequence + 1
        _heappush(self._heap, (time, seq, "call", fn, None, 0))

    def _schedule_resume(self, process: Process, value: Any, delay: float = 0.0) -> None:
        self._sequence = seq = self._sequence + 1
        _heappush(
            self._heap,
            (self._now + delay, seq, "send", process, value, process._epoch),
        )

    def _schedule_throw(self, process: Process, error: BaseException) -> None:
        self._sequence = seq = self._sequence + 1
        _heappush(
            self._heap,
            (self._now, seq, "throw", process, error, process._epoch),
        )

    def _add_callback(self, event: Event, fn: Callable[[Any], None]) -> None:
        """Attach a plain callback to an event (fires immediately if fired)."""
        if event.fired:
            self._push(self._now, lambda: fn(event._value))
            return
        event._waiters[_CallbackShim(fn)] = None  # type: ignore[index]
