"""Property test: the module-level callback shim against its per-call ancestor.

``Simulator._add_callback`` used to build a fresh ``_CallbackShim`` *class*
for every callback it attached (one per ``AllOf`` member), closing over the
callback and naming the event as a class attribute.  It now instantiates
one module-level ``__slots__`` class that holds the callback and nothing
else.  The argument for the hoist is that the engine only ever reads a
waiter's ``_epoch`` and calls its ``_step``, so *nothing observable
changes*: not one resume value, wake-up order or heap entry.

This file holds the old method on :class:`ReferenceSimulator` (copied
verbatim, less the failed-event branches that left with ``Event.fail``),
and drives it and the real engine with the same random script: gatherers
waiting on ``AllOf`` over 3--6 shared events (members repeated inside one
gate, shared between gates, already fired when the gate is armed), plain
waiters on the same events, events that fire or never fire (a cancelled
flow's completion), and interrupts thrown at gatherers before, while and
after they are parked on a gate.  Times sit on a coarse grid so arming,
firing and interrupting collide in one instant all the time.  Required
identical: the ``(time, who, what, value)`` log -- resume values and
completion order -- which processes finished, the final clock and
``Simulator.dispatched``.

The last test is the mutation check of this harness: a callback of an
already-fired member that runs at once instead of from the heap must be
caught.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.sim.engine import AllOf, Event, Interrupt, Simulator, Timeout, _CallbackShim


class ReferenceSimulator(Simulator):
    """The engine with the per-call-class ``_add_callback`` of the commit before."""

    __slots__ = ()

    def _add_callback(self, event: Event, fn: Callable[[Any], None]) -> None:
        """Attach a plain callback to an event (fires immediately if fired)."""
        if event.fired:
            self._push(self._now, lambda: fn(event._value))
            return

        class _CallbackShim:
            """Quacks like a Process for Event's waiter set."""

            __slots__ = ()
            _epoch = 0  # callbacks are one-shot; no staleness to track
            finished = event  # only `.fired` is consulted, never re-fired

            def _step(self, kind: str, payload: Any) -> None:
                fn(payload)

        event._waiters[_CallbackShim()] = None  # type: ignore[index]


@dataclass(frozen=True)
class Fire:
    at: float
    event: int


@dataclass(frozen=True)
class Gather:
    at: float
    members: tuple[int, ...]
    #: Sleep this long after the gate (interrupted or not), so a gate that
    #: completes late would show as an early wake-up.
    linger: float


@dataclass(frozen=True)
class Wait:
    at: float
    event: int


@dataclass(frozen=True)
class Kick:
    at: float
    #: Index into the script of the Gather (or Wait) to interrupt.
    target: int


@st.composite
def gate_script(draw):
    """A number of events plus a schedule of fires, waits, gates and interrupts."""
    num_events = draw(st.integers(min_value=3, max_value=6))
    event = st.integers(min_value=0, max_value=num_events - 1)
    instant = st.integers(min_value=0, max_value=12).map(lambda tick: tick * 0.5)
    ops: list[Fire | Gather | Wait | Kick] = []
    for _ in range(draw(st.integers(min_value=2, max_value=18))):
        kind = draw(st.integers(min_value=0, max_value=9))
        processes = [
            index for index, op in enumerate(ops) if isinstance(op, (Gather, Wait))
        ]
        if kind <= 3:
            # An event left out never fires.
            ops.append(Fire(draw(instant), draw(event)))
        elif kind <= 6 or not processes:
            members = tuple(draw(st.lists(event, min_size=0, max_size=5)))
            ops.append(
                Gather(draw(instant), members, draw(st.sampled_from((0.0, 1.0, 4.0))))
            )
        elif kind == 7:
            ops.append(Wait(draw(instant), draw(event)))
        else:
            target = draw(st.sampled_from(processes))
            delay = draw(st.sampled_from((-0.5, 0.0, 0.5, 1.0, 3.0)))
            ops.append(Kick(max(0.0, ops[target].at + delay), target))
    return num_events, ops


def run_script(simulator_class, num_events: int, ops) -> dict:
    """Drive one engine with the script; return everything observable."""
    sim = simulator_class()
    events = [sim.event(name=f"e{index}") for index in range(num_events)]
    processes: dict[int, Any] = {}
    log: list[tuple] = []

    def gatherer(index: int, op: Gather):
        try:
            yield Timeout(op.at)
            values = yield AllOf([events[member] for member in op.members])
            log.append((sim.now, index, "values", values))
        except Interrupt as interrupt:
            log.append((sim.now, index, "interrupted", interrupt.cause))
        yield Timeout(op.linger)
        log.append((sim.now, index, "lingered", None))

    def waiter(index: int, op: Wait):
        yield Timeout(op.at)
        value = yield events[op.event]
        log.append((sim.now, index, "woken", value))

    def fire(index: int, op: Fire) -> None:
        target = events[op.event]
        if not target.fired:
            target.succeed(("value", index))

    def kick(index: int, op: Kick) -> None:
        processes[op.target].interrupt(("kick", index))

    for index, op in enumerate(ops):
        if isinstance(op, Gather):
            processes[index] = sim.spawn(gatherer(index, op), name=f"gather{index}")
        elif isinstance(op, Wait):
            processes[index] = sim.spawn(waiter(index, op), name=f"wait{index}")
        elif isinstance(op, Fire):
            sim.call_at(op.at, lambda index=index, op=op: fire(index, op))
        else:
            sim.call_at(op.at, lambda index=index, op=op: kick(index, op))
    sim.run()
    return {
        "log": log,
        "finished": {index: process.finished.fired for index, process in processes.items()},
        "now": sim.now,
        "dispatched": sim.dispatched,
    }


def assert_equivalent(simulator_class, num_events: int, ops) -> dict:
    expected = run_script(ReferenceSimulator, num_events, ops)
    actual = run_script(simulator_class, num_events, ops)
    for key in ("log", "finished", "now", "dispatched"):
        assert actual[key] == expected[key], key
    return expected


@settings(max_examples=400, deadline=None)
@given(gate_script())
def test_same_observable_behaviour_as_per_call_class_reference(script):
    assert_equivalent(Simulator, *script)


def test_fixed_script_reaches_every_case():
    """One hand-written script, so the cases above are provably exercised."""
    ops = [
        Fire(0.0, 0),  # 0: e0 is fired before any gate is armed
        Gather(1.0, (0, 1, 1, 2), linger=1.0),  # 1: fired + repeated + shared members
        Gather(1.0, (2, 3), linger=0.0),  # 2: e3 never fires -> parked for good
        Wait(1.0, 2),  # 3: a plain waiter behind two shims of e2
        Fire(2.0, 1),  # 4
        Fire(2.0, 2),  # 5: same instant as 4; completes gate 1
        Gather(2.0, (1, 4), linger=4.0),  # 6: armed in the instant e1 fires
        Kick(3.0, 6),  # 7: interrupted while parked on its gate
        Fire(4.0, 4),  # 8: fires into gate 6's shim after its owner left
        Gather(5.0, (4,), linger=0.0),  # 9: arms on an already-fired member
        Gather(6.0, (), linger=0.0),  # 10: empty gate
        Kick(0.5, 10),  # 11: interrupted before it ever reaches its gate
    ]
    expected = assert_equivalent(Simulator, 5, ops)
    whats = [(who, what) for _time, who, what, _value in expected["log"]]
    assert (1, "values") in whats and (3, "woken") in whats
    assert (6, "interrupted") in whats and (6, "lingered") in whats
    assert (6, "values") not in whats  # the late gate never wakes its owner
    assert (9, "values") in whats
    assert (10, "interrupted") in whats
    assert expected["finished"][2] is False  # parked on the member that never fires
    values = next(value for _t, who, what, value in expected["log"] if (who, what) == (1, "values"))
    assert values == [("value", 0), ("value", 4), ("value", 4), ("value", 5)]


class RunsFiredAtOnce(Simulator):
    """Mutant: an already-fired member's callback runs at once, off the heap."""

    __slots__ = ()

    def _add_callback(self, event: Event, fn: Callable[[Any], None]) -> None:
        if event.fired:
            fn(event.value)
            return
        event._waiters[_CallbackShim(fn)] = None  # type: ignore[index]


def test_harness_catches_the_mutant():
    @settings(
        max_examples=400,
        deadline=None,
        derandomize=True,
        database=None,
        report_multiple_bugs=False,
        phases=(Phase.generate,),  # finding a counterexample is enough; don't shrink
    )
    @given(gate_script())
    def mutant_is_equivalent(script):
        assert_equivalent(RunsFiredAtOnce, *script)

    with pytest.raises(AssertionError):
        mutant_is_equivalent()
