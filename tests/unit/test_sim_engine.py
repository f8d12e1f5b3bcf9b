"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.sim.engine import (
    AllOf,
    Interrupt,
    SimulationError,
    Timeout,
)


class TestClockAndScheduling:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_call_in_order(self, sim):
        log = []
        sim.call_in(2.0, lambda: log.append("b"))
        sim.call_in(1.0, lambda: log.append("a"))
        sim.run()
        assert log == ["a", "b"]
        assert sim.now == 2.0

    def test_same_time_fifo(self, sim):
        log = []
        for name in "abc":
            sim.call_in(1.0, lambda name=name: log.append(name))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_cannot_schedule_in_past(self, sim):
        sim.call_in(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_run_until(self, sim):
        log = []
        sim.call_in(1.0, lambda: log.append(1))
        sim.call_in(10.0, lambda: log.append(10))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.now == 5.0
        sim.run()
        assert log == [1, 10]

    def test_peek(self, sim):
        assert sim.peek() is None
        sim.call_in(3.0, lambda: None)
        assert sim.peek() == 3.0


class TestProcesses:
    def test_timeout_sequencing(self, sim):
        log = []

        def worker(name, delay):
            yield Timeout(delay)
            log.append((sim.now, name))

        sim.spawn(worker("slow", 2.0))
        sim.spawn(worker("fast", 1.0))
        sim.run()
        assert log == [(1.0, "fast"), (2.0, "slow")]

    def test_negative_timeout(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_wait_on_event_value(self, sim):
        gate = sim.event()
        got = []

        def waiter():
            value = yield gate
            got.append(value)

        sim.spawn(waiter())
        sim.call_in(4.0, lambda: gate.succeed("payload"))
        sim.run()
        assert got == ["payload"]

    def test_wait_on_already_fired_event(self, sim):
        gate = sim.event()
        gate.succeed(7)
        got = []

        def waiter():
            got.append((yield gate))

        sim.spawn(waiter())
        sim.run()
        assert got == [7]

    def test_event_fires_once(self, sim):
        gate = sim.event()
        gate.succeed()
        with pytest.raises(SimulationError):
            gate.succeed()

    def test_event_value_before_fire(self, sim):
        gate = sim.event()
        with pytest.raises(SimulationError):
            _ = gate.value

    def test_wait_on_process(self, sim):
        log = []

        def child():
            yield Timeout(3.0)
            return "child-result"

        def parent():
            result = yield sim.spawn(child())
            log.append((sim.now, result))

        sim.spawn(parent())
        sim.run()
        assert log == [(3.0, "child-result")]

    def test_all_of(self, sim):
        def waiter(events, log):
            values = yield AllOf(events)
            log.append((sim.now, values))

        first, second = sim.event(), sim.event()
        log = []
        sim.spawn(waiter([first, second], log))
        sim.call_in(1.0, lambda: first.succeed("a"))
        sim.call_in(2.0, lambda: second.succeed("b"))
        sim.run()
        assert log == [(2.0, ["a", "b"])]

    def test_all_of_empty(self, sim):
        log = []

        def waiter():
            values = yield AllOf([])
            log.append(values)

        sim.spawn(waiter())
        sim.run()
        assert log == [[]]

    def test_unsupported_yield(self, sim):
        def bad():
            yield 42

        sim.spawn(bad())
        with pytest.raises(SimulationError):
            sim.run()


class TestInterrupt:
    def test_interrupt_wakes_with_exception(self, sim):
        log = []

        def sleeper():
            try:
                yield Timeout(100.0)
            except Interrupt as interrupt:
                log.append((sim.now, interrupt.cause))

        process = sim.spawn(sleeper())
        sim.call_in(1.0, lambda: process.interrupt("stop"))
        sim.run()
        assert log == [(1.0, "stop")]

    def test_interrupt_while_waiting_event(self, sim):
        gate = sim.event()
        log = []

        def waiter():
            try:
                yield gate
            except Interrupt:
                log.append(sim.now)

        process = sim.spawn(waiter())
        sim.call_in(2.0, lambda: process.interrupt())
        sim.run()
        assert log == [2.0]

    def test_interrupt_finished_process_is_noop(self, sim):
        def quick():
            yield Timeout(0.0)

        process = sim.spawn(quick())
        sim.run()
        process.interrupt()  # must not raise
        sim.run()

    def test_unhandled_interrupt_terminates_quietly(self, sim):
        def sleeper():
            yield Timeout(100.0)

        process = sim.spawn(sleeper())
        sim.call_in(1.0, lambda: process.interrupt())
        sim.run()
        assert process.finished.fired

    def test_quietly_killed_process_is_freed_without_a_collection(self, sim):
        """The quiet-interrupt path must not keep the interrupt's traceback.

        The traceback holds ``Process._step``'s frame, whose ``payload`` is
        the interrupt itself: a cycle that pinned the killed process, its
        generator and everything its frames could reach until a collection.
        """

        class Held:
            pass

        def sleeper(held):
            yield Timeout(100.0)
            return held

        gc.collect()
        gc.disable()
        try:
            held = Held()
            process = sim.spawn(sleeper(held))
            frame_owner = weakref.ref(process._generator)
            local = weakref.ref(held)
            sim.call_in(1.0, lambda: process.interrupt("kill"))
            del held
            sim.run()
            assert process.finished.fired
            del process
            assert frame_owner() is None
            assert local() is None
        finally:
            gc.enable()


class TestAllOfContract:
    """What ``AllOf`` / ``Simulator._add_callback`` promise to their callers.

    Pinned on the per-call-class shim before it was hoisted: values, wake
    order and the exact ``dispatched`` count must not move with it.
    """

    @staticmethod
    def _gather(sim, events, log):
        def waiter():
            try:
                values = yield AllOf(events)
            except Interrupt as interrupt:
                log.append((sim.now, "interrupted", interrupt.cause))
                return
            log.append((sim.now, values))

        return sim.spawn(waiter(), name="gatherer")

    def test_values_follow_the_given_order_not_the_firing_order(self, sim):
        first, second, third = (sim.event() for _ in range(3))
        log = []
        self._gather(sim, [first, second, third], log)
        sim.call_in(1.0, lambda: third.succeed("c"))
        sim.call_in(2.0, lambda: first.succeed("a"))
        sim.call_in(3.0, lambda: second.succeed("b"))
        sim.run()
        assert log == [(3.0, ["a", "b", "c"])]
        # spawn + 3 calls + 3 shim wake-ups + the gate's resume
        assert sim.dispatched == 8

    def test_already_fired_member_counts_at_once(self, sim):
        early, late = sim.event(), sim.event()
        early.succeed("early")
        log = []
        self._gather(sim, [early, late], log)
        sim.call_in(2.0, lambda: late.succeed("late"))
        sim.run()
        assert log == [(2.0, ["early", "late"])]
        assert sim.dispatched == 5

    def test_every_member_already_fired(self, sim):
        events = [sim.event() for _ in range(2)]
        for index, event in enumerate(events):
            event.succeed(index)
        log = []
        self._gather(sim, events, log)
        sim.run()
        assert log == [(0.0, [0, 1])]
        assert sim.dispatched == 4

    def test_one_event_listed_twice(self, sim):
        event = sim.event()
        log = []
        self._gather(sim, [event, event], log)
        sim.call_in(1.0, lambda: event.succeed("x"))
        sim.run()
        assert log == [(1.0, ["x", "x"])]
        assert sim.dispatched == 5

    def test_members_firing_in_one_instant(self, sim):
        events = [sim.event() for _ in range(3)]
        log = []
        self._gather(sim, events, log)

        def fire_all():
            for index, event in enumerate(events):
                event.succeed(index)

        sim.call_in(1.0, fire_all)
        sim.run()
        assert log == [(1.0, [0, 1, 2])]
        assert sim.dispatched == 6

    def test_interrupting_a_process_parked_on_the_gate(self, sim):
        first, second = sim.event(), sim.event()
        log = []
        process = self._gather(sim, [first, second], log)
        sim.call_in(1.0, lambda: process.interrupt("stop"))
        sim.call_in(2.0, lambda: first.succeed("a"))
        sim.call_in(3.0, lambda: second.succeed("b"))
        sim.run()
        # The members still fire, the gate completes, nobody is woken twice.
        assert log == [(1.0, "interrupted", "stop")]
        assert process.finished.fired
        assert sim.dispatched == 7

    def test_late_gate_does_not_wake_the_interrupted_process_early(self, sim):
        member = sim.event()
        log = []

        def waiter():
            try:
                yield AllOf([member])
            except Interrupt:
                log.append((sim.now, "interrupted"))
            yield Timeout(10.0)
            log.append((sim.now, "slept"))

        process = sim.spawn(waiter())
        sim.call_in(1.0, lambda: process.interrupt())
        sim.call_in(2.0, lambda: member.succeed("late"))
        sim.run()
        assert log == [(1.0, "interrupted"), (11.0, "slept")]
        assert sim.dispatched == 6

    def test_member_that_never_fires_parks_the_process_for_good(self, sim):
        fires, never = sim.event(), sim.event()
        log = []
        process = self._gather(sim, [fires, never], log)
        sim.call_in(1.0, lambda: fires.succeed("a"))
        sim.run()
        assert log == []
        assert not process.finished.fired
        assert sim.now == 1.0
        assert sim.dispatched == 3

    def test_wake_order_among_ordinary_waiters_of_the_same_event(self, sim):
        event = sim.event()
        log = []

        def plain(name):
            value = yield event
            log.append((name, value))

        sim.spawn(plain("before"))
        self._gather(sim, [event], log)
        sim.spawn(plain("after"))
        sim.call_in(1.0, lambda: event.succeed("v"))
        sim.run()
        # The shim takes its turn in arrival order, and the gate it fires
        # resumes the gatherer one heap entry later -- behind "after".
        assert log == [("before", "v"), ("after", "v"), (1.0, ["v"])]
        assert sim.dispatched == 8

    def test_add_callback_on_a_pending_event_runs_at_the_firing_instant(self, sim):
        event = sim.event()
        log = []
        sim._add_callback(event, lambda value: log.append((sim.now, value)))
        sim.call_in(2.0, lambda: event.succeed("v"))
        sim.run()
        assert log == [(2.0, "v")]
        assert sim.dispatched == 2

    def test_add_callback_on_a_fired_event_is_deferred_to_the_heap(self, sim):
        event = sim.event()
        event.succeed("v")
        log = []
        sim._add_callback(event, log.append)
        assert log == []  # never synchronous
        sim.run()
        assert log == ["v"]
        assert sim.dispatched == 1
