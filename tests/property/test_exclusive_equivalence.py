"""Property test: the exclusive-hold network against its rescanning ancestor.

PR 14 replaced ``ExclusivePathNetwork``'s drain -- rescan the whole FIFO
from index 0 after every ``transfer``, release and grant -- with
grant-on-arrival plus one left-to-right pass, on the argument that (1)
between calls every queued request is blocked, so a ``transfer`` can only
ever grant the new request, and (2) inside one drain ``_busy`` only grows,
so a request skipped earlier in the pass stays blocked.  That argument
says *nothing observable changes*: not one grant, grant time, observer
call or heap entry.

This file holds the old class, copied verbatim, as
:class:`ReferenceExclusiveNetwork`, and drives it and the real network with
the same random script: starts over 3--6 shared links with 1--4-link paths,
zero-size and empty-path transfers, cancels of queued requests, of
in-flight holds and of already-finished events, and starts issued from
inside a completion wake-up at the same instant.  Times, sizes and
capacities sit on a coarse grid so releases, starts and cancels collide at
the same instant all the time.  Required identical: the recording
observer's ``(time, hook, links, args)`` log, the ``(time, tag, value)``
completion log, every ``cancel`` return value and ``Simulator.dispatched``.

The last test is the mutation check of this harness: a drain that stops
after its first grant, and a ``transfer`` that grants without looking at
``_busy``, must both be caught.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Event, Simulator, Timeout
from repro.sim.resources import ExclusivePathNetwork

from tests.unit.test_sim_resources import RecordingNetworkObserver


class ReferenceExclusiveNetwork:
    """The rescanning ``ExclusivePathNetwork`` of the commit before PR 14, verbatim.

    (Minus ``has_link`` / ``capacities`` / ``active_flow_count``, which the
    scripts do not call.)  Its own docstring:

    Pending transfers sit in one global FIFO; whenever links free up, the
    queue is scanned in arrival order and every request whose links are all
    free is granted (first-fit, so a blocked wide request does not starve
    narrow ones behind it — matching how CSIM facility queues behave).
    """

    __slots__ = ("_sim", "_capacities", "_busy", "_queue", "_active", "observer")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._capacities: dict[str, float] = {}
        self._busy: set[str] = set()
        self._queue: list[tuple[tuple[str, ...], float, Event]] = []
        #: Active holds by completion event, so a hold can be cancelled.
        self._active: dict[Event, dict] = {}
        #: Optional network observer (same protocol as FluidNetwork's).
        self.observer = None

    def add_link(self, name: str, capacity: float) -> None:
        """Register a link with the given capacity."""
        if capacity <= 0:
            raise ValueError(f"link {name!r} capacity must be positive, got {capacity}")
        if name in self._capacities:
            raise ValueError(f"duplicate link {name!r}")
        self._capacities[name] = capacity

    def _notify_rates(self) -> None:
        """Held links run at full capacity; everything else is idle."""
        self.observer.rates_updated(
            self._sim.now,
            {link: self._capacities[link] for link in self._busy},
        )

    def transfer(self, links: list[str], size: float) -> Event:
        """Queue a transfer over ``links``; event fires when it completes."""
        done = self._sim.event(name="hold")
        for link in links:
            if link not in self._capacities:
                raise KeyError(f"unknown link {link!r}")
        if size <= 0 or not links:
            done.succeed()
            return done
        self._queue.append((tuple(links), float(size), done))
        self._drain()
        return done

    def cancel(self, done: Event) -> bool:
        """Abort a queued or in-flight hold whose completion event is ``done``.

        Returns True if found (the event will never fire), False otherwise.
        """
        for index, (_links, _size, pending) in enumerate(self._queue):
            if pending is done:
                del self._queue[index]
                return True
        handle = self._active.pop(done, None)
        if handle is None:
            return False
        handle["cancelled"] = True
        self._busy.difference_update(handle["links"])
        if self.observer is not None:
            if hasattr(self.observer, "flow_cancelled"):
                self.observer.flow_cancelled(
                    self._sim.now,
                    handle["links"],
                    handle["size"],
                    # Exclusive holds move no partial bytes; the hold simply ends.
                    0.0,
                )
            self._notify_rates()
        self._drain()
        return True

    def _drain(self) -> None:
        granted_any = True
        while granted_any:
            granted_any = False
            for index, (links, size, done) in enumerate(self._queue):
                if any(link in self._busy for link in links):
                    continue
                del self._queue[index]
                self._busy.update(links)
                duration = size / min(self._capacities[link] for link in links)
                started = self._sim.now
                handle = {"links": links, "size": size, "cancelled": False}
                self._active[done] = handle
                if self.observer is not None:
                    self.observer.flow_started(self._sim.now, links, size)
                    self._notify_rates()

                def release(
                    links=links, done=done, started=started, size=size, handle=handle
                ) -> None:
                    if handle["cancelled"]:
                        return
                    self._active.pop(done, None)
                    self._busy.difference_update(links)
                    if self.observer is not None:
                        self.observer.flow_finished(
                            self._sim.now, links, size, self._sim.now - started
                        )
                        self._notify_rates()
                    done.succeed(self._sim.now - started)
                    self._drain()

                self._sim.call_in(duration, release)
                granted_any = True
                break


@dataclass(frozen=True)
class Start:
    at: float
    links: tuple[str, ...]
    size: float
    #: A second transfer issued from inside this one's completion wake-up.
    chained: tuple[tuple[str, ...], float] | None


@dataclass(frozen=True)
class Cancel:
    at: float
    #: Index into the script of the Start whose event is cancelled.
    target: int


@st.composite
def hold_script(draw):
    """Link capacities plus a schedule of starts and cancels over them."""
    num_links = draw(st.integers(min_value=3, max_value=6))
    names = [f"l{index}" for index in range(num_links)]
    capacities = {
        name: draw(st.sampled_from((10.0, 20.0, 40.0))) for name in names
    }
    # At most one path in eight is empty; the rest hold 1-4 links.
    path = st.lists(
        st.sampled_from(names), min_size=1, max_size=min(4, num_links), unique=True
    ).map(tuple)
    path = st.one_of(path, path, path, path, path, path, path, st.just(()))
    size = st.sampled_from((0.0, 10.0, 20.0, 40.0, 60.0, 80.0, 120.0))
    instant = st.integers(min_value=0, max_value=24).map(lambda tick: tick * 0.5)
    ops: list[Start | Cancel] = []
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        starts = [index for index, op in enumerate(ops) if isinstance(op, Start)]
        if starts and draw(st.integers(min_value=0, max_value=3)) == 0:
            # Shortly after its target starts, so the target is often still
            # queued or in flight (delay 0: the very instant it was issued).
            target = draw(st.sampled_from(starts))
            delay = draw(st.sampled_from((0.0, 0.5, 1.0, 2.0, 4.0, 8.0)))
            ops.append(Cancel(ops[target].at + delay, target))
        else:
            chained = draw(st.one_of(st.none(), st.tuples(path, size)))
            ops.append(Start(draw(instant), draw(path), draw(size), chained))
    return capacities, ops


def run_script(network_class, capacities, ops):
    """Drive one network with the script; return everything observable."""
    sim = Simulator()
    network = network_class(sim)
    for name, capacity in capacities.items():
        network.add_link(name, capacity)
    observer = RecordingNetworkObserver()
    if network_class is ReferenceExclusiveNetwork:
        network.observer = observer  # it predates ``set_observer``
    else:
        network.set_observer(observer)
    issued: dict[int, Event] = {}
    completions: list[tuple] = []
    cancels: list[tuple] = []

    def starter(index: int, op: Start):
        yield Timeout(op.at)
        issued[index] = done = network.transfer(list(op.links), op.size)
        value = yield done  # never resumes if the hold is cancelled
        completions.append((sim.now, index, value))
        if op.chained is not None:
            links, size = op.chained
            value = yield network.transfer(list(links), size)
            completions.append((sim.now, (index, "chained"), value))

    def canceller(index: int, op: Cancel):
        yield Timeout(op.at)
        target = issued.get(op.target)
        if target is not None:
            state = (
                "finished" if target.fired
                else "queued" if any(e is target for _l, _s, e in network._queue)
                else "in-flight" if target in network._active
                else "cancelled"
            )
            cancels.append((sim.now, index, state, network.cancel(target)))

    for index, op in enumerate(ops):
        body = starter if isinstance(op, Start) else canceller
        sim.spawn(body(index, op))
    sim.run()
    return {
        "idle": not (network._queue or network._busy or network._active),
        "observer": observer.log,
        "completions": completions,
        "cancels": cancels,
        "dispatched": sim.dispatched,
    }


def assert_equivalent(network_class, capacities, ops) -> dict:
    expected = run_script(ReferenceExclusiveNetwork, capacities, ops)
    actual = run_script(network_class, capacities, ops)
    assert expected["idle"]
    for key in ("cancels", "completions", "observer", "dispatched", "idle"):
        assert actual[key] == expected[key], key
    return expected


@settings(max_examples=400, deadline=None)
@given(hold_script())
def test_same_observable_behaviour_as_rescanning_reference(script):
    assert_equivalent(ExclusivePathNetwork, *script)


def test_fixed_script_reaches_every_case():
    """One hand-written script, so the cases above are provably exercised."""
    capacities = {"a": 10.0, "b": 10.0, "c": 20.0}
    ops = [
        Start(0.0, ("a", "b"), 100.0, chained=(("a",), 20.0)),  # 0: holds a+b to t=10
        Start(0.0, ("a",), 50.0, None),  # 1: queued behind 0
        Start(0.0, ("b", "c"), 40.0, None),  # 2: queued behind 0
        Start(1.0, ("c",), 40.0, None),  # 3: granted on arrival, done at t=3
        Start(1.0, ("a", "c"), 40.0, None),  # 4: queued
        Cancel(2.0, 1),  # queued cancel
        Cancel(4.0, 3),  # finished cancel
        Start(5.0, (), 10.0, None),  # 7: empty path
        Start(5.0, ("a",), 0.0, None),  # 8: zero size
        Cancel(6.0, 0),  # in-flight cancel: frees a+b, grants 2 then not 4 (c busy)
        Start(6.0, ("a",), 10.0, chained=(("b",), 10.0)),  # 10: same instant as the cancel
    ]
    expected = assert_equivalent(ExclusivePathNetwork, capacities, ops)
    assert [(state, found) for _t, _i, state, found in expected["cancels"]] == [
        ("queued", True), ("finished", False), ("in-flight", True)
    ]
    tags = [tag for _time, tag, _value in expected["completions"]]
    assert 0 not in tags and 1 not in tags  # cancelled holds never complete
    assert (10, "chained") in tags


class StopsAfterFirstGrant(ExclusivePathNetwork):
    """Mutant: the drain grants one request and gives up."""

    __slots__ = ()

    def _drain(self) -> None:
        for index, (links, size, done) in enumerate(self._queue):
            if self._busy.isdisjoint(links):
                del self._queue[index]
                self._grant(links, size, done)
                return


class GrantsWithoutChecking(ExclusivePathNetwork):
    """Mutant: ``transfer`` grants the newcomer whatever ``_busy`` says."""

    __slots__ = ()

    def transfer(self, links, size):
        done = self._sim.event(name="hold")
        if size <= 0 or not links:
            done.succeed()
            return done
        self._grant(tuple(links), float(size), done)
        return done


@pytest.mark.parametrize("mutant", [StopsAfterFirstGrant, GrantsWithoutChecking])
def test_harness_catches_mutants(mutant):
    @settings(
        max_examples=400,
        deadline=None,
        derandomize=True,
        database=None,
        report_multiple_bugs=False,
        phases=(Phase.generate,),  # finding a counterexample is enough; don't shrink
    )
    @given(hold_script())
    def mutant_is_equivalent(script):
        assert_equivalent(mutant, *script)

    with pytest.raises(AssertionError):
        mutant_is_equivalent()
