"""Property tests: the fluid network against its reference allocator.

``FluidNetwork._recompute_rates`` iterates the occupied link objects
instead of rescanning every link against every flow; the original
implementation is kept as ``FluidNetwork._recompute_rates_reference``
(non-mutating, returning rates keyed by completion event).  The network
solves its allocation once per simulated instant (``_settle``), so the
first three tests drive random start/finish/cancel sequences from outside
the engine, settle with ``sim.run(until=sim.now)`` after every single
operation, and assert that the live rates are *bit-identical* (``==``, not
approx) to what the reference allocator computes for the same flow
population -- any divergence in bottleneck choice, tie-breaking or
residual arithmetic fails immediately -- that the link index (buckets,
link objects, the occupied list) mirrors the flow population, and that
the completion each solve arms is the earliest finish under the reference
rates.

The fourth test checks the settle-once scheduling itself: random scripts
with same-instant bursts, mid-flight cancels, zero-size and empty-path
flows must complete at identical times, in identical order, on
``FluidNetwork`` and on :class:`EagerStepper`, a heap-free model that
re-solves with the reference allocator after *every* mutation.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from math import inf
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.resources import FluidNetwork


@st.composite
def churn_plan(draw):
    """Random links plus a start/cancel schedule over them.

    Each flow gets a path over the links, a size, a start time, and
    possibly a cancel delay -- cancels mid-flight are exactly where the
    incremental index must stay in sync with reality.
    """
    num_links = draw(st.integers(min_value=1, max_value=5))
    capacities = [
        draw(st.floats(min_value=0.5, max_value=200.0)) for _ in range(num_links)
    ]
    num_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for _ in range(num_flows):
        path = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_links - 1),
                min_size=1,
                max_size=num_links,
                unique=True,
            )
        )
        size = draw(st.floats(min_value=1.0, max_value=400.0))
        start = draw(st.floats(min_value=0.0, max_value=30.0))
        cancel_after = draw(
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=20.0))
        )
        flows.append((path, size, start, cancel_after))
    return capacities, flows


def assert_rates_match_reference(network: FluidNetwork) -> None:
    """Live assigned rates must equal the reference allocation exactly."""
    expected = network._recompute_rates_reference()
    actual = {done: flow.rate for done, flow in network._flows.items()}
    assert actual == expected


def assert_index_consistent(network: FluidNetwork) -> None:
    """The persistent link index must mirror the true flow population."""
    true_counts: dict[str, int] = {}
    for flow in network._flows.values():
        for link in flow.links:
            true_counts[link] = true_counts.get(link, 0) + 1
    indexed = {link: len(bucket) for link, bucket in network._link_flows.items()}
    assert indexed == true_counts
    for link in network.capacities:
        assert network.active_flow_count(link) == true_counts.get(link, 0)
    assert network.active_flow_count() == len(network._flows)
    # The occupied list is exactly the links with flows, in registration
    # order, and each link object's bucket is that link's index entry.
    registered = list(network._links.values())
    assert [link.name for link in registered] == list(network.capacities)
    assert network._occupied == [link for link in registered if link.name in true_counts]
    for link in registered:
        if link.name in true_counts:
            assert link.flows is network._link_flows[link.name]
        else:
            assert not link.flows
    for flow in network._flows.values():
        assert tuple(link.name for link in flow.hops) == flow.links


def assert_completion_armed(network: FluidNetwork) -> None:
    """The armed completion is the earliest finish under the reference rates.

    The solve returns its own ETA; it must equal the scan it replaced,
    ``min(settled_at + remaining / rate)``, with the rates taken from the
    reference allocator, and it must be the only live completion entry.
    """
    rates = network._recompute_rates_reference()
    settled_at = network._last_update
    expected = min(
        (
            settled_at + flow.remaining / rates[done]
            for done, flow in network._flows.items()
            if rates[done] > 0
        ),
        default=None,
    )
    armed = [
        entry[0]
        for entry in network._sim._heap
        if isinstance(entry[3], partial)
        and entry[3].func == network._complete
        and entry[3].args == (network._completion_token,)
    ]
    assert not network._unsettled
    assert armed == ([] if expected is None else [expected])


def drive_plan(plan, check) -> int:
    """Run a churn plan, calling ``check(network)`` on every settled state.

    The plan's starts and cancels are applied from outside the engine, in
    time order; between them the engine advances one instant at a time, so
    ``check`` sees the network after every start, every cancel and every
    instant in which flows finished.  Returns the number of checks made.
    """
    capacities, flows = plan
    sim = Simulator()
    network = FluidNetwork(sim)
    for index, capacity in enumerate(capacities):
        network.add_link(f"l{index}", capacity)
    handles: dict[int, object] = {}
    checks = 0

    def settle_and_check(until):
        nonlocal checks
        sim.run(until=until)
        check(network)
        checks += 1

    def run_until(time):
        while (instant := sim.peek()) is not None and instant <= time:
            settle_and_check(instant)
        sim.run(until=time)

    # (time, flow number, is a cancel); the stable sort keeps a flow's start
    # ahead of its own zero-delay cancel.
    operations = [(flow[2], number, False) for number, flow in enumerate(flows)]
    operations += [
        (flow[2] + flow[3], number, True)
        for number, flow in enumerate(flows)
        if flow[3] is not None
    ]
    for time, number, is_cancel in sorted(operations, key=lambda op: op[0]):
        run_until(time)
        if is_cancel:
            network.cancel(handles[number])
        else:
            path, size = flows[number][:2]
            handles[number] = network.transfer([f"l{i}" for i in path], size)
        settle_and_check(sim.now)
    run_until(1e7)
    assert network.active_flow_count() == 0
    return checks


@settings(max_examples=60, deadline=None)
@given(churn_plan())
def test_indexed_allocation_matches_reference(plan):
    checks = drive_plan(plan, assert_rates_match_reference)
    assert checks >= len(plan[1])


@settings(max_examples=40, deadline=None)
@given(churn_plan())
def test_link_occupancy_index_consistent(plan):
    """The persistent link index always mirrors the true flow population."""
    drive_plan(plan, assert_index_consistent)


@settings(max_examples=60, deadline=None)
@given(churn_plan())
def test_solve_arms_the_reference_completion(plan):
    """The ETA the solve returns arms exactly the old scan's completion."""
    drive_plan(plan, assert_completion_armed)


class EagerStepper:
    """Heap-free fluid model that re-solves after every mutation.

    Allocation comes only from ``_recompute_rates_reference``, borrowed
    unbound: it reads ``_capacities`` and the ``links`` / ``done`` of each
    value in ``_flows``.  Progress is debited where ``FluidNetwork`` debits
    it (at effective starts and cancels and at completions), the next
    completion is taken from the last solve of each instant, and a
    completion that ties with scripted operations runs after them, as its
    later heap sequence number makes it do in the engine.
    """

    def __init__(self, capacities: dict[str, float]) -> None:
        self._capacities = capacities
        self._flows: dict[int, SimpleNamespace] = {}
        self.now = 0.0
        self.completions: list[tuple[float, int]] = []

    def _advance(self, time: float) -> None:
        elapsed = time - self.now
        if elapsed > 0:
            for flow in self._flows.values():
                flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)
        self.now = time

    def _solve(self) -> None:
        rates = FluidNetwork._recompute_rates_reference(self)
        for number, flow in self._flows.items():
            flow.rate = rates[number]

    def run(self, script) -> None:
        pending = deque(script)
        armed = inf
        while pending or armed < inf:
            time = min(armed, pending[0][0] if pending else inf)
            while pending and pending[0][0] == time:
                _, number, links, size = pending.popleft()
                if links is None:
                    if number in self._flows:
                        self._advance(time)
                        del self._flows[number]
                        self._solve()
                elif size <= 0 or not links:
                    self.completions.append((time, number))
                else:
                    self._advance(time)
                    self._flows[number] = SimpleNamespace(
                        links=links, done=number, size=size, remaining=size, rate=0.0
                    )
                    self._solve()
            if armed == time:
                self._advance(time)
                finished = [
                    number
                    for number, flow in self._flows.items()
                    if flow.remaining <= max(1e-6 * flow.size, 1e-9)
                ]
                for number in finished:
                    del self._flows[number]
                    self.completions.append((time, number))
                self._solve()
            armed = min(
                (
                    self.now + flow.remaining / flow.rate
                    for flow in self._flows.values()
                    if flow.rate > 0
                ),
                default=inf,
            )


def run_on_network(capacities: dict[str, float], script) -> list[tuple[float, int]]:
    """Completion ``(time, flow number)`` log of ``script`` on FluidNetwork."""
    sim = Simulator()
    network = FluidNetwork(sim)
    for link, capacity in capacities.items():
        network.add_link(link, capacity)
    handles: dict[int, object] = {}
    completions: list[tuple[float, int]] = []

    def watch(number, done):
        yield done
        completions.append((sim.now, number))

    def start(number, links, size):
        done = handles[number] = network.transfer(list(links), size)
        if done.fired:
            completions.append((sim.now, number))
        else:
            sim.spawn(watch(number, done))

    def cancel(number):
        network.cancel(handles[number])

    for time, number, links, size in script:
        if links is None:
            sim.call_at(time, partial(cancel, number))
        else:
            sim.call_at(time, partial(start, number, links, size))
    sim.run()
    assert network.active_flow_count() == 0
    return completions


#: A coarse grid, so starts, cancels and completions share instants.
INSTANTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 8.0])


@st.composite
def burst_script(draw):
    """Link capacities plus time-ordered ``(time, number, links, size)`` ops.

    ``links is None`` marks a cancel of flow ``number``.  Round sizes over
    round capacities make completions land exactly on scripted instants;
    zero sizes and empty paths complete on the spot.
    """
    num_links = draw(st.integers(min_value=1, max_value=4))
    capacities = {
        f"l{index}": draw(st.sampled_from([1.0, 2.0, 2.5, 4.0, 10.0]))
        for index in range(num_links)
    }
    script = []
    for number in range(draw(st.integers(min_value=1, max_value=12))):
        links = draw(
            st.lists(st.sampled_from(sorted(capacities)), max_size=num_links, unique=True)
        )
        size = draw(
            st.one_of(
                st.sampled_from([0.0, 1.0, 2.0, 5.0, 8.0, 20.0]),
                st.floats(min_value=0.5, max_value=50.0),
            )
        )
        start = draw(INSTANTS)
        script.append((start, number, tuple(links), size))
        if draw(st.booleans()):
            script.append((start + draw(INSTANTS), number, None, None))
    # Stable, so a flow's start stays ahead of its own same-instant cancel.
    script.sort(key=lambda op: op[0])
    return capacities, script


@settings(max_examples=200, deadline=None)
@given(burst_script())
def test_settle_once_completes_like_eager_stepper(plan):
    """Same completion times, same completion order, on every script."""
    capacities, script = plan
    stepper = EagerStepper(capacities)
    stepper.run(script)
    assert run_on_network(capacities, script) == stepper.completions
