"""Property test: the delta collector against its full-scan ancestor.

PR 16 made ``ObservabilityCollector.rates_updated`` touch only the links
that are busy now or were busy at the last settle, and made it and
``slot_changed`` hold their series instead of formatting a name and asking
the registry on every call.  The argument: ``link_rates`` names busy links
only, a series drops a record that repeats its value, so a link idle at
two settles in a row has nothing to record.  That argument says *no series
changes by one breakpoint*.

This file keeps the old ``register_links`` / ``rates_updated`` /
``slot_changed`` / ``link_summary`` / ``slot_summary`` bodies, copied
verbatim, as :class:`FullScanCollector`, and feeds it and the real
collector the same calls:

* synthetic ``link_rates`` sequences over 2--6 registered links -- repeated
  instants, links going idle and returning, zero rates, a link the
  collector was never told about -- with rates drawn either below capacity
  (the fluid network's fair shares) or at capacity (the exclusive
  network's holds), interleaved with slot changes;
* the calls a real :class:`FluidNetwork` and a real
  :class:`ExclusivePathNetwork` make while running a random flow script
  with cancels (the exclusive one notifies several times an instant).

Required identical: every series' ``samples``, ``link_summary()`` and
``slot_summary()``.  The last test is the mutation check of the harness: a
collector that forgets to zero a link that went idle must be caught.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ObservabilityCollector
from repro.sim.engine import Simulator, Timeout
from repro.sim.resources import ExclusivePathNetwork, FluidNetwork


class FullScanCollector(ObservabilityCollector):
    """The collector hooks and summaries of the commit before PR 16, verbatim."""

    def __init__(self) -> None:
        super().__init__()
        self._link_capacities: dict[str, float] = {}

    def slot_changed(
        self, now: float, name: str, in_use: int, capacity: int, queued: int
    ) -> None:
        """A slot semaphore changed occupancy or queue depth."""
        self._slot_capacities[name] = capacity
        self.registry.time_series(f"slot.{name}").record(now, in_use)
        self.registry.time_series(f"queue.{name}").record(now, queued)

    def register_links(self, capacities: dict[str, float]) -> None:
        """Learn the link names and capacities once, at wiring time."""
        self._link_capacities.update(capacities)

    def rates_updated(self, now: float, link_rates: dict[str, float]) -> None:
        """The contention model reallocated bandwidth; record utilization."""
        for link, capacity in self._link_capacities.items():
            allocated = link_rates.get(link, 0.0)
            self.registry.time_series(f"link.{link}").record(
                now, allocated / capacity if capacity > 0 else 0.0
            )

    def slot_summary(self, prefix: str) -> list[tuple[str, float, int, float]]:
        rows = []
        horizon = max(self.end_time, 1e-12)
        for name in sorted(self._slot_capacities):
            if not name.startswith(f"{prefix}:"):
                continue
            series = self.registry.series.get(f"slot.{name}")
            if series is None:
                continue
            average = series.integral(0.0, horizon) / horizon
            capacity = self._slot_capacities[name]
            rows.append(
                (name, average, capacity, average / capacity if capacity else 0.0)
            )
        return rows

    def link_summary(self) -> list[tuple[str, float, float]]:
        rows = []
        horizon = max(self.end_time, 1e-12)
        for link in sorted(self._link_capacities):
            series = self.registry.series.get(f"link.{link}")
            if series is None:
                rows.append((link, 0.0, 0.0))
                continue
            rows.append((link, series.integral(0.0, horizon) / horizon, series.peak()))
        return rows


class Tee:
    """Network/slot observer forwarding every call to both collectors."""

    def __init__(self, *collectors) -> None:
        self.collectors = collectors

    def __getattr__(self, hook):
        def forward(*args):
            for collector in self.collectors:
                # A fresh dict each: neither may lean on the caller's.
                getattr(collector, hook)(
                    *(dict(arg) if isinstance(arg, dict) else arg for arg in args)
                )

        return forward


def assert_same_series(reference: ObservabilityCollector, delta: ObservabilityCollector):
    reference.finalize(1000.0)
    delta.finalize(1000.0)
    old = {name: series.samples for name, series in reference.registry.series.items()}
    new = {name: series.samples for name, series in delta.registry.series.items()}
    # The delta collector creates a link's series at registration, the full
    # scan at the first settle: compare through the first settle's eyes.
    for link in reference._link_capacities:
        old.setdefault(f"link.{link}", [(0.0, 0.0)])
    assert new == old
    assert delta.link_summary() == reference.link_summary()
    for prefix in ("map", "reduce"):
        assert delta.slot_summary(prefix) == reference.slot_summary(prefix)


# -- synthetic call sequences ----------------------------------------------------

CAPACITIES = (10.0, 20.0, 125e6)
GRID = (0.0, 0.0, 0.0, 0.5, 1.0, 2.5)  # mostly repeated instants


@st.composite
def call_sequences(draw):
    num_links = draw(st.integers(2, 6))
    capacities = {
        f"l{index}": draw(st.sampled_from(CAPACITIES)) for index in range(num_links)
    }
    exclusive = draw(st.booleans())
    names = sorted(capacities) + ["ghost"]  # never registered
    calls = []
    now = 0.0
    for _ in range(draw(st.integers(1, 40))):
        now += draw(st.sampled_from(GRID))
        if draw(st.integers(0, 3)) == 0:
            capacity = draw(st.integers(1, 3))
            calls.append((
                "slot_changed", now,
                draw(st.sampled_from(("map:0", "map:1", "reduce:0"))),
                draw(st.integers(0, capacity)), capacity, draw(st.integers(0, 4)),
            ))
            continue
        busy = draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
        rates = {}
        for link in busy:
            capacity = capacities.get(link, 10.0)
            rates[link] = capacity if exclusive else capacity * draw(
                st.sampled_from((0.0, 0.25, 1 / 3, 0.5, 1.0))
            )
        calls.append(("rates_updated", now, rates))
    return capacities, calls


@settings(max_examples=400, deadline=None)
@given(call_sequences())
def test_synthetic_sequences_record_identical_series(sequence):
    capacities, calls = sequence
    reference, delta = FullScanCollector(), ObservabilityCollector()
    tee = Tee(reference, delta)
    tee.register_links(capacities)
    for hook, *args in calls:
        getattr(tee, hook)(*args)
    assert_same_series(reference, delta)
    assert "link.ghost" not in delta.registry.series


# -- the calls real networks make --------------------------------------------------


@st.composite
def flow_scripts(draw):
    links = [f"l{index}" for index in range(draw(st.integers(2, 5)))]
    capacities = {link: draw(st.sampled_from((10.0, 20.0))) for link in links}
    flows = draw(
        st.lists(
            st.tuples(
                st.sampled_from((0.0, 0.0, 1.0, 2.0, 5.0)),  # start
                st.lists(st.sampled_from(links), unique=True, min_size=1, max_size=3),
                st.sampled_from((10.0, 40.0, 100.0)),  # size
                st.one_of(st.none(), st.sampled_from((0.0, 1.0, 3.0))),  # cancel after
            ),
            min_size=1,
            max_size=12,
        )
    )
    return capacities, flows


def drive(network_class, capacities, flows):
    sim = Simulator()
    network = network_class(sim)
    for link, capacity in capacities.items():
        network.add_link(link, capacity)
    reference, delta = FullScanCollector(), ObservabilityCollector()
    network.set_observer(Tee(reference, delta))

    def flow(start, links, size, cancel_after):
        yield Timeout(start)
        done = network.transfer(links, size)
        if cancel_after is not None:
            yield Timeout(cancel_after)
            network.cancel(done)

    for spec in flows:
        sim.spawn(flow(*spec))
    sim.run()
    return reference, delta


@pytest.mark.parametrize("network_class", [FluidNetwork, ExclusivePathNetwork])
@settings(max_examples=150, deadline=None)
@given(flow_scripts())
def test_real_network_calls_record_identical_series(network_class, script):
    reference, delta = drive(network_class, *script)
    assert reference.bus.emitted == delta.bus.emitted > 0
    assert_same_series(reference, delta)


# -- the harness catches a wrong delta ---------------------------------------------


class ForgetsIdleLinks(ObservabilityCollector):
    """Mutant: records the busy links only, never zeroing one that went idle."""

    def rates_updated(self, now, link_rates):
        self._busy_links = ()
        super().rates_updated(now, link_rates)


def test_harness_catches_a_link_left_busy():
    reference, mutant = FullScanCollector(), ForgetsIdleLinks()
    tee = Tee(reference, mutant)
    tee.register_links({"a": 10.0, "b": 10.0})
    tee.rates_updated(1.0, {"a": 10.0})
    tee.rates_updated(2.0, {"b": 5.0})
    with pytest.raises(AssertionError):
        assert_same_series(reference, mutant)
