"""Unit tests for semaphores, fluid links, and exclusive links."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Timeout
from repro.sim.resources import ExclusivePathNetwork, FluidNetwork, Semaphore


def record_transfer(sim, network, links, size, log, label):
    def process():
        yield network.transfer(links, size)
        log.append((label, sim.now))

    sim.spawn(process())


class RecordingNetworkObserver:
    """Logs every network hook as ``(time, hook, links, args)``."""

    def __init__(self):
        self.log = []

    def flow_started(self, now, links, size):
        self.log.append((now, "flow_started", links, (size,)))

    def flow_finished(self, now, links, size, duration):
        self.log.append((now, "flow_finished", links, (size, duration)))

    def flow_cancelled(self, now, links, size, moved):
        self.log.append((now, "flow_cancelled", links, (size, moved)))

    def rates_updated(self, now, link_rates):
        self.log.append((now, "rates_updated", tuple(sorted(link_rates)), ()))


class TestSemaphore:
    def test_grants_up_to_capacity(self, sim):
        sem = Semaphore(sim, 2)
        assert sem.acquire().fired
        assert sem.acquire().fired
        third = sem.acquire()
        assert not third.fired
        sem.release()
        assert third.fired

    def test_release_above_capacity(self, sim):
        sem = Semaphore(sim, 1)
        with pytest.raises(ValueError):
            sem.release()

    def test_try_acquire(self, sim):
        sem = Semaphore(sim, 1)
        assert sem.try_acquire()
        assert not sem.try_acquire()
        sem.release()
        assert sem.try_acquire()

    def test_negative_capacity(self, sim):
        with pytest.raises(ValueError):
            Semaphore(sim, -1)

    def test_fifo_order(self, sim):
        sem = Semaphore(sim, 0)
        first = sem.acquire()
        second = sem.acquire()
        sem.release()
        assert first.fired and not second.fired


class TestFluidNetwork:
    def test_single_flow_full_rate(self, sim):
        network = FluidNetwork(sim)
        network.add_link("l", 10.0)
        log = []
        record_transfer(sim, network, ["l"], 100.0, log, "a")
        sim.run()
        assert log == [("a", 10.0)]

    def test_two_flows_share_fairly(self, sim):
        network = FluidNetwork(sim)
        network.add_link("l", 10.0)
        log = []
        record_transfer(sim, network, ["l"], 100.0, log, "a")
        record_transfer(sim, network, ["l"], 100.0, log, "b")
        sim.run()
        # Both share 10/2 = 5 units/s -> both finish at 20 s.
        assert sorted(log) == [("a", 20.0), ("b", 20.0)]

    def test_rate_recomputed_on_departure(self, sim):
        network = FluidNetwork(sim)
        network.add_link("l", 10.0)
        log = []
        record_transfer(sim, network, ["l"], 50.0, log, "short")
        record_transfer(sim, network, ["l"], 150.0, log, "long")
        sim.run()
        # Share until 10s (50 each done); short finishes; long's remaining
        # 100 units then flow at 10/s -> done at 20 s.
        assert dict(log) == {"short": 10.0, "long": 20.0}

    def test_disjoint_links_independent(self, sim):
        network = FluidNetwork(sim)
        network.add_link("a", 10.0)
        network.add_link("b", 10.0)
        log = []
        record_transfer(sim, network, ["a"], 100.0, log, "x")
        record_transfer(sim, network, ["b"], 100.0, log, "y")
        sim.run()
        assert sorted(log) == [("x", 10.0), ("y", 10.0)]

    def test_multi_link_path_bottleneck(self, sim):
        network = FluidNetwork(sim)
        network.add_link("fast", 100.0)
        network.add_link("slow", 10.0)
        log = []
        record_transfer(sim, network, ["fast", "slow"], 100.0, log, "x")
        sim.run()
        assert log == [("x", 10.0)]

    def test_max_min_fairness(self, sim):
        """One flow on a private link + one sharing: max-min allocation."""
        network = FluidNetwork(sim)
        network.add_link("shared", 10.0)
        network.add_link("private", 4.0)
        log = []
        # Flow A crosses private+shared (bottleneck private: rate 4);
        # flow B crosses shared only and picks up the slack (rate 6).
        record_transfer(sim, network, ["private", "shared"], 40.0, log, "a")
        record_transfer(sim, network, ["shared"], 60.0, log, "b")
        sim.run()
        assert dict(log) == {"a": pytest.approx(10.0), "b": pytest.approx(10.0)}

    def test_zero_size_completes_instantly(self, sim):
        network = FluidNetwork(sim)
        network.add_link("l", 10.0)
        done = network.transfer(["l"], 0.0)
        assert done.fired

    def test_empty_path_completes_instantly(self, sim):
        network = FluidNetwork(sim)
        done = network.transfer([], 100.0)
        assert done.fired

    def test_unknown_link(self, sim):
        network = FluidNetwork(sim)
        with pytest.raises(KeyError):
            network.transfer(["nope"], 1.0)

    def test_path_crossing_a_link_twice(self, sim):
        network = FluidNetwork(sim)
        network.add_link("a", 1.0)
        network.add_link("b", 1.0)
        with pytest.raises(ValueError, match="crosses a link twice"):
            network.transfer(["a", "b", "a"], 5.0)
        assert network.active_flow_count() == 0

    def test_duplicate_link(self, sim):
        network = FluidNetwork(sim)
        network.add_link("l", 1.0)
        with pytest.raises(ValueError):
            network.add_link("l", 2.0)

    def test_bad_capacity(self, sim):
        network = FluidNetwork(sim)
        with pytest.raises(ValueError):
            network.add_link("l", 0.0)

    def test_active_flow_count(self, sim):
        network = FluidNetwork(sim)
        network.add_link("l", 1.0)
        network.transfer(["l"], 10.0)
        network.transfer(["l"], 10.0)
        assert network.active_flow_count("l") == 2
        assert network.active_flow_count() == 2
        sim.run()
        assert network.active_flow_count() == 0

    def test_large_byte_flow_completes(self, sim):
        """Float residue on ~10^8-byte flows must not livelock completion."""
        network = FluidNetwork(sim)
        network.add_link("l", 125_000_000.0)
        log = []
        record_transfer(sim, network, ["l"], 134_217_728.0, log, "big")
        record_transfer(sim, network, ["l"], 134_217_728.0, log, "big2")
        sim.run(until=1e6)
        assert len(log) == 2

    def test_staggered_arrival(self, sim):
        network = FluidNetwork(sim)
        network.add_link("l", 10.0)
        log = []

        def late_start():
            yield Timeout(5.0)
            yield network.transfer(["l"], 30.0)
            log.append(("late", sim.now))

        record_transfer(sim, network, ["l"], 100.0, log, "early")
        sim.spawn(late_start())
        sim.run()
        # early: 50 units done by t=5, then shares at 5/s.
        # late: 30 units at 5/s -> done at t=11; early then has
        # 100 - 50 - 30 = 20 units left at 10/s -> done at t=13.
        assert dict(log) == {"late": pytest.approx(11.0), "early": pytest.approx(13.0)}


class RateLog:
    """Network observer keeping ``(now, link_rates)`` of every reallocation."""

    def __init__(self):
        self.updates = []

    def flow_started(self, now, links, size):
        pass

    def flow_finished(self, now, links, size, duration):
        pass

    def rates_updated(self, now, link_rates):
        self.updates.append((now, link_rates))


class TestFluidSettleOnce:
    """The allocation is solved once per instant, before time advances."""

    @pytest.fixture
    def network(self, sim):
        network = FluidNetwork(sim)
        network.add_link("l", 10.0)
        network.set_observer(RateLog())
        return network

    def test_same_instant_transfers_reallocate_once(self, sim, network):
        log = []
        for label in "abcde":
            record_transfer(sim, network, ["l"], 20.0, log, label)

        def burst_at_two(label):
            yield Timeout(2.0)
            yield network.transfer(["l"], 20.0)
            log.append((label, sim.now))

        for label in "vwxyz":
            sim.spawn(burst_at_two(label))
        sim.run(until=2.0)
        assert network.observer.updates == [(0.0, {"l": 10.0}), (2.0, {"l": 10.0})]
        sim.run()
        # At t=2 the first five have 16 left at 1/s; the late five then
        # finish their last 4 at 2/s.
        assert [time for _, time in log] == pytest.approx([18.0] * 5 + [20.0] * 5)

    def test_cancel_armed_flow_in_same_instant_as_start(self, sim, network):
        log = []

        def watch(label, done):
            yield done
            log.append((label, sim.now))

        armed = network.transfer(["l"], 30.0)  # first to finish: owns the completion
        sim.spawn(watch("long", network.transfer(["l"], 100.0)))

        def swap():
            assert network.cancel(armed)
            sim.spawn(watch("new", network.transfer(["l"], 35.0)))

        sim.call_at(3.0, swap)
        sim.run()
        assert not armed.fired
        # long has 85 left at t=3 and shares with new (35 at 5/s -> t=10),
        # then runs its last 50 alone.  Nothing happens at the voided t=6.
        assert dict(log) == {"new": pytest.approx(10.0), "long": pytest.approx(15.0)}
        assert [now for now, _ in network.observer.updates] == pytest.approx(
            [0.0, 3.0, 10.0, 15.0]
        )

    def test_run_until_returns_mid_burst_and_resumes(self, sim, network):
        log = []

        def start_at_four():
            yield Timeout(4.0)
            yield network.transfer(["l"], 40.0)
            log.append(("inside", sim.now))

        sim.spawn(start_at_four())
        sim.run(until=4.0)
        # The burst goes on after run() handed control back at t=4.
        record_transfer(sim, network, ["l"], 40.0, log, "outside")
        sim.run()
        assert dict(log) == {"inside": pytest.approx(12.0), "outside": pytest.approx(12.0)}
        assert [now for now, _ in network.observer.updates] == pytest.approx([4.0, 4.0, 12.0])

    def test_advance_past_unsettled_instant_raises(self, sim, network):
        network.transfer(["l"], 10.0)
        sim._now = 1.0  # not reachable through run(), which settles t=0 first
        with pytest.raises(SimulationError, match="unsettled"):
            network.transfer(["l"], 10.0)


class TestExclusivePathNetwork:
    def test_serialises_shared_link(self, sim):
        network = ExclusivePathNetwork(sim)
        network.add_link("l", 10.0)
        log = []
        record_transfer(sim, network, ["l"], 100.0, log, "a")
        record_transfer(sim, network, ["l"], 100.0, log, "b")
        sim.run()
        assert dict(log) == {"a": 10.0, "b": 20.0}

    def test_disjoint_links_parallel(self, sim):
        network = ExclusivePathNetwork(sim)
        network.add_link("a", 10.0)
        network.add_link("b", 10.0)
        log = []
        record_transfer(sim, network, ["a"], 100.0, log, "x")
        record_transfer(sim, network, ["b"], 100.0, log, "y")
        sim.run()
        assert sorted(log) == [("x", 10.0), ("y", 10.0)]

    def test_first_fit_skips_blocked_request(self, sim):
        network = ExclusivePathNetwork(sim)
        network.add_link("a", 10.0)
        network.add_link("b", 10.0)
        log = []
        record_transfer(sim, network, ["a"], 100.0, log, "holder")
        record_transfer(sim, network, ["a", "b"], 100.0, log, "wide")
        record_transfer(sim, network, ["b"], 100.0, log, "narrow")
        sim.run()
        # narrow is not stuck behind the blocked wide request.
        assert dict(log)["narrow"] == 10.0

    def test_duration_uses_bottleneck(self, sim):
        network = ExclusivePathNetwork(sim)
        network.add_link("fast", 100.0)
        network.add_link("slow", 10.0)
        log = []
        record_transfer(sim, network, ["fast", "slow"], 100.0, log, "x")
        sim.run()
        assert log == [("x", 10.0)]

    def test_unknown_link(self, sim):
        network = ExclusivePathNetwork(sim)
        with pytest.raises(KeyError):
            network.transfer(["nope"], 1.0)

    def test_zero_size_instant(self, sim):
        network = ExclusivePathNetwork(sim)
        network.add_link("l", 1.0)
        assert network.transfer(["l"], 0.0).fired

    def test_cancel_queued_request(self, sim):
        network = ExclusivePathNetwork(sim)
        network.add_link("l", 10.0)
        observer = RecordingNetworkObserver()
        network.set_observer(observer)
        log = []
        record_transfer(sim, network, ["l"], 100.0, log, "holder")
        sim.run(until=1.0)
        queued = network.transfer(["l"], 100.0)
        before = list(observer.log)
        assert network.cancel(queued) is True
        assert observer.log == before  # a queued request never started
        sim.run()
        assert not queued.fired
        assert log == [("holder", 10.0)]
        assert [entry[1] for entry in observer.log].count("flow_started") == 1
        assert network.cancel(queued) is False

    def test_cancel_in_flight_frees_links_for_waiters_in_order(self, sim):
        network = ExclusivePathNetwork(sim)
        for link in ("a", "b"):
            network.add_link(link, 10.0)
        log = []
        held = network.transfer(["a", "b"], 100.0)  # would release at t=10
        record_transfer(sim, network, ["a"], 100.0, log, "first")
        record_transfer(sim, network, ["b"], 50.0, log, "second")
        record_transfer(sim, network, ["a"], 100.0, log, "third")
        sim.run(until=4.0)
        observer = RecordingNetworkObserver()
        network.set_observer(observer)
        assert network.cancel(held) is True
        # Both links freed at t=4: first and second start now, in arrival
        # order; third still waits behind first on "a".
        assert observer.log == [
            (4.0, "flow_cancelled", ("a", "b"), (100.0, 0.0)),
            (4.0, "rates_updated", (), ()),
            (4.0, "flow_started", ("a",), (100.0,)),
            (4.0, "rates_updated", ("a",), ()),
            (4.0, "flow_started", ("b",), (50.0,)),
            (4.0, "rates_updated", ("a", "b"), ()),
        ]
        sim.run()
        assert not held.fired
        assert log == [("second", 9.0), ("first", 14.0), ("third", 24.0)]
        # The cancelled hold's own release (t=10) was a no-op: nothing
        # finished or started then, and "a" was not freed under first.
        assert [entry for entry in observer.log if entry[0] == 10.0] == []
        assert network.cancel(held) is False

    def test_cancel_finished_or_foreign_event(self, sim):
        network = ExclusivePathNetwork(sim)
        network.add_link("l", 10.0)
        done = network.transfer(["l"], 100.0)
        sim.run()
        assert done.fired
        assert network.cancel(done) is False
        assert network.cancel(sim.event()) is False
        assert network.cancel(network.transfer(["l"], 0.0)) is False

    def test_arrival_on_free_links_granted_past_queued_requests(self, sim):
        network = ExclusivePathNetwork(sim)
        for link in ("a", "b", "c"):
            network.add_link(link, 10.0)
        log = []
        record_transfer(sim, network, ["a"], 100.0, log, "holder")
        record_transfer(sim, network, ["a", "b"], 100.0, log, "wide")
        record_transfer(sim, network, ["a"], 100.0, log, "narrow")
        sim.run(until=1.0)
        observer = RecordingNetworkObserver()
        network.set_observer(observer)
        # Granted on arrival: its link is free, the queue is not scanned.
        record_transfer(sim, network, ["c"], 90.0, log, "late")
        sim.run(until=1.0)
        assert observer.log == [
            (1.0, "flow_started", ("c",), (90.0,)),
            (1.0, "rates_updated", ("a", "c"), ()),
        ]
        sim.run()
        # The queued requests keep their arrival order on "a".
        assert log == [
            ("holder", 10.0), ("late", 10.0), ("wide", 20.0), ("narrow", 30.0)
        ]

    def test_arrival_takes_free_link_a_blocked_earlier_request_wants(self, sim):
        network = ExclusivePathNetwork(sim)
        network.add_link("a", 10.0)
        network.add_link("b", 10.0)
        log = []
        record_transfer(sim, network, ["a"], 100.0, log, "holder")
        record_transfer(sim, network, ["a", "b"], 100.0, log, "wide")
        sim.run(until=1.0)
        # "b" is free now, so the newcomer takes it although wide (queued
        # earlier, blocked on "a") also wants it: first-fit, not FIFO.
        record_transfer(sim, network, ["b"], 150.0, log, "newcomer")
        sim.run()
        assert log == [("holder", 10.0), ("newcomer", 16.0), ("wide", 26.0)]

    def test_observer_sequence_grant_release_drain(self, sim):
        network = ExclusivePathNetwork(sim)
        network.add_link("a", 10.0)
        network.add_link("b", 20.0)
        observer = RecordingNetworkObserver()
        network.set_observer(observer)
        woken = []
        first = network.transfer(["a", "b"], 100.0)
        second = network.transfer(["b"], 100.0)

        def waiter():
            value = yield first
            woken.append((sim.now, value, second.fired, network.active_flow_count()))

        sim.spawn(waiter())
        sim.run()
        assert observer.log == [
            (0.0, "flow_started", ("a", "b"), (100.0,)),
            (0.0, "rates_updated", ("a", "b"), ()),
            # release of first: finished -> rates -> (done fires) -> drain.
            (10.0, "flow_finished", ("a", "b"), (100.0, 10.0)),
            (10.0, "rates_updated", (), ()),
            (10.0, "flow_started", ("b",), (100.0,)),
            (10.0, "rates_updated", ("b",), ()),
            (15.0, "flow_finished", ("b",), (100.0, 5.0)),
            (15.0, "rates_updated", (), ()),
        ]
        # The waiter resumed after the release had drained the queue.
        assert woken == [(10.0, 10.0, False, 1)]
        assert second.value == 5.0
        assert sim.dispatched == 4  # spawn step, two releases, one resume


@pytest.mark.parametrize("network_class", [FluidNetwork, ExclusivePathNetwork])
@pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
def test_add_link_rejects_non_finite_capacity(sim, network_class, capacity):
    network = network_class(sim)
    with pytest.raises(ValueError, match=rf"'l' capacity .*{capacity!r}"):
        network.add_link("l", capacity)
    assert not network.has_link("l")


@pytest.mark.parametrize("network_class", [FluidNetwork, ExclusivePathNetwork])
class TestSetObserver:
    """The optional observer methods are resolved once, at ``set_observer``."""

    def test_full_observer_learns_links_and_hears_cancels(self, sim, network_class):
        network = network_class(sim)
        network.add_link("a", 10.0)
        network.add_link("b", 20.0)

        class Full(RecordingNetworkObserver):
            def register_links(self, capacities):
                self.log.append(("register_links", dict(capacities)))

        observer = Full()
        network.set_observer(observer)
        assert observer.log == [("register_links", {"a": 10.0, "b": 20.0})]
        done = network.transfer(["a"], 100.0)
        sim.run(until=1.0)
        assert network.cancel(done) is True
        assert "flow_cancelled" in [entry[1] for entry in observer.log[1:]]

    def test_minimal_observer_needs_neither_optional_method(self, sim, network_class):
        network = network_class(sim)
        network.add_link("a", 10.0)
        observer = RateLog()  # no register_links, no flow_cancelled
        network.set_observer(observer)
        done = network.transfer(["a"], 100.0)
        sim.run(until=1.0)
        assert network.cancel(done) is True
        sim.run()
        assert observer.updates[-1] == (1.0, {})

    def test_detach(self, sim, network_class):
        network = network_class(sim)
        network.add_link("a", 10.0)
        observer = RecordingNetworkObserver()
        network.set_observer(observer)
        network.set_observer(None)
        done = network.transfer(["a"], 100.0)
        sim.run(until=1.0)
        assert network.cancel(done) is True
        sim.run()
        assert observer.log == []
