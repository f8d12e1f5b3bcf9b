"""Simulation resources: slots, fluid fair-shared links, exclusive links.

Three resource kinds cover everything the MapReduce simulator needs:

* :class:`Semaphore` -- counting semaphore with a FIFO queue; models map and
  reduce slots.
* :class:`FluidNetwork` -- links whose active flows share bandwidth max-min
  fairly, re-solved once per simulated instant in which a flow started,
  finished or was cancelled.  This captures the
  paper's observation that two degraded reads entering one rack halve each
  other's throughput ("doubles the download time, from 10s to 20s").
  Each link is a small object holding its capacity, flow bucket and the
  scratch state of a solve; the network keeps the occupied ones in
  registration order, so the progressive-filling recompute visits only
  occupied links and does no sort, dict build or lookup by name, and it
  returns the time to the next completion.  Flows are kept in a
  done-event->flow map so ``cancel`` is O(1) -- see DESIGN.md section 10.
  The original all-pairs implementation is retained as
  :meth:`FluidNetwork._recompute_rates_reference`, the oracle for the
  property suite's allocation-equivalence tests.
* :class:`ExclusivePathNetwork` -- the literal CSIM "hold the communication
  link for a duration" semantics: a transfer occupies every link on its path
  exclusively; contending transfers queue.  Provided for the network-model
  ablation.

Observability (see :mod:`repro.obs`): each resource accepts an optional
*observer* -- ``None`` by default, so the off path costs one ``is not None``
check.  Observers are called synchronously with slot-occupancy changes and
flow starts/ends, and once per settled instant with the rate allocation;
they never put anything on the event heap, so an instrumented run's
simulation trajectory is identical to an uninstrumented one.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from functools import partial
from math import inf

from repro.sim.engine import Event, SimulationError, Simulator


class Semaphore:
    """Counting semaphore with FIFO granting.

    ``acquire`` returns an :class:`Event` that fires when a unit is granted;
    ``release`` returns one unit and wakes the queue head (``deque``-backed,
    so granting is O(1) however deep the queue gets).
    """

    __slots__ = ("_sim", "capacity", "available", "name", "_queue", "observer")

    def __init__(self, sim: Simulator, capacity: int, name: str = "") -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._sim = sim
        self.capacity = capacity
        self.available = capacity
        self.name = name
        self._queue: deque[Event] = deque()
        #: Optional slot observer: ``slot_changed(now, name, in_use, capacity,
        #: queued)`` called synchronously on every occupancy/queue change.
        self.observer = None

    def _notify(self) -> None:
        self.observer.slot_changed(
            self._sim.now,
            self.name,
            self.capacity - self.available,
            self.capacity,
            len(self._queue),
        )

    def acquire(self) -> Event:
        """Request one unit; the returned event fires when granted."""
        grant = self._sim.event(name=f"sem:{self.name}")
        if self.available > 0:
            self.available -= 1
            grant.succeed()
        else:
            self._queue.append(grant)
        if self.observer is not None:
            self._notify()
        return grant

    def release(self) -> None:
        """Return one unit; grants the oldest waiter if any."""
        if self._queue:
            self._queue.popleft().succeed()
        else:
            if self.available >= self.capacity:
                raise ValueError(f"semaphore {self.name!r} released above capacity")
            self.available += 1
        if self.observer is not None:
            self._notify()

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self.available > 0:
            self.available -= 1
            if self.observer is not None:
                self._notify()
            return True
        return False


@dataclass(eq=False, slots=True)
class _Flow:
    """One active fluid transfer.

    ``eq=False`` keeps identity hashing so flows can key the link buckets.
    ``hops`` are the link objects ``links`` names, resolved once by
    ``transfer``.  ``slack`` is the residue at or below which the flow
    counts as finished; it is relative to the size because rate*elapsed
    debits can leave a few bytes on 10^8-byte flows, and an absolute
    epsilon would livelock the completion scheduler.  ``solve`` stamps the
    last solve that froze the flow's rate.
    """

    links: tuple[str, ...]
    hops: tuple[_Link, ...]
    remaining: float
    done: Event
    size: float
    slack: float
    started_at: float
    rate: float = 0.0
    solve: int = 0


class _Link:
    """A registered fluid link, with the scratch state of a solve.

    ``flows`` is the link's bucket: the insertion-ordered set (dict) of the
    flows crossing it, which is also the network's ``_link_flows`` entry
    while it is non-empty.  ``residual`` and ``count`` (flows not yet
    frozen) are rewritten by every solve.
    """

    __slots__ = ("name", "capacity", "index", "flows", "residual", "count")

    def __init__(self, name: str, capacity: float, index: int) -> None:
        self.name = name
        self.capacity = capacity
        self.index = index
        self.flows: dict[_Flow, None] = {}
        self.residual = capacity
        self.count = 0


def _registration_index(link: _Link) -> int:
    return link.index


def _set_observer(network, observer) -> None:
    """Attach (``None`` detaches) a network's observer.

    Its optional methods are resolved here, once: ``register_links`` is told
    the capacities, ``flow_cancelled`` is kept for ``cancel`` to call.
    """
    if hasattr(observer, "register_links"):
        observer.register_links(network.capacities)
    network.observer = observer
    network._flow_cancelled = getattr(observer, "flow_cancelled", None)


def _check_capacity(name: str, capacity: float) -> None:
    if not 0 < capacity < inf:
        raise ValueError(
            f"link {name!r} capacity must be positive and finite, got {capacity!r}"
        )


class FluidNetwork:
    """Max-min fair fluid bandwidth sharing across named links.

    Each flow crosses one or more links; at any instant the flow rates are
    the max-min fair allocation given each link's capacity.

    The allocation is solved once per simulated instant, not once per
    mutation: :meth:`transfer`, :meth:`cancel` and the completion callback
    only update the flow set and mark the network unsettled; the first
    mutation of an instant puts one :meth:`_settle` on the event heap at
    ``now``, which re-solves the rates and arms the next completion.  Rates
    are only ever integrated over time (by :meth:`_advance` and
    :meth:`_complete`), and the engine drains every entry at ``now`` before
    any later one, so the network is always settled before virtual time
    advances (a debit raises otherwise) and the solves skipped inside an
    instant were never used.

    Hot-path structure (allocation-identical to the original all-pairs
    implementation, enforced by golden and property tests):

    * every registered link is a :class:`_Link` holding its capacity,
      registration index, flow bucket and the solve's scratch fields, and
      every flow carries its links as these objects (``hops``);
    * ``_occupied`` lists the links that carry flows, kept in registration
      order as links gain their first flow or lose their last, so a solve
      visits only occupied links, in the order that breaks bottleneck ties
      the way the reference's dict scan does, with no sort, no dict build
      and no lookup by name;
    * ``_flows`` maps each flow's completion event to the flow, so
      :meth:`cancel` and membership checks are O(1), and ``_link_flows``
      maps each occupied link's name to its bucket.
    """

    __slots__ = (
        "_sim",
        "_capacities",
        "_links",
        "_occupied",
        "_flows",
        "_link_flows",
        "_last_update",
        "_unsettled",
        "_solve_stamp",
        "_completion_token",
        "observer",
        "_flow_cancelled",
    )

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._capacities: dict[str, float] = {}
        #: Link name -> link object, in registration order.
        self._links: dict[str, _Link] = {}
        #: The links carrying flows, in registration order.
        self._occupied: list[_Link] = []
        #: Completion event -> flow, in start order.
        self._flows: dict[Event, _Flow] = {}
        #: Occupied link name -> its bucket, in order of first occupation.
        self._link_flows: dict[str, dict[_Flow, None]] = {}
        self._last_update = 0.0
        #: True from the first mutation of an instant until its ``_settle``.
        self._unsettled = False
        #: Counts solves; a flow whose ``solve`` equals it is frozen.
        self._solve_stamp = 0
        #: Identifies the armed completion; heap entries carrying an older
        #: token are stale.
        self._completion_token = 0
        #: Optional network observer, attached with :meth:`set_observer`:
        #: ``flow_started`` / ``flow_finished`` / ``flow_cancelled`` called
        #: synchronously, ``rates_updated`` once per settled instant.
        self.observer = self._flow_cancelled = None

    def add_link(self, name: str, capacity: float) -> None:
        """Register a link; capacity is in bytes (or bits) per second."""
        _check_capacity(name, capacity)
        if name in self._capacities:
            raise ValueError(f"duplicate link {name!r}")
        self._links[name] = _Link(name, capacity, len(self._capacities))
        self._capacities[name] = capacity

    def has_link(self, name: str) -> bool:
        """Whether a link with this name exists."""
        return name in self._capacities

    @property
    def capacities(self) -> dict[str, float]:
        """A copy of the registered link capacities."""
        return dict(self._capacities)

    set_observer = _set_observer

    def transfer(self, links: list[str], size: float) -> Event:
        """Start a flow of ``size`` over ``links``; event fires on completion.

        An empty ``links`` list means an uncontended transfer that finishes
        instantly (used for node-local movement).
        """
        done = self._sim.event(name="flow")
        registered = self._links
        for link in links:
            if link not in registered:
                raise KeyError(f"unknown link {link!r}")
        if len(set(links)) < len(links):
            raise ValueError(f"path {links!r} crosses a link twice")
        if size <= 0 or not links:
            done.succeed()
            return done
        self._advance()
        size = float(size)
        flow = _Flow(
            links=tuple(links),
            hops=tuple([registered[link] for link in links]),
            remaining=size,
            done=done,
            size=size,
            slack=max(1e-6 * size, 1e-9),
            started_at=self._sim.now,
        )
        self._flows[done] = flow
        for link in flow.hops:
            bucket = link.flows
            if not bucket:
                self._link_flows[link.name] = bucket
                insort(self._occupied, link, key=_registration_index)
            bucket[flow] = None
        if self.observer is not None:
            self.observer.flow_started(self._sim.now, flow.links, flow.size)
        self._mark_unsettled()
        return done

    def active_flow_count(self, link: str | None = None) -> int:
        """Number of active flows, optionally restricted to one link."""
        if link is None:
            return len(self._flows)
        bucket = self._link_flows.get(link)
        return 0 if bucket is None else len(bucket)

    def cancel(self, done: Event) -> bool:
        """Abort the in-flight flow whose completion event is ``done``.

        Returns True if the flow was found and removed (its event will then
        never fire); False if it already completed or was never started.
        Used when a transfer's source node dies mid-flight: the connection
        breaks immediately and the bandwidth is redistributed to survivors.
        """
        flow = self._flows.get(done)
        if flow is None:
            return False
        self._advance()
        self._remove_flow(flow)
        if self._flow_cancelled is not None:
            self._flow_cancelled(
                self._sim.now,
                flow.links,
                flow.size,
                flow.size - flow.remaining,
            )
        self._mark_unsettled()
        return True

    # -- internals ----------------------------------------------------------

    def _remove_flow(self, flow: _Flow) -> None:
        """Drop a flow from the event map and its links' buckets."""
        del self._flows[flow.done]
        for link in flow.hops:
            bucket = link.flows
            del bucket[flow]
            if not bucket:
                del self._link_flows[link.name]
                self._occupied.remove(link)

    def _mark_unsettled(self) -> None:
        """Note a flow-set change; an instant's first one schedules its settle."""
        if not self._unsettled:
            self._unsettled = True
            self._sim.call_at(self._sim.now, self._settle)

    def _elapsed(self) -> float:
        """Time since the last debit; moves the debit mark to ``now``."""
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            if self._unsettled:
                raise SimulationError(
                    f"fluid network unsettled at t={self._last_update!r} while"
                    f" virtual time advanced to {now!r}"
                )
            self._last_update = now
        return elapsed

    def _advance(self) -> None:
        """Debit progress accrued since the last settled instant."""
        elapsed = self._elapsed()
        if elapsed > 0:
            for flow in self._flows.values():
                remaining = flow.remaining - flow.rate * elapsed
                flow.remaining = remaining if remaining > 0.0 else 0.0

    def _recompute_rates(self) -> float | None:
        """Progressive-filling max-min fair allocation over occupied links.

        Sets every active flow's ``rate`` and returns the smallest
        ``remaining / rate`` over the flows given a positive rate (``None``
        if there is none): the time to the next completion.
        Bit-identical to :meth:`_recompute_rates_reference`: links are
        considered in registration order with the same strict ``<``, so
        bottleneck ties break the same way, and residuals are debited in
        the same order (bucket order, then the order of each flow's links).
        A link whose flows are all frozen, the bottleneck among them, has
        ``count == 0`` and can never be a bottleneck again (a path crosses
        a link at most once), so each round scans only the links the round
        before left with unfrozen flows.
        """
        occupied = self._occupied
        if not occupied:
            return None
        for link in occupied:
            link.residual = link.capacity
            link.count = len(link.flows)
        self._solve_stamp = stamp = self._solve_stamp + 1
        unfrozen = len(self._flows)
        soonest = None
        live = occupied
        while unfrozen:
            # Capacities are finite, so every share is: ``inf`` picks the
            # same first minimum as the reference's ``None`` start.
            best_share = inf
            bottleneck = None
            candidates = []
            for link in live:
                count = link.count
                if count:
                    candidates.append(link)
                    share = link.residual / count
                    if share < best_share:
                        best_share = share
                        bottleneck = link
            if bottleneck is None:
                break
            live = candidates
            for flow in bottleneck.flows:
                if flow.solve == stamp:
                    continue
                flow.solve = stamp
                unfrozen -= 1
                flow.rate = best_share
                if best_share > 0:
                    eta = flow.remaining / best_share
                    if soonest is None or eta < soonest:
                        soonest = eta
                for link in flow.hops:
                    left = link.residual - best_share
                    link.residual = left if left > 0.0 else 0.0
                    link.count -= 1
        if unfrozen:
            # Unreachable with positive capacities (every unfrozen flow
            # keeps a live link); mirrors the reference's rate zeroing.
            for flow in self._flows.values():
                if flow.solve != stamp:
                    flow.rate = 0.0
        return soonest

    def _recompute_rates_reference(self) -> dict[Event, float]:
        """The original all-pairs progressive-filling implementation.

        Scans every registered link against every unfrozen flow per round.
        Kept (non-mutating: rates are returned keyed by completion event,
        ``flow.rate`` is untouched) as the oracle for the property tests
        asserting the indexed implementation allocates identically.
        """
        flows = list(self._flows.values())
        rates = {flow.done: 0.0 for flow in flows}
        unfrozen = flows
        residual = dict(self._capacities)
        while unfrozen:
            # Bottleneck link: smallest fair share among links carrying flows.
            best_share = None
            for link, capacity in residual.items():
                count = sum(1 for flow in unfrozen if link in flow.links)
                if count == 0:
                    continue
                share = capacity / count
                if best_share is None or share < best_share:
                    best_share = share
                    bottleneck = link
            if best_share is None:
                break
            frozen = [flow for flow in unfrozen if bottleneck in flow.links]
            for flow in frozen:
                rates[flow.done] = best_share
                for link in flow.links:
                    residual[link] = max(0.0, residual[link] - best_share)
            del residual[bottleneck]
            unfrozen = [flow for flow in unfrozen if bottleneck not in flow.links]
        return rates

    def _settle(self) -> None:
        """Solve this instant's allocation and arm the next completion."""
        self._unsettled = False
        soonest = self._recompute_rates()
        now = self._sim.now
        if self.observer is not None:
            # Buckets keep start order: the same sums as a scan of the flows.
            link_rates: dict[str, float] = {}
            for link, bucket in self._link_flows.items():
                allocated = 0.0
                for flow in bucket:
                    allocated += flow.rate
                link_rates[link] = allocated
            self.observer.rates_updated(now, link_rates)
        # A new token voids whatever completion an earlier settle armed.
        self._completion_token = token = self._completion_token + 1
        if soonest is not None:
            # Rounding is monotone, so now + min(eta) == min(now + eta).
            self._sim.call_at(now + soonest, partial(self._complete, token))

    def _complete(self, token: int) -> None:
        """The armed completion: debit progress and retire finished flows.

        One pass over the flows, in start order, debits each as
        :meth:`_advance` would and collects those within their ``slack``.
        May run at an instant a mutation already unsettled; it then debits
        no time and just collects the flows that finished.  Marking
        unsettled *after* firing the ``done`` events lets the flows started
        by the processes they wake fold into the same solve.
        """
        if token != self._completion_token:
            return
        elapsed = self._elapsed()
        finished = []
        if elapsed > 0:
            for flow in self._flows.values():
                remaining = flow.remaining - flow.rate * elapsed
                if remaining > flow.slack:
                    flow.remaining = remaining
                else:
                    flow.remaining = remaining if remaining > 0.0 else 0.0
                    finished.append(flow)
        else:
            for flow in self._flows.values():
                if flow.remaining <= flow.slack:
                    finished.append(flow)
        for flow in finished:
            self._remove_flow(flow)
        now = self._sim.now
        for flow in finished:
            if self.observer is not None:
                self.observer.flow_finished(
                    now, flow.links, flow.size, now - flow.started_at
                )
            flow.done.succeed(now - flow.started_at)
        self._mark_unsettled()


class ExclusivePathNetwork:
    """Transfers hold every link on their path exclusively (CSIM semantics).

    Pending transfers sit in one global FIFO and are granted first-fit in
    arrival order, so a blocked wide request does not starve narrow ones
    behind it -- matching how CSIM facility queues behave.  Links are only
    freed by a release or an in-flight cancel, and each of those ends with a
    drain, so between calls every queued request is blocked: ``transfer``
    tests only the new request, and a drain is one pass over the queue
    (links only get busier inside it).  See DESIGN.md section 10.
    """

    __slots__ = ("_sim", "_capacities", "_busy", "_queue", "_active", "observer",
                 "_flow_cancelled")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._capacities: dict[str, float] = {}
        self._busy: set[str] = set()
        self._queue: list[tuple[tuple[str, ...], float, Event]] = []
        #: Active holds, completion event -> (links, size, started), so a
        #: hold can be cancelled; a release that finds no entry was cancelled.
        self._active: dict[Event, tuple[tuple[str, ...], float, float]] = {}
        #: Optional network observer (same protocol as FluidNetwork's).
        self.observer = self._flow_cancelled = None

    def add_link(self, name: str, capacity: float) -> None:
        """Register a link with the given capacity."""
        _check_capacity(name, capacity)
        if name in self._capacities:
            raise ValueError(f"duplicate link {name!r}")
        self._capacities[name] = capacity

    def has_link(self, name: str) -> bool:
        """Whether a link with this name exists."""
        return name in self._capacities

    @property
    def capacities(self) -> dict[str, float]:
        """A copy of the registered link capacities."""
        return dict(self._capacities)

    set_observer = _set_observer

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
        path = tuple(links)
        if self._busy.isdisjoint(path):
            self._grant(path, float(size), done)
        else:
            self._queue.append((path, float(size), done))
        return done

    def active_flow_count(self, link: str | None = None) -> int:
        """Busy-link count proxy, for interface parity with FluidNetwork."""
        if link is None:
            return len(self._busy)
        return 1 if link in self._busy else 0

    def cancel(self, done: Event) -> bool:
        """Abort a queued or in-flight hold whose completion event is ``done``.

        Returns True if found (the event will never fire), False otherwise.
        """
        for index, (_links, _size, pending) in enumerate(self._queue):
            if pending is done:
                del self._queue[index]
                return True
        hold = self._active.pop(done, None)
        if hold is None:
            return False
        links, size, _started = hold
        self._busy.difference_update(links)
        if self.observer is not None:
            if self._flow_cancelled is not None:
                # Exclusive holds move no partial bytes; the hold simply ends.
                self._flow_cancelled(self._sim.now, links, size, 0.0)
            self._notify_rates()
        self._drain()
        return True

    def _drain(self) -> None:
        """Grant, in arrival order, every queued request whose links are free."""
        busy, queue, index = self._busy, self._queue, 0
        while index < len(queue):
            if busy.isdisjoint(queue[index][0]):
                self._grant(*queue.pop(index))
            else:
                index += 1

    def _grant(self, links: tuple[str, ...], size: float, done: Event) -> None:
        self._busy.update(links)
        duration = size / min(self._capacities[link] for link in links)
        started = self._sim.now
        self._active[done] = (links, size, started)
        if self.observer is not None:
            self.observer.flow_started(started, links, size)
            self._notify_rates()
        self._sim.call_in(duration, partial(self._release, done))

    def _release(self, done: Event) -> None:
        hold = self._active.pop(done, None)
        if hold is None:
            return
        links, size, started = hold
        self._busy.difference_update(links)
        now = self._sim.now
        if self.observer is not None:
            self.observer.flow_finished(now, links, size, now - started)
            self._notify_rates()
        done.succeed(now - started)
        self._drain()
