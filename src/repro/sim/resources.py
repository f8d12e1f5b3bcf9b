"""Simulation resources: slots, fluid fair-shared links, exclusive links.

Three resource kinds cover everything the MapReduce simulator needs:

* :class:`Semaphore` -- counting semaphore with a FIFO queue; models map and
  reduce slots.
* :class:`FluidNetwork` -- links whose active flows share bandwidth max-min
  fairly, re-solved once per simulated instant in which a flow started,
  finished or was cancelled.  This captures the
  paper's observation that two degraded reads entering one rack halve each
  other's throughput ("doubles the download time, from 10s to 20s").
  The progressive-filling recompute runs over a persistent link->flows
  index (only occupied links are visited) and flows are kept in a
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

from collections import deque
from dataclasses import dataclass
from functools import partial

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

    ``eq=False`` keeps identity hashing so flows can key the link index.
    """

    links: tuple[str, ...]
    remaining: float
    done: Event
    size: float = 0.0
    rate: float = 0.0
    started_at: float = 0.0

    @property
    def finished(self) -> bool:
        """Whether the flow is complete, up to float residue.

        The tolerance is relative to the flow size: rate*elapsed debits can
        leave residues of a few bytes on 10^8-byte flows, and an absolute
        epsilon would livelock the completion scheduler.
        """
        return self.remaining <= max(1e-6 * self.size, 1e-9)


def _set_observer(network, observer) -> None:
    """Attach (``None`` detaches) a network's observer.

    Its optional methods are resolved here, once: ``register_links`` is told
    the capacities, ``flow_cancelled`` is kept for ``cancel`` to call.
    """
    if hasattr(observer, "register_links"):
        observer.register_links(network.capacities)
    network.observer = observer
    network._flow_cancelled = getattr(observer, "flow_cancelled", None)


class FluidNetwork:
    """Max-min fair fluid bandwidth sharing across named links.

    Each flow crosses one or more links; at any instant the flow rates are
    the max-min fair allocation given each link's capacity.

    The allocation is solved once per simulated instant, not once per
    mutation: :meth:`transfer`, :meth:`cancel` and the completion callback
    only update the flow set and mark the network unsettled; the first
    mutation of an instant puts one :meth:`_settle` on the event heap at
    ``now``, which re-solves the rates and arms the next completion.  Rates
    are only ever integrated over time by :meth:`_advance`, and the engine
    drains every entry at ``now`` before any later one, so the network is
    always settled before virtual time advances (``_advance`` raises
    otherwise) and the solves skipped inside an instant were never used.

    Hot-path structure (allocation-identical to the original all-pairs
    implementation, enforced by golden and property tests):

    * ``_flows`` maps each flow's completion event to the flow, so
      :meth:`cancel` and membership checks are O(1);
    * ``_link_flows`` is a persistent link -> ordered-flow-set index holding
      only *occupied* links, so progressive filling visits occupied links
      with O(1) per-link flow counts instead of rescanning every link
      against every flow.
    """

    __slots__ = (
        "_sim",
        "_capacities",
        "_link_order",
        "_flows",
        "_link_flows",
        "_last_update",
        "_unsettled",
        "_completion_token",
        "observer",
        "_flow_cancelled",
    )

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._capacities: dict[str, float] = {}
        #: Link -> registration index; progressive filling must consider
        #: links in registration order so bottleneck ties break exactly as
        #: the reference implementation's dict scan did.
        self._link_order: dict[str, int] = {}
        #: Completion event -> flow, in start order.
        self._flows: dict[Event, _Flow] = {}
        #: Occupied link -> insertion-ordered set (dict) of crossing flows.
        self._link_flows: dict[str, dict[_Flow, None]] = {}
        self._last_update = 0.0
        #: True from the first mutation of an instant until its ``_settle``.
        self._unsettled = False
        #: Identifies the armed completion; heap entries carrying an older
        #: token are stale.
        self._completion_token = 0
        #: Optional network observer, attached with :meth:`set_observer`:
        #: ``flow_started`` / ``flow_finished`` / ``flow_cancelled`` called
        #: synchronously, ``rates_updated`` once per settled instant.
        self.observer = self._flow_cancelled = None

    def add_link(self, name: str, capacity: float) -> None:
        """Register a link; capacity is in bytes (or bits) per second."""
        if capacity <= 0:
            raise ValueError(f"link {name!r} capacity must be positive, got {capacity}")
        if name in self._capacities:
            raise ValueError(f"duplicate link {name!r}")
        self._link_order[name] = len(self._capacities)
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
        for link in links:
            if link not in self._capacities:
                raise KeyError(f"unknown link {link!r}")
        if size <= 0 or not links:
            done.succeed()
            return done
        self._advance()
        flow = _Flow(links=tuple(links), remaining=float(size), done=done,
                     size=float(size), started_at=self._sim.now)
        self._flows[done] = flow
        link_flows = self._link_flows
        for link in flow.links:
            bucket = link_flows.get(link)
            if bucket is None:
                link_flows[link] = {flow: None}
            else:
                bucket[flow] = None
        if self.observer is not None:
            self.observer.flow_started(self._sim.now, flow.links, flow.size)
        self._mark_unsettled()
        return flow.done

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
        """Drop a flow from the event map and link index."""
        del self._flows[flow.done]
        link_flows = self._link_flows
        for link in flow.links:
            bucket = link_flows[link]
            del bucket[flow]
            if not bucket:
                del link_flows[link]

    def _mark_unsettled(self) -> None:
        """Note a flow-set change; an instant's first one schedules its settle."""
        if not self._unsettled:
            self._unsettled = True
            self._sim.call_at(self._sim.now, self._settle)

    def _advance(self) -> None:
        """Debit progress accrued since the last settled instant."""
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            if self._unsettled:
                raise SimulationError(
                    f"fluid network unsettled at t={self._last_update!r} while"
                    f" virtual time advanced to {now!r}"
                )
            for flow in self._flows.values():
                remaining = flow.remaining - flow.rate * elapsed
                flow.remaining = remaining if remaining > 0.0 else 0.0
            self._last_update = now

    def _recompute_rates(self) -> None:
        """Progressive-filling max-min fair allocation over the link index.

        Visits only occupied links, with per-link flow counts maintained
        incrementally per round.  Sets every active flow's ``rate``.
        Bit-identical to :meth:`_recompute_rates_reference`: links are
        considered in registration order so bottleneck ties break the same
        way, and within a round every frozen flow debits the same share, so
        the residual arithmetic is order-independent.
        """
        link_flows = self._link_flows
        if not link_flows:
            return
        occupied = sorted(link_flows, key=self._link_order.__getitem__)
        capacities = self._capacities
        residual = {link: capacities[link] for link in occupied}
        unfrozen_count = {link: len(link_flows[link]) for link in occupied}
        frozen: set[_Flow] = set()
        remaining_flows = len(self._flows)
        while remaining_flows:
            best_share = None
            bottleneck = None
            for link in occupied:
                count = unfrozen_count[link]
                if count == 0 or link not in residual:
                    continue
                share = residual[link] / count
                if best_share is None or share < best_share:
                    best_share = share
                    bottleneck = link
            if best_share is None:
                break
            for flow in link_flows[bottleneck]:
                if flow in frozen:
                    continue
                frozen.add(flow)
                remaining_flows -= 1
                flow.rate = best_share
                for link in flow.links:
                    left = residual[link] - best_share
                    residual[link] = left if left > 0.0 else 0.0
                    unfrozen_count[link] -= 1
            del residual[bottleneck]
        if remaining_flows:
            # Unreachable with positive capacities (every unfrozen flow
            # keeps a live link); mirrors the reference's rate zeroing.
            for flow in self._flows.values():
                if flow not in frozen:
                    flow.rate = 0.0

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
        self._recompute_rates()
        flows = self._flows.values()
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
        eta = min(
            (now + flow.remaining / flow.rate for flow in flows if flow.rate > 0),
            default=None,
        )
        if eta is not None:
            self._sim.call_at(eta, partial(self._complete, token))

    def _complete(self, token: int) -> None:
        """The armed completion: retire every finished flow.

        May run at an instant a mutation already unsettled; it then debits
        no time and just collects the flows that finished.  Marking
        unsettled *after* firing the ``done`` events lets the flows started
        by the processes they wake fold into the same solve.
        """
        if token != self._completion_token:
            return
        self._advance()
        now = self._sim.now
        finished = [flow for flow in self._flows.values() if flow.finished]
        for flow in finished:
            self._remove_flow(flow)
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
        if capacity <= 0:
            raise ValueError(f"link {name!r} capacity must be positive, got {capacity}")
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
