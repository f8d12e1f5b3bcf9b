"""The invariant monitor: a zero-perturbation runtime sanitizer.

:class:`InvariantMonitor` plugs into a trial exactly where an
:class:`~repro.obs.ObservabilityCollector` does -- it *wraps* one, shares
its :class:`~repro.obs.events.EventBus`, and forwards every observer-protocol
call -- and checks, continuously, that the simulation obeys its own rules:

``slot-accounting``
    Semaphore occupancy stays within ``[0, capacity]``, queues never go
    negative, waiters only queue when the semaphore is full, and the
    launch/termination ledger never holds more running attempts on a node
    than the node has slots.
``link-capacity``
    Every :class:`~repro.sim.resources.FluidNetwork` reallocation keeps the
    summed flow rate on each link within its capacity (up to float
    epsilon), and flows only cross registered links.
``task-lifecycle``
    No task is launched twice on one node without terminating in between,
    a second concurrent attempt of a task must be speculative, every
    ``task.finish`` / ``task.kill`` matches a running attempt, and -- when
    the trial completes -- every launched attempt has terminated exactly
    once (attempts of abandoned jobs are exempt: the master tears them
    down wholesale).
``bdf-pacing``
    Every degraded-first launch satisfies the paper's pacing inequality
    ``m/M >= m_d/M_d`` (Algorithm 2), and every pacing skip really was
    forced by it.
``edf-guard``
    A degraded launch under EDF passed both ``ASSIGNTOSLAVE`` and
    ``ASSIGNTORACK``, the traced guard verdicts are consistent with the
    traced quantities, and guard skips name the guard that rejected.
``stripe-conservation``
    Degraded reads and repairs always work from at least ``k`` readable
    same-stripe sources; a parked task's stripe really is undecodable
    (otherwise the correct outcome is progress, not a typed
    :class:`~repro.faults.errors.DataUnavailableError`); and a finished
    repair never leaves two units of one stripe on the same node.
``backlog-boundedness``
    The repair driver's published backlog depth is internally consistent
    (``depth == queued + in_flight``), never negative, and never exceeds
    the number of stored blocks -- the repair queue holds at most one entry
    per block, so anything larger means double-queued work.
``event-monotonicity``
    Dispatched heap entries and emitted bus events never move backwards in
    virtual time.

The monitor never schedules simulator callbacks, never draws randomness,
and never mutates simulation state, so a checked trial is bit-identical to
an unchecked one -- asserted against the PR-4 goldens by
``tests/integration/test_sanitizer.py``.

For fuzzing, ``max_dispatch`` / ``max_sim_time`` turn the monitor into a
runaway guard: exceeding either bound aborts the trial with an
:class:`InvariantViolationError` instead of spinning forever.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MethodType
from typing import Any

from repro.obs.collector import ObservabilityCollector
from repro.obs.events import WILDCARD, ObsEvent
from repro.storage.block import BlockId

#: Tolerances for link-capacity feasibility: progressive filling assigns
#: ``capacity / flows`` shares whose sum can exceed capacity by a few ulps.
_REL_EPS = 1e-9
_ABS_EPS = 1e-6

#: Float slack mirrored from ``EnhancedDegradedFirstScheduler.assign_to_slave``.
_GUARD_EPS = 1e-12

#: ``str(BlockId)`` as printed by the paper's notation, e.g. ``B_{2,0}``.
_BLOCK_NAME = re.compile(r"^([BP])_\{(\d+),(\d+)\}$")

#: Violations a monitor records per trial; beyond it they are only counted
#: (:attr:`InvariantMonitor.dropped_violations`), bounding memory on badly
#: broken runs.
MAX_VIOLATIONS = 200

#: Instances a report lists under each invariant.
_REPORT_LIMIT_PER_KIND = 5


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough context to chase it down."""

    time: float
    invariant: str
    message: str
    details: dict = field(default_factory=dict)

    def format(self) -> str:
        """One-line rendering for reports and error messages."""
        text = f"[{self.invariant}] t={self.time:.3f}: {self.message}"
        if self.details:
            extras = " ".join(f"{key}={value}" for key, value in sorted(self.details.items()))
            text = f"{text} ({extras})"
        return text


class InvariantViolationError(RuntimeError):
    """A checked trial broke at least one invariant.

    Carries the recorded violation list, the count of those the monitor's
    cap dropped unrecorded, and -- when the trial got far enough to build
    one -- the :class:`~repro.mapreduce.metrics.SimulationResult`.
    """

    def __init__(
        self, violations: list[InvariantViolation], result: Any = None, dropped: int = 0
    ) -> None:
        self.violations = list(violations)
        self.result = result
        self.dropped = dropped
        head = self.violations[0].format() if self.violations else "invariant violation"
        super().__init__(
            f"{len(self.violations)} invariant violation(s){_unrecorded(dropped)}; first: {head}"
        )

    def __reduce__(self):
        # RuntimeError's default reduce would re-init with the message
        # string; keep the violation list and dropped count intact across
        # process pools.
        return (self.__class__, (self.violations, self.result, self.dropped))

    def report(self) -> str:
        """The multi-line violation report."""
        return render_report(self.violations, self.dropped)


def _unrecorded(dropped: int) -> str:
    return f", {dropped} more not recorded" if dropped else ""


def render_report(violations: list[InvariantViolation], dropped: int) -> str:
    """Render violations grouped by invariant, most instances first.

    ``dropped`` counts violations past the recording cap; the header says
    how many more there were, though none of them is listed.
    """
    if not violations:
        return "== sanitizer report: no violations =="
    by_kind: dict[str, list[InvariantViolation]] = {}
    for violation in violations:
        by_kind.setdefault(violation.invariant, []).append(violation)
    lines = [f"== sanitizer report: {len(violations)} violation(s){_unrecorded(dropped)} =="]
    for kind in sorted(by_kind, key=lambda name: (-len(by_kind[name]), name)):
        instances = by_kind[kind]
        lines.append(f"{kind}: {len(instances)} violation(s)")
        for violation in instances[:_REPORT_LIMIT_PER_KIND]:
            lines.append(f"  {violation.format()}")
        if len(instances) > _REPORT_LIMIT_PER_KIND:
            lines.append(f"  ... and {len(instances) - _REPORT_LIMIT_PER_KIND} more")
    return "\n".join(lines)


def _parse_block(name: str, k: int) -> BlockId | None:
    """Reconstruct a :class:`BlockId` from its event-field string form."""
    match = _BLOCK_NAME.match(name)
    if match is None:
        return None
    kind, stripe, index = match.groups()
    position = int(index) if kind == "B" else int(index) + k
    return BlockId(stripe_id=int(stripe), position=position, k=k)


class InvariantMonitor:
    """Checks a trial's invariants without perturbing it.

    Pass an instance as ``observer=`` to
    :func:`~repro.mapreduce.simulation.run_simulation`; a clean trial
    behaves exactly as with a plain collector, a dirty one raises
    :class:`InvariantViolationError` once the run ends (or immediately, if
    a runaway bound trips mid-run).

    Parameters
    ----------
    collector:
        An existing :class:`ObservabilityCollector` to wrap (so ``--check``
        composes with the export flags); a private, event-discarding one is
        created when omitted.
    max_dispatch, max_sim_time:
        Optional runaway bounds for fuzzing: exceeding either aborts the
        trial by raising from inside the event loop.
    """

    def __init__(
        self,
        collector: ObservabilityCollector | None = None,
        max_dispatch: int | None = None,
        max_sim_time: float | None = None,
    ) -> None:
        self.collector = (
            collector if collector is not None else ObservabilityCollector(keep_events=False)
        )
        self.bus = self.collector.bus
        self.profiler = self.collector.profiler
        self.violations: list[InvariantViolation] = []
        #: Violations past :data:`MAX_VIOLATIONS`, counted but not recorded.
        self.dropped_violations = 0
        self.max_dispatch = max_dispatch
        self.max_sim_time = max_sim_time
        # Trial wiring, filled in by on_trial_built.
        self._tracker = None
        self._runtime = None
        self._block_map = None
        self._map_capacity: dict[int, int] = {}
        self._reduce_capacity: dict[int, int] = {}
        # Checker state.
        self._link_caps: dict[str, float] = {}
        #: (job_id, task, ident, node) -> {"attempt": n, "speculative": bool}
        self._running: dict[tuple, dict] = {}
        #: (job_id, task, ident) -> set of nodes with a running attempt
        self._running_by_task: dict[tuple, set] = {}
        #: (node, task) -> running attempt count, for the slot cross-check
        self._node_running: dict[tuple, int] = {}
        self._failed_jobs: set[int] = set()
        #: Block names whose repair was forced to double up (no live node
        #: without a same-stripe unit existed at plan time) -- exempt from
        #: the distinct-node check at repair.end.
        self._forced_doubleup: set[str] = set()
        #: Repairs currently in flight: block name -> (stripe, destination).
        #: Their destinations are not in the BlockMap yet but already count
        #: against the distinct-node rule for sibling rebuilds.
        self._repairing: dict[str, tuple[int, int]] = {}
        self._last_event_time = 0.0
        self._last_dispatch_time = 0.0
        self._dispatch_count = 0
        for kind, handler in _HANDLERS.items():
            self.bus.subscribe(kind, MethodType(handler, self))
        # Ordering is the one check that must see every kind.
        self.bus.subscribe(WILDCARD, self._check_event_order)

    # -- recording -----------------------------------------------------------

    def _record(self, time: float, invariant: str, message: str, **details: Any) -> None:
        if len(self.violations) >= MAX_VIOLATIONS:
            self.dropped_violations += 1
            return
        self.violations.append(InvariantViolation(time, invariant, message, dict(details)))

    def raise_if_violations(self, result: Any = None) -> None:
        """Raise :class:`InvariantViolationError` if anything was recorded."""
        if self.violations:
            raise InvariantViolationError(self.violations, result, self.dropped_violations)

    def report(self) -> str:
        """The multi-line violation report for this trial."""
        return render_report(self.violations, self.dropped_violations)

    # -- trial wiring (called by run_simulation) -----------------------------

    def on_trial_built(self, *, sim, tracker, runtime, hdfs, config) -> None:
        """Receive the assembled trial before any event runs.

        This is the hook :func:`run_simulation` threads through for state
        the bus does not carry: the block map (stripe conservation), the
        tracker/runtime failure views (spurious-park detection), the slot
        capacities, and the engine itself (dispatch monotonicity).
        """
        del config
        self._tracker = tracker
        self._runtime = runtime
        self._block_map = hdfs.block_map
        for node in tracker.topology.nodes:
            self._map_capacity[node.node_id] = node.map_slots
            self._reduce_capacity[node.node_id] = node.reduce_slots
        sim.monitor = self

    def on_dispatch(self, time: float) -> None:
        """Engine hook: one heap entry dispatched at ``time``."""
        if time < self._last_dispatch_time:
            self._record(
                time,
                "event-monotonicity",
                f"heap dispatched t={time!r} after t={self._last_dispatch_time!r}",
            )
        self._last_dispatch_time = time
        self._dispatch_count += 1
        if self.max_dispatch is not None and self._dispatch_count > self.max_dispatch:
            self._record(
                time,
                "runaway",
                f"trial exceeded {self.max_dispatch} dispatched events",
            )
            raise InvariantViolationError(self.violations, dropped=self.dropped_violations)
        if self.max_sim_time is not None and time > self.max_sim_time:
            self._record(
                time,
                "runaway",
                f"trial exceeded simulated time bound {self.max_sim_time}",
            )
            raise InvariantViolationError(self.violations, dropped=self.dropped_violations)

    # -- slot observer protocol ----------------------------------------------

    def slot_changed(
        self, now: float, name: str, in_use: int, capacity: int, queued: int
    ) -> None:
        if in_use < 0 or in_use > capacity:
            self._record(
                now,
                "slot-accounting",
                f"semaphore {name} occupancy {in_use} outside [0, {capacity}]",
                semaphore=name,
            )
        if queued < 0:
            self._record(
                now, "slot-accounting", f"semaphore {name} queue depth {queued} negative",
                semaphore=name,
            )
        elif queued > 0 and in_use < capacity:
            self._record(
                now,
                "slot-accounting",
                f"semaphore {name} has {queued} queued waiter(s) with free slots"
                f" ({in_use}/{capacity} in use)",
                semaphore=name,
            )
        self.collector.slot_changed(now, name, in_use, capacity, queued)

    # -- network observer protocol -------------------------------------------

    def register_links(self, capacities: dict[str, float]) -> None:
        self._link_caps.update(capacities)
        self.collector.register_links(capacities)

    def flow_started(self, now: float, links: tuple[str, ...], size: float) -> None:
        for link in links:
            if link not in self._link_caps:
                self._record(
                    now, "link-capacity", f"flow crosses unregistered link {link}",
                    link=link,
                )
        self.collector.flow_started(now, links, size)

    def flow_finished(
        self, now: float, links: tuple[str, ...], size: float, duration: float
    ) -> None:
        self.collector.flow_finished(now, links, size, duration)

    def flow_cancelled(
        self, now: float, links: tuple[str, ...], size: float, moved: float
    ) -> None:
        self.collector.flow_cancelled(now, links, size, moved)

    def rates_updated(self, now: float, link_rates: dict[str, float]) -> None:
        for link, allocated in link_rates.items():
            capacity = self._link_caps.get(link)
            if capacity is None:
                self._record(
                    now, "link-capacity", f"rate allocated on unregistered link {link}",
                    link=link,
                )
            elif allocated > capacity * (1.0 + _REL_EPS) + _ABS_EPS:
                self._record(
                    now,
                    "link-capacity",
                    f"link {link} oversubscribed: {allocated!r} B/s allocated"
                    f" against capacity {capacity!r}",
                    link=link,
                    allocated=allocated,
                    capacity=capacity,
                )
        self.collector.rates_updated(now, link_rates)

    # -- lifecycle -----------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Close the trial; flag attempts that never terminated.

        The leftover-attempt check only applies to trials whose jobs all
        retired: an aborted trial legitimately strands parked attempts.
        The trial wiring ends here: the monitor outlives the trial and must
        not pin the tracker, runtime and block map (a cycle via ``sim.monitor``).
        """
        self.collector.finalize(now)
        tracker = self._tracker
        self._tracker = self._runtime = self._block_map = None
        if tracker is None or not tracker.finished:
            return
        for key in sorted(self._running, key=repr):
            job_id, task, ident, node = key
            if job_id in self._failed_jobs:
                continue
            info = self._running[key]
            self._record(
                now,
                "task-lifecycle",
                f"{task} attempt {info.get('attempt')} of task {ident!r}"
                f" (job {job_id}) on node {node} never terminated",
                node=node,
            )

    # -- bus subscriber --------------------------------------------------------

    def _check_event_order(self, event: ObsEvent) -> None:
        if event.time < self._last_event_time:
            self._record(
                event.time,
                "event-monotonicity",
                f"event {event.kind} at t={event.time!r} after"
                f" t={self._last_event_time!r}",
                kind=event.kind,
            )
        else:
            self._last_event_time = event.time

    # -- task lifecycle ---------------------------------------------------------

    @staticmethod
    def _task_ident(fields: dict) -> Any:
        if fields.get("task") == "map":
            return fields.get("block")
        return fields.get("reduce_index")

    def _on_task_launch(self, event: ObsEvent) -> None:
        fields = event.fields
        job_id = fields.get("job_id")
        if job_id in self._failed_jobs:
            return
        node = fields.get("node")
        task = fields.get("task")
        ident = self._task_ident(fields)
        task_key = (job_id, task, ident)
        slot_key = (job_id, task, ident, node)
        speculative = bool(fields.get("speculative"))
        if slot_key in self._running:
            self._record(
                event.time,
                "task-lifecycle",
                f"double assignment: {task} task {ident!r} of job {job_id}"
                f" launched on node {node} while already running there",
                node=node,
            )
        elif self._running_by_task.get(task_key) and not speculative:
            others = sorted(self._running_by_task[task_key])
            self._record(
                event.time,
                "task-lifecycle",
                f"non-speculative {task} attempt of task {ident!r} (job {job_id})"
                f" launched on node {node} while running on node(s) {others}",
                node=node,
            )
        if self._tracker is not None and (
            node in self._tracker.failed_nodes
            or (self._runtime is not None and node in self._runtime.crash_times)
        ):
            self._record(
                event.time,
                "task-lifecycle",
                f"task launched on dead node {node}",
                node=node,
            )
        self._running[slot_key] = {"attempt": fields.get("attempt"), "speculative": speculative}
        self._running_by_task.setdefault(task_key, set()).add(node)
        counter_key = (node, task)
        count = self._node_running.get(counter_key, 0) + 1
        self._node_running[counter_key] = count
        capacity = (
            self._map_capacity.get(node) if task == "map" else self._reduce_capacity.get(node)
        )
        if capacity is not None and count > capacity:
            self._record(
                event.time,
                "slot-accounting",
                f"node {node} runs {count} {task} attempts with only"
                f" {capacity} {task} slot(s)",
                node=node,
            )

    def _forget_attempt(self, slot_key: tuple) -> dict | None:
        info = self._running.pop(slot_key, None)
        if info is None:
            return None
        job_id, task, ident, node = slot_key
        nodes = self._running_by_task.get((job_id, task, ident))
        if nodes is not None:
            nodes.discard(node)
            if not nodes:
                self._running_by_task.pop((job_id, task, ident), None)
        counter_key = (node, task)
        self._node_running[counter_key] = self._node_running.get(counter_key, 1) - 1
        return info

    def _on_task_terminal(self, event: ObsEvent, lenient: bool) -> None:
        fields = event.fields
        job_id = fields.get("job_id")
        node = fields.get("node")
        task = fields.get("task")
        ident = self._task_ident(fields)
        info = self._forget_attempt((job_id, task, ident, node))
        if info is None and not lenient and job_id not in self._failed_jobs:
            self._record(
                event.time,
                "task-lifecycle",
                f"{event.kind} for {task} task {ident!r} (job {job_id}) on node"
                f" {node} that has no running attempt -- terminated twice?",
                node=node,
            )

    def _on_task_finish(self, event: ObsEvent) -> None:
        self._on_task_terminal(event, lenient=False)

    def _on_task_kill(self, event: ObsEvent) -> None:
        self._on_task_terminal(event, lenient=False)

    def _on_task_requeue(self, event: ObsEvent) -> None:
        # A requeue is terminal only when the attempt is still running (the
        # degraded-fetch give-up path); after a kill or a crash the master
        # requeues an attempt the monitor already retired -- that is fine.
        self._on_task_terminal(event, lenient=True)

    def _on_job_fail(self, event: ObsEvent) -> None:
        job_id = event.fields.get("job_id")
        self._failed_jobs.add(job_id)
        # The master interrupts the job's attempts wholesale; the kills land
        # after this event, so retire them here and exempt stragglers.
        for slot_key in [key for key in self._running if key[0] == job_id]:
            self._forget_attempt(slot_key)

    # -- scheduler postconditions ----------------------------------------------

    def _on_sched_decision(self, event: ObsEvent) -> None:
        fields = event.fields
        action = fields.get("action")
        reason = fields.get("reason")
        if action == "assign" and reason == "degraded-first":
            self._check_pacing_assign(event)
            if "slave_ok" in fields:
                self._check_guard_assign(event)
        elif action == "skip-degraded" and reason == "pacing":
            self._check_pacing_skip(event)
        elif action == "skip-degraded" and reason in ("slave-guard", "rack-guard"):
            self._check_guard_skip(event)

    @staticmethod
    def _pacing_values(fields: dict):
        values = tuple(fields.get(name) for name in ("m", "M", "m_d", "M_d"))
        return None if any(value is None for value in values) else values

    def _check_pacing_assign(self, event: ObsEvent) -> None:
        values = self._pacing_values(event.fields)
        if values is None:
            return
        m, M, m_d, M_d = values  # noqa: N806 - paper notation
        if M_d == 0 or m * M_d < m_d * M:
            self._record(
                event.time,
                "bdf-pacing",
                f"degraded launch violates m/M >= m_d/M_d:"
                f" m={m} M={M} m_d={m_d} M_d={M_d}",
                node=event.fields.get("node"),
                job_id=event.fields.get("job_id"),
            )

    def _check_pacing_skip(self, event: ObsEvent) -> None:
        values = self._pacing_values(event.fields)
        if values is None:
            return
        m, M, m_d, M_d = values  # noqa: N806 - paper notation
        if M_d != 0 and m * M_d >= m_d * M:
            self._record(
                event.time,
                "bdf-pacing",
                f"degraded launch skipped as 'pacing' although m/M >= m_d/M_d"
                f" holds: m={m} M={M} m_d={m_d} M_d={M_d}",
                node=event.fields.get("node"),
                job_id=event.fields.get("job_id"),
            )

    def _check_guard_assign(self, event: ObsEvent) -> None:
        fields = event.fields
        if not fields.get("slave_ok") or not fields.get("rack_ok"):
            self._record(
                event.time,
                "edf-guard",
                "degraded task assigned although a guard rejected"
                f" (slave_ok={fields.get('slave_ok')} rack_ok={fields.get('rack_ok')})",
                node=fields.get("node"),
            )
        self._check_guard_consistency(event)

    def _check_guard_skip(self, event: ObsEvent) -> None:
        fields = event.fields
        reason = fields.get("reason")
        rejected_by = fields.get("rejected_by")
        if reason == "slave-guard" and (rejected_by != "slave" or fields.get("slave_ok")):
            self._record(
                event.time,
                "edf-guard",
                f"skip blamed on the slave guard but slave_ok="
                f"{fields.get('slave_ok')} rejected_by={rejected_by!r}",
                node=fields.get("node"),
            )
        if reason == "rack-guard" and (
            rejected_by != "rack" or fields.get("rack_ok") or not fields.get("slave_ok")
        ):
            self._record(
                event.time,
                "edf-guard",
                f"skip blamed on the rack guard but slave_ok={fields.get('slave_ok')}"
                f" rack_ok={fields.get('rack_ok')} rejected_by={rejected_by!r}",
                node=fields.get("node"),
            )
        self._check_guard_consistency(event)

    def _check_guard_consistency(self, event: ObsEvent) -> None:
        """The traced guard verdicts must match the traced quantities.

        Each guard is checked independently, and only when its quantities
        are present: the ablation variants (``EDF-SLAVE`` / ``EDF-RACK``)
        disable one guard and omit its quantities from the trace -- a
        verdict with no quantities behind it is "guard disabled", not an
        inconsistency.
        """
        fields = event.fields
        if all(name in fields for name in ("t_s", "mean_t_s", "slave_ok")):
            expected_slave = fields["t_s"] <= fields["mean_t_s"] + _GUARD_EPS
            if bool(fields["slave_ok"]) != expected_slave:
                self._record(
                    event.time,
                    "edf-guard",
                    f"ASSIGNTOSLAVE verdict {fields['slave_ok']} inconsistent with"
                    f" t_s={fields['t_s']!r} E[t_s]={fields['mean_t_s']!r}",
                    node=fields.get("node"),
                )
        if all(name in fields for name in ("t_r", "mean_t_r", "rack_threshold", "rack_ok")):
            expected_rack = fields["t_r"] >= min(fields["mean_t_r"], fields["rack_threshold"])
            if bool(fields["rack_ok"]) != expected_rack:
                self._record(
                    event.time,
                    "edf-guard",
                    f"ASSIGNTORACK verdict {fields['rack_ok']} inconsistent with"
                    f" t_r={fields['t_r']!r} E[t_r]={fields['mean_t_r']!r}"
                    f" threshold={fields['rack_threshold']!r}",
                    node=fields.get("node"),
                )

    # -- stripe conservation -----------------------------------------------------

    def _stripe_of(self, fields: dict) -> BlockId | None:
        if self._block_map is None:
            return None
        name = fields.get("block")
        if not isinstance(name, str):
            return None
        return _parse_block(name, self._block_map.params.k)

    def _on_degraded_start(self, event: ObsEvent) -> None:
        if self._block_map is None:
            return
        surviving = event.fields.get("surviving_blocks")
        k = self._block_map.params.k
        if surviving is not None and surviving < k:
            self._record(
                event.time,
                "stripe-conservation",
                f"degraded read planned with {surviving} sources, fewer than k={k}",
                block=event.fields.get("block"),
                node=event.fields.get("node"),
            )

    def _on_degraded_park(self, event: ObsEvent) -> None:
        block = self._stripe_of(event.fields)
        if block is None or self._tracker is None:
            return
        dead = set(self._tracker.failed_nodes)
        if self._runtime is not None:
            dead |= set(self._runtime.crash_times)
        if self._block_map.is_decodable(block.stripe_id, dead):
            self._record(
                event.time,
                "stripe-conservation",
                f"task parked on stripe {block.stripe_id} although it is still"
                f" decodable under the dead set {sorted(dead)}",
                block=event.fields.get("block"),
                node=event.fields.get("node"),
            )

    def _dead_and_blacklisted(self) -> set[int]:
        dead = set(self._tracker.failed_nodes) | set(self._tracker.blacklisted)
        if self._runtime is not None:
            dead |= set(self._runtime.crash_times)
        return dead

    def _on_repair_start(self, event: ObsEvent) -> None:
        fields = event.fields
        block = self._stripe_of(fields)
        if block is None or self._tracker is None:
            return
        sources = fields.get("sources") or []
        destination = fields.get("destination")
        k = self._block_map.params.k
        # The emitted sources are the network transfers only; readable
        # same-stripe units already on the destination are fetched locally
        # and still count toward the k the decode needs.
        local = sum(
            1
            for stored in self._block_map.readable_stripe_blocks(
                block.stripe_id, self._tracker.failed_nodes
            )
            if stored.node_id == destination and stored.block != block
        )
        if len(sources) + local < k:
            self._record(
                event.time,
                "stripe-conservation",
                f"repair launched with {len(sources)} remote + {local} local"
                f" source(s), fewer than k={k}",
                block=fields.get("block"),
            )
        # The planner only doubles up (destination already inside the
        # stripe) when every live, non-blacklisted node holds a same-stripe
        # unit; remember that so repair.end can exempt it.
        stripe_nodes = {
            stored.node_id
            for stored in self._block_map.stripe_blocks(block.stripe_id)
            if stored.block != block
        }
        stripe_nodes |= {
            other_destination
            for name, (stripe, other_destination) in self._repairing.items()
            if stripe == block.stripe_id and name != str(block)
        }
        self._repairing[str(block)] = (block.stripe_id, destination)
        unavailable = self._dead_and_blacklisted()
        live = {
            node.node_id
            for node in self._tracker.topology.nodes
            if node.node_id not in unavailable
        }
        if live and live <= stripe_nodes:
            self._forced_doubleup.add(str(block))
        # Sources are per-block transfers, so a node may repeat — but only
        # as many times as it actually holds distinct readable same-stripe
        # units (it can after a forced double-up on an earlier repair).
        held: dict[int, int] = {}
        for stored in self._block_map.readable_stripe_blocks(
            block.stripe_id, self._tracker.failed_nodes
        ):
            if stored.block != block:
                held[stored.node_id] = held.get(stored.node_id, 0) + 1
        drawn: dict[int, int] = {}
        for source in sources:
            drawn[source] = drawn.get(source, 0) + 1
        for source, count in drawn.items():
            if count > held.get(source, 0):
                self._record(
                    event.time,
                    "stripe-conservation",
                    f"repair draws {count} source unit(s) from node {source},"
                    f" which holds only {held.get(source, 0)} readable"
                    f" same-stripe unit(s)",
                    block=fields.get("block"),
                )
        if fields.get("destination") in sources:
            self._record(
                event.time,
                "stripe-conservation",
                f"repair destination {fields.get('destination')} is also a source",
                block=fields.get("block"),
            )

    def _on_repair_end(self, event: ObsEvent) -> None:
        block = self._stripe_of(event.fields)
        if block is None:
            return
        destination = event.fields.get("destination")
        forced = str(block) in self._forced_doubleup
        self._forced_doubleup.discard(str(block))
        self._repairing.pop(str(block), None)
        for stored in self._block_map.stripe_blocks(block.stripe_id):
            if stored.block == block:
                if stored.node_id != destination:
                    self._record(
                        event.time,
                        "stripe-conservation",
                        f"repaired block {block} recorded on node {stored.node_id},"
                        f" not the repair destination {destination}",
                        block=str(block),
                    )
            elif stored.node_id == destination and not forced:
                self._record(
                    event.time,
                    "stripe-conservation",
                    f"repair landed {block} on node {destination} which already"
                    f" holds same-stripe unit {stored.block} although another"
                    f" live node held none of this stripe",
                    block=str(block),
                    node=destination,
                )
        if self._block_map.is_corrupt(block):
            self._record(
                event.time,
                "stripe-conservation",
                f"block {block} still marked corrupt after repair",
                block=str(block),
            )

    def _on_repair_backlog(self, event: ObsEvent) -> None:
        fields = event.fields
        depth = fields.get("depth")
        if depth is None:
            return
        queued, in_flight = fields.get("queued"), fields.get("in_flight")
        if depth < 0:
            self._record(
                event.time,
                "backlog-boundedness",
                f"repair backlog depth {depth} is negative",
            )
        if queued is not None and in_flight is not None and depth != queued + in_flight:
            self._record(
                event.time,
                "backlog-boundedness",
                f"repair backlog depth {depth} != queued {queued}"
                f" + in-flight {in_flight}",
            )
        if self._block_map is not None:
            total = self._block_map.num_stripes * self._block_map.params.n
            if depth > total:
                self._record(
                    event.time,
                    "backlog-boundedness",
                    f"repair backlog depth {depth} exceeds the {total} stored"
                    " blocks -- a block is queued more than once",
                )

    def _on_block_corrupt(self, event: ObsEvent) -> None:
        block = self._stripe_of(event.fields)
        if block is None:
            return
        if not self._block_map.is_corrupt(block):
            self._record(
                event.time,
                "stripe-conservation",
                f"corruption reported for {block} but the block map holds it clean",
                block=str(block),
            )

    def _on_heartbeat(self, event: ObsEvent) -> None:
        if self._tracker is None:
            return
        node = event.fields.get("node")
        if node in self._tracker.failed_nodes or (
            self._runtime is not None and node in self._runtime.crash_times
        ):
            self._record(
                event.time,
                "task-lifecycle",
                f"heartbeat received from dead node {node}",
                node=node,
            )


_HANDLERS = {
    "task.launch": InvariantMonitor._on_task_launch,
    "task.finish": InvariantMonitor._on_task_finish,
    "task.kill": InvariantMonitor._on_task_kill,
    "task.requeue": InvariantMonitor._on_task_requeue,
    "job.fail": InvariantMonitor._on_job_fail,
    "sched.decision": InvariantMonitor._on_sched_decision,
    "degraded.start": InvariantMonitor._on_degraded_start,
    "degraded.park": InvariantMonitor._on_degraded_park,
    "repair.start": InvariantMonitor._on_repair_start,
    "repair.end": InvariantMonitor._on_repair_end,
    "repair.backlog": InvariantMonitor._on_repair_backlog,
    "block.corrupt": InvariantMonitor._on_block_corrupt,
    "heartbeat": InvariantMonitor._on_heartbeat,
}
