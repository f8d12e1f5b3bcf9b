"""Unit tests for the invariant monitor, fed synthetic events.

Each test drives :class:`InvariantMonitor` directly through its bus and
observer-protocol entry points -- no simulator -- so every check can be
exercised in isolation, both ways: a legal sequence records nothing, the
matching illegal sequence records exactly the expected invariant.
"""

from __future__ import annotations

import pickle

import pytest

from repro.check.invariants import (
    _HANDLERS,
    MAX_VIOLATIONS,
    InvariantMonitor,
    InvariantViolation,
    InvariantViolationError,
    render_report,
)


def kinds(monitor: InvariantMonitor) -> list[str]:
    return [violation.invariant for violation in monitor.violations]


def launch(monitor, time=1.0, *, job_id=0, node=0, task="map",
           block="B_{0,0}", reduce_index=None, speculative=False, attempt=1):
    fields = {"job_id": job_id, "node": node, "task": task,
              "speculative": speculative, "attempt": attempt}
    if task == "map":
        fields["block"] = block
    else:
        fields["reduce_index"] = reduce_index
    monitor.bus.emit("task.launch", time, **fields)


def finish(monitor, time=2.0, *, job_id=0, node=0, task="map",
           block="B_{0,0}", reduce_index=None):
    fields = {"job_id": job_id, "node": node, "task": task}
    if task == "map":
        fields["block"] = block
    else:
        fields["reduce_index"] = reduce_index
    monitor.bus.emit("task.finish", time, **fields)


class TestSlotAccounting:
    def test_legal_occupancy_is_clean(self):
        monitor = InvariantMonitor()
        monitor.slot_changed(1.0, "map:0", 2, 2, 1)
        monitor.slot_changed(2.0, "map:0", 1, 2, 0)
        assert monitor.violations == []

    def test_occupancy_above_capacity(self):
        monitor = InvariantMonitor()
        monitor.slot_changed(1.0, "map:0", 3, 2, 0)
        assert kinds(monitor) == ["slot-accounting"]

    def test_negative_occupancy(self):
        monitor = InvariantMonitor()
        monitor.slot_changed(1.0, "map:0", -1, 2, 0)
        assert kinds(monitor) == ["slot-accounting"]

    def test_waiters_queued_with_free_slots(self):
        monitor = InvariantMonitor()
        monitor.slot_changed(1.0, "map:0", 1, 2, 3)
        assert kinds(monitor) == ["slot-accounting"]
        assert "queued waiter" in monitor.violations[0].message


class TestLinkCapacity:
    def test_allocation_within_capacity_is_clean(self):
        monitor = InvariantMonitor()
        monitor.register_links({"up:0": 1e9})
        monitor.rates_updated(1.0, {"up:0": 1e9})  # exactly full is fine
        assert monitor.violations == []

    def test_oversubscribed_link(self):
        monitor = InvariantMonitor()
        monitor.register_links({"up:0": 1e9})
        monitor.rates_updated(1.0, {"up:0": 1.5e9})
        assert kinds(monitor) == ["link-capacity"]
        assert monitor.violations[0].details["link"] == "up:0"

    def test_float_slack_tolerated(self):
        monitor = InvariantMonitor()
        monitor.register_links({"up:0": 1e9})
        monitor.rates_updated(1.0, {"up:0": 1e9 * (1 + 1e-12)})
        assert monitor.violations == []

    def test_unregistered_link(self):
        monitor = InvariantMonitor()
        monitor.flow_started(1.0, ("ghost:9",), 64.0)
        monitor.rates_updated(1.0, {"ghost:9": 10.0})
        assert kinds(monitor) == ["link-capacity", "link-capacity"]


class TestTaskLifecycle:
    def test_launch_then_finish_is_clean(self):
        monitor = InvariantMonitor()
        launch(monitor, 1.0)
        finish(monitor, 2.0)
        assert monitor.violations == []

    def test_double_assignment_same_node(self):
        monitor = InvariantMonitor()
        launch(monitor, 1.0)
        launch(monitor, 2.0)
        assert "task-lifecycle" in kinds(monitor)
        assert "double assignment" in monitor.violations[0].message

    def test_concurrent_attempt_must_be_speculative(self):
        monitor = InvariantMonitor()
        launch(monitor, 1.0, node=0)
        launch(monitor, 2.0, node=1)  # second non-speculative attempt
        assert kinds(monitor) == ["task-lifecycle"]
        assert "non-speculative" in monitor.violations[0].message

    def test_speculative_second_attempt_is_clean(self):
        monitor = InvariantMonitor()
        launch(monitor, 1.0, node=0)
        launch(monitor, 2.0, node=1, speculative=True, attempt=2)
        finish(monitor, 3.0, node=1)
        monitor.bus.emit("task.kill", 3.0, job_id=0, node=0, task="map",
                         block="B_{0,0}")
        assert monitor.violations == []

    def test_double_termination(self):
        monitor = InvariantMonitor()
        launch(monitor, 1.0)
        finish(monitor, 2.0)
        finish(monitor, 3.0)
        assert kinds(monitor) == ["task-lifecycle"]
        assert "terminated twice" in monitor.violations[0].message

    def test_requeue_after_kill_is_lenient(self):
        monitor = InvariantMonitor()
        launch(monitor, 1.0)
        monitor.bus.emit("task.kill", 2.0, job_id=0, node=0, task="map",
                         block="B_{0,0}")
        monitor.bus.emit("task.requeue", 2.0, job_id=0, node=0, task="map",
                         block="B_{0,0}")
        assert monitor.violations == []

    def test_job_fail_retires_its_attempts(self):
        monitor = InvariantMonitor()
        launch(monitor, 1.0)
        monitor.bus.emit("job.fail", 2.0, job_id=0)
        # The master's teardown kill arrives after job.fail; no complaint.
        monitor.bus.emit("task.kill", 2.0, job_id=0, node=0, task="map",
                         block="B_{0,0}")
        assert monitor.violations == []

    def test_reduce_tasks_keyed_by_index(self):
        monitor = InvariantMonitor()
        launch(monitor, 1.0, task="reduce", reduce_index=0)
        launch(monitor, 1.5, task="reduce", reduce_index=1)  # distinct task
        finish(monitor, 2.0, task="reduce", reduce_index=0)
        finish(monitor, 2.5, task="reduce", reduce_index=1)
        assert monitor.violations == []


class TestBdfPacing:
    def assign(self, monitor, time=1.0, **quantities):
        monitor.bus.emit("sched.decision", time, action="assign",
                         reason="degraded-first", node=1, job_id=0, **quantities)

    def skip(self, monitor, time=1.0, **quantities):
        monitor.bus.emit("sched.decision", time, action="skip-degraded",
                         reason="pacing", node=1, job_id=0, **quantities)

    def test_legal_degraded_launch(self):
        monitor = InvariantMonitor()
        self.assign(monitor, m=4, M=10, m_d=1, M_d=4)  # 4/10 >= 1/4
        assert monitor.violations == []

    def test_pacing_inequality_violated(self):
        monitor = InvariantMonitor()
        self.assign(monitor, m=1, M=10, m_d=3, M_d=4)  # 1/10 < 3/4
        assert kinds(monitor) == ["bdf-pacing"]

    def test_launch_with_no_degraded_tasks_left(self):
        monitor = InvariantMonitor()
        self.assign(monitor, m=4, M=10, m_d=0, M_d=0)
        assert kinds(monitor) == ["bdf-pacing"]

    def test_legal_pacing_skip(self):
        monitor = InvariantMonitor()
        self.skip(monitor, m=1, M=10, m_d=3, M_d=4)
        assert monitor.violations == []

    def test_spurious_pacing_skip(self):
        monitor = InvariantMonitor()
        self.skip(monitor, m=4, M=10, m_d=1, M_d=4)  # pacing actually allows
        assert kinds(monitor) == ["bdf-pacing"]


class TestEdfGuards:
    GOOD = {"t_s": 3.0, "mean_t_s": 4.0, "slave_ok": True,
            "t_r": 5.0, "mean_t_r": 4.0, "rack_threshold": 6.0, "rack_ok": True}

    def test_consistent_assign(self):
        monitor = InvariantMonitor()
        monitor.bus.emit("sched.decision", 1.0, action="assign",
                         reason="degraded-first", node=1, **self.GOOD)
        assert monitor.violations == []

    def test_assign_despite_rejecting_guard(self):
        monitor = InvariantMonitor()
        fields = dict(self.GOOD, slave_ok=False, t_s=9.0)
        monitor.bus.emit("sched.decision", 1.0, action="assign",
                         reason="degraded-first", node=1, **fields)
        assert kinds(monitor) == ["edf-guard"]

    def test_verdict_inconsistent_with_quantities(self):
        monitor = InvariantMonitor()
        fields = dict(self.GOOD, t_s=9.0)  # t_s > E[t_s] but slave_ok=True
        monitor.bus.emit("sched.decision", 1.0, action="assign",
                         reason="degraded-first", node=1, **fields)
        assert kinds(monitor) == ["edf-guard"]

    def test_skip_blames_wrong_guard(self):
        monitor = InvariantMonitor()
        fields = dict(self.GOOD, rejected_by="rack")  # but both guards pass
        monitor.bus.emit("sched.decision", 1.0, action="skip-degraded",
                         reason="slave-guard", node=1, **fields)
        assert "edf-guard" in kinds(monitor)

    def test_legal_slave_guard_skip(self):
        monitor = InvariantMonitor()
        fields = dict(self.GOOD, slave_ok=False, t_s=9.0, rejected_by="slave")
        monitor.bus.emit("sched.decision", 1.0, action="skip-degraded",
                         reason="slave-guard", node=1, **fields)
        assert monitor.violations == []


class TestEventMonotonicity:
    def test_forward_time_is_clean(self):
        monitor = InvariantMonitor()
        monitor.bus.emit("heartbeat", 1.0, node=0, map_slots_free=1)
        monitor.bus.emit("heartbeat", 1.0, node=1, map_slots_free=1)
        monitor.bus.emit("heartbeat", 2.0, node=0, map_slots_free=1)
        assert monitor.violations == []

    def test_backwards_event_time(self):
        monitor = InvariantMonitor()
        monitor.bus.emit("job.submit", 5.0, job_id=0)
        monitor.bus.emit("job.submit", 4.0, job_id=1)
        assert kinds(monitor) == ["event-monotonicity"]

    def test_backwards_dispatch_time(self):
        monitor = InvariantMonitor()
        monitor.on_dispatch(5.0)
        monitor.on_dispatch(4.0)
        assert kinds(monitor) == ["event-monotonicity"]

    def test_a_kind_no_check_subscribes_to_is_still_ordered(self):
        # The per-kind checks are subscribed per kind; ordering alone rides
        # the wildcard, so it must see kinds nothing else listens to.
        assert "shuffle.drain" not in _HANDLERS and "flow.end" not in _HANDLERS
        monitor = InvariantMonitor()
        monitor.bus.emit("heartbeat", 5.0, node=0)  # a kind with a check
        monitor.bus.emit("shuffle.drain", 4.0, job_id=0, reduce_index=1)
        monitor.flow_finished(3.0, ("rack0:up",), 64.0, 1.0)  # via the collector
        assert kinds(monitor) == ["event-monotonicity"] * 2
        assert [v.details["kind"] for v in monitor.violations] == [
            "shuffle.drain", "flow.end"
        ]
        # The clock did not move back: t=4.5 is still out of order.
        monitor.bus.emit("job.submit", 4.5, job_id=1)
        assert len(monitor.violations) == 3


class TestRunawayBounds:
    def test_dispatch_bound_raises(self):
        monitor = InvariantMonitor(max_dispatch=3)
        with pytest.raises(InvariantViolationError) as excinfo:
            for step in range(10):
                monitor.on_dispatch(float(step))
        assert excinfo.value.violations[0].invariant == "runaway"

    def test_sim_time_bound_raises(self):
        monitor = InvariantMonitor(max_sim_time=10.0)
        monitor.on_dispatch(5.0)
        with pytest.raises(InvariantViolationError):
            monitor.on_dispatch(11.0)


class TestReporting:
    def test_violation_cap_counts_overflow(self):
        monitor = InvariantMonitor()
        for step in range(MAX_VIOLATIONS + 3):
            monitor.slot_changed(float(step), "map:0", 9, 2, 0)
        assert len(monitor.violations) == MAX_VIOLATIONS
        assert monitor.dropped_violations == 3

    def test_violations_past_the_cap_are_reported(self):
        monitor = InvariantMonitor()
        for step in range(MAX_VIOLATIONS + 4800):
            monitor.slot_changed(float(step), "map:0", 9, 2, 0)
        header = f"{MAX_VIOLATIONS} violation(s), 4800 more not recorded"
        assert monitor.report().splitlines()[0] == f"== sanitizer report: {header} =="
        with pytest.raises(InvariantViolationError) as excinfo:
            monitor.raise_if_violations()
        error = excinfo.value
        assert error.dropped == 4800
        assert str(error).startswith(
            f"{MAX_VIOLATIONS} invariant violation(s), 4800 more not recorded; first: "
        )
        assert header in error.report()
        # The count crosses a process pool with the error.
        clone = pickle.loads(pickle.dumps(error))
        assert clone.dropped == 4800
        assert str(clone) == str(error)
        assert clone.report() == error.report()

    def test_a_runaway_abort_carries_the_dropped_count(self):
        monitor = InvariantMonitor(max_dispatch=1)
        for step in range(MAX_VIOLATIONS + 2):
            monitor.slot_changed(float(step), "map:0", 9, 2, 0)
        monitor.on_dispatch(1.0)
        with pytest.raises(InvariantViolationError) as excinfo:
            monitor.on_dispatch(2.0)
        assert excinfo.value.dropped == 3

    def test_render_report_groups_by_invariant(self):
        violations = [
            InvariantViolation(1.0, "slot-accounting", "a"),
            InvariantViolation(2.0, "slot-accounting", "b"),
            InvariantViolation(3.0, "bdf-pacing", "c"),
        ]
        report = render_report(violations, 0)
        assert "3 violation(s)" in report
        assert report.index("slot-accounting: 2") < report.index("bdf-pacing: 1")

    def test_render_report_empty(self):
        assert "no violations" in render_report([], 0)

    def test_raise_if_violations_carries_result(self):
        monitor = InvariantMonitor()
        monitor.slot_changed(1.0, "map:0", 9, 2, 0)
        with pytest.raises(InvariantViolationError) as excinfo:
            monitor.raise_if_violations(result="sentinel")
        assert excinfo.value.result == "sentinel"
        assert "slot-accounting" in excinfo.value.report()

    def test_error_survives_pickling(self):
        error = InvariantViolationError(
            [InvariantViolation(1.0, "slot-accounting", "broken", {"node": 3})]
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.violations == error.violations
        assert "slot-accounting" in str(clone)

    def test_clean_monitor_does_not_raise(self):
        monitor = InvariantMonitor()
        monitor.raise_if_violations()
        assert "no violations" in monitor.report()
