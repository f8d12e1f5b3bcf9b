"""Unit tests for the observability layer (:mod:`repro.obs`)."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    EventBus,
    MetricsRegistry,
    ObsEvent,
    ObservabilityCollector,
    Profiler,
    TimeWeightedSeries,
    WILDCARD,
    events_jsonl,
    read_events_jsonl,
    sanitize,
)


# -- event bus -----------------------------------------------------------------


class TestEventBus:
    def test_emit_returns_event_with_payload(self):
        bus = EventBus()
        event = bus.emit("task.launch", 3.5, node=7, kind="map")
        assert event.time == 3.5
        assert event.kind == "task.launch"
        assert event.fields == {"node": 7, "kind": "map"}

    def test_to_dict_is_flat_with_reserved_keys(self):
        bus = EventBus()
        event = bus.emit("heartbeat", 1.0, node=2, free_map=4)
        assert event.to_dict() == {
            "t": 1.0, "kind": "heartbeat", "node": 2, "free_map": 4
        }

    def test_kind_specific_subscription(self):
        bus = EventBus()
        seen = []
        bus.subscribe("heartbeat", seen.append)
        bus.emit("heartbeat", 0.0, node=1)
        bus.emit("task.launch", 0.0, node=1)
        assert [event.kind for event in seen] == ["heartbeat"]

    def test_wildcard_sees_everything_after_specific(self):
        bus = EventBus()
        order = []
        bus.subscribe("a", lambda e: order.append("specific"))
        bus.subscribe(WILDCARD, lambda e: order.append("wildcard"))
        bus.emit("a", 0.0)
        bus.emit("b", 0.0)
        assert order == ["specific", "wildcard", "wildcard"]

    def test_counts_and_emitted(self):
        bus = EventBus()
        for _ in range(3):
            bus.emit("a", 0.0)
        bus.emit("b", 1.0)
        assert bus.emitted == 4
        assert bus.counts == {"a": 3, "b": 1}

    def test_reserved_keys_win_in_flat_form(self):
        bus = EventBus()
        event = bus.emit("task.kill", 2.0, kind="reduce", t="not-a-clock")
        assert event.fields["kind"] == "reduce"
        # The flat form never loses the event's own kind/timestamp.
        assert event.to_dict()["kind"] == "task.kill"
        assert event.to_dict()["t"] == 2.0
        # ... and the shadowing survives the JSONL round trip unchanged.
        (parsed,) = read_events_jsonl(events_jsonl([event]))
        assert parsed == ObsEvent(time=2.0, kind="task.kill", fields={})

    def test_dispatch_is_specific_then_wildcard_each_in_registration_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(WILDCARD, lambda e: order.append("wild-1"))
        bus.subscribe("a", lambda e: order.append("a-1"))
        bus.subscribe(WILDCARD, lambda e: order.append("wild-2"))
        bus.subscribe("a", lambda e: order.append("a-2"))
        bus.subscribe("b", lambda e: order.append("b-1"))
        bus.emit("a", 0.0)
        assert order == ["a-1", "a-2", "wild-1", "wild-2"]

    def test_subscribe_after_first_emit_is_honoured(self):
        bus = EventBus()
        seen = []
        bus.emit("a", 0.0)  # routes "a" with no subscriber at all
        bus.subscribe("a", lambda e: seen.append(("a", e.time)))
        bus.emit("a", 1.0)
        bus.subscribe(WILDCARD, lambda e: seen.append(("*", e.time)))
        bus.emit("a", 2.0)
        bus.emit("b", 2.0)
        assert seen == [("a", 1.0), ("a", 2.0), ("*", 2.0), ("*", 2.0)]

    def test_counts_survive_route_invalidation(self):
        bus = EventBus()
        bus.emit("a", 0.0)
        bus.emit("b", 0.0)
        bus.subscribe("a", lambda e: None)
        bus.emit("a", 1.0)
        bus.emit("c", 1.0)
        assert bus.emitted == 4
        assert bus.counts == {"a": 2, "b": 1, "c": 1}
        assert list(bus.counts) == ["a", "b", "c"]  # first-emission order

    def test_every_subscriber_shares_the_returned_event(self):
        bus = EventBus()
        seen = []
        bus.subscribe("a", seen.append)
        bus.subscribe(WILDCARD, seen.append)
        event = bus.emit("a", 0.0, node=1)
        assert seen[0] is event and seen[1] is event


class TestObsEvent:
    def test_constructor_positional_keyword_and_default_fields(self):
        assert ObsEvent(1.0, "a", {"n": 1}) == ObsEvent(time=1.0, kind="a", fields={"n": 1})
        first, second = ObsEvent(1.0, "a"), ObsEvent(1.0, "a")
        assert first.fields == {} and first.fields is not second.fields

    def test_equality_is_by_value_over_all_three_parts(self):
        event = ObsEvent(1.0, "a", {"n": 1})
        assert event == ObsEvent(1.0, "a", {"n": 1})
        assert event != ObsEvent(2.0, "a", {"n": 1})
        assert event != ObsEvent(1.0, "b", {"n": 1})
        assert event != ObsEvent(1.0, "a", {"n": 2})
        assert event != (1.0, "a", {"n": 1})
        with pytest.raises(TypeError):
            hash(event)  # a payload dict inside: never hashable

    def test_repr_reads_like_the_constructor_call(self):
        event = ObsEvent(1.5, "task.launch", {"node": 7})
        assert repr(event) == "ObsEvent(time=1.5, kind='task.launch', fields={'node': 7})"
        assert eval(repr(event)) == event

    def test_no_per_instance_dict(self):
        assert not hasattr(ObsEvent(0.0, "a"), "__dict__")

    def test_jsonl_round_trip(self):
        events = [
            ObsEvent(0.0, "flow.start", {"links": ["a", "b"], "size": 3.0}),
            ObsEvent(1.25, "heartbeat", {"node": 2}),
        ]
        assert read_events_jsonl(events_jsonl(events)) == events


# -- metrics primitives --------------------------------------------------------


class TestMetricsRegistry:
    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.time_series("z") is registry.time_series("z")


class TestTimeWeightedSeries:
    def test_integral_of_piecewise_constant_steps(self):
        series = TimeWeightedSeries("slots")
        series.record(0.0, 2.0)
        series.record(4.0, 1.0)
        series.record(6.0, 0.0)
        # 2 for 4s, then 1 for 2s: integral over [0, 10] = 8 + 2 + 0.
        assert series.integral(0.0, 10.0) == pytest.approx(10.0)
        assert series.average(0.0, 10.0) == pytest.approx(1.0)

    def test_windowed_integral_splits_segments(self):
        series = TimeWeightedSeries("slots")
        series.record(0.0, 4.0)
        series.record(10.0, 0.0)
        assert series.integral(5.0, 15.0) == pytest.approx(20.0)
        assert series.average(5.0, 15.0) == pytest.approx(2.0)

    def test_same_time_overwrites(self):
        series = TimeWeightedSeries("slots")
        series.record(1.0, 5.0)
        series.record(1.0, 9.0)
        assert series.value == 9.0
        # Initial breakpoint plus the single (collapsed) change at t=1.
        assert series.samples == [(0.0, 0.0), (1.0, 9.0)]

    def test_same_value_collapses(self):
        series = TimeWeightedSeries("slots")
        series.record(0.0, 3.0)  # overwrites the initial breakpoint
        series.record(2.0, 3.0)  # no change: dropped
        assert series.samples == [(0.0, 3.0)]

    def test_backwards_time_raises(self):
        series = TimeWeightedSeries("slots")
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 2.0)

    def test_peak(self):
        series = TimeWeightedSeries("slots")
        series.record(0.0, 1.0)
        series.record(1.0, 6.0)
        series.record(2.0, 2.0)
        assert series.peak() == 6.0

    def test_empty_series(self):
        series = TimeWeightedSeries("slots")
        assert series.integral(0.0, 10.0) == 0.0
        assert series.average(0.0, 10.0) == 0.0
        assert series.peak() == 0.0


# -- profiler ------------------------------------------------------------------


class TestProfiler:
    def test_span_accumulates_wall_clock(self):
        profiler = Profiler()
        with profiler.span("setup"):
            pass
        with profiler.span("setup"):
            pass
        assert profiler.spans["setup"] >= 0.0

    def test_events_per_second(self):
        profiler = Profiler()
        profiler.spans["run"] = 2.0
        profiler.events_dispatched = 1000
        assert profiler.events_per_second == pytest.approx(500.0)

    def test_report_and_render(self):
        profiler = Profiler()
        with profiler.span("run"):
            pass
        profiler.events_dispatched = 10
        rendered = profiler.render()
        assert "run" in rendered
        assert "engine callbacks dispatched: 10" in rendered


# -- exporters -----------------------------------------------------------------


class TestExport:
    def test_sanitize_replaces_non_finite(self):
        payload = {"a": math.nan, "b": [1.0, math.inf], "c": {"d": -math.inf}}
        assert sanitize(payload) == {"a": None, "b": [1.0, None], "c": {"d": None}}

    def test_events_jsonl_is_strict_json(self):
        bus = EventBus()
        events = [
            bus.emit("a", 0.0, value=math.nan),
            bus.emit("b", 1.0, node=3),
        ]
        text = events_jsonl(events)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["value"] is None
        assert json.loads(lines[1]) == {"t": 1.0, "kind": "b", "node": 3}
        assert "NaN" not in text


# -- collector -----------------------------------------------------------------


class TestCollector:
    def test_collects_events_and_counts(self):
        collector = ObservabilityCollector()
        collector.bus.emit("heartbeat", 0.0, node=1, assigned_maps=0,
                           assigned_reduces=0)
        collector.bus.emit("task.launch", 0.0, node=1)
        assert [event.kind for event in collector.events] == [
            "heartbeat", "task.launch"
        ]

    def test_decision_trace_recorded(self):
        collector = ObservabilityCollector()
        collector.bus.emit(
            "sched.decision", 1.0,
            scheduler="EDF", node=4, job_id=0, action="assign",
            reason="degraded-first", m=1, M=10, m_d=1, M_d=2,
        )
        assert len(collector.decisions) == 1
        decision = collector.decisions[0]
        assert decision.fields["reason"] == "degraded-first"
        assert collector.decision_counts[("assign", "degraded-first")] == 1

    def test_heartbeat_latency_needs_previous_beat(self):
        collector = ObservabilityCollector()
        collector.bus.emit("heartbeat", 0.0, node=1, assigned_maps=1,
                           assigned_reduces=0)
        assert collector.heartbeat_latencies == []  # first beat: no baseline
        collector.bus.emit("heartbeat", 3.0, node=1, assigned_maps=2,
                           assigned_reduces=0)
        assert collector.heartbeat_latencies == [pytest.approx(3.0)]

    def test_slot_observer_feeds_series(self):
        collector = ObservabilityCollector()
        collector.slot_changed(0.0, "map:1", 2, 4, 0)
        collector.slot_changed(5.0, "map:1", 0, 4, 1)
        collector.finalize(10.0)
        series = collector.registry.time_series("slot.map:1")
        assert series.average(0.0, 10.0) == pytest.approx(1.0)

    def test_link_observer_normalises_by_capacity(self):
        collector = ObservabilityCollector()
        collector.register_links({"rack0:up": 100.0})
        collector.rates_updated(0.0, {"rack0:up": 50.0})
        collector.rates_updated(4.0, {})
        collector.finalize(8.0)
        series = collector.registry.time_series("link.rack0:up")
        assert series.average(0.0, 8.0) == pytest.approx(0.25)

    def test_utilization_report_renders(self):
        collector = ObservabilityCollector()
        collector.slot_changed(0.0, "map:0", 1, 2, 0)
        collector.finalize(2.0)
        report = collector.render_utilization_report()
        assert "map slots" in report
        assert "observability events" in report

    def test_every_registered_link_owns_a_series_busy_or_not(self):
        collector = ObservabilityCollector()
        collector.register_links({"a": 10.0, "b": 10.0})
        collector.rates_updated(1.0, {"a": 5.0})
        collector.finalize(2.0)
        assert collector.registry.series["link.b"].samples == [(0.0, 0.0)]
        assert collector.link_summary() == [("a", 0.25, 0.5), ("b", 0.0, 0.0)]

    def test_link_going_idle_and_returning(self):
        collector = ObservabilityCollector()
        collector.register_links({"a": 10.0, "b": 10.0})
        collector.rates_updated(1.0, {"a": 10.0})
        collector.rates_updated(1.0, {"a": 10.0, "b": 5.0})  # same instant
        collector.rates_updated(2.0, {"b": 5.0})  # a went idle
        collector.rates_updated(3.0, {"b": 5.0})  # nothing changed
        collector.rates_updated(4.0, {"a": 2.5})  # a returns, b goes idle
        series = collector.registry.series
        assert series["link.a"].samples == [
            (0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (4.0, 0.25)
        ]
        assert series["link.b"].samples == [(0.0, 0.0), (1.0, 0.5), (4.0, 0.0)]

    def test_unregistered_link_is_silently_ignored(self):
        # A throttle link added after set_observer: the network allocates
        # on it, the collector was never told its capacity.
        collector = ObservabilityCollector()
        collector.register_links({"a": 10.0})
        collector.rates_updated(1.0, {"a": 5.0, "late-throttle": 3.0})
        collector.rates_updated(2.0, {"a": 5.0})  # ... and it goes idle again
        collector.rates_updated(3.0, {"late-throttle": 3.0})
        collector.finalize(4.0)
        assert sorted(collector.registry.series) == ["link.a"]
        assert [row[0] for row in collector.link_summary()] == ["a"]
        assert collector.registry.series["link.a"].samples == [
            (0.0, 0.0), (1.0, 0.5), (3.0, 0.0)
        ]

    def test_rates_updated_does_not_keep_the_callers_dict(self):
        collector = ObservabilityCollector()
        collector.register_links({"a": 10.0, "b": 10.0})
        rates = {"a": 10.0}
        collector.rates_updated(1.0, rates)
        rates.clear()  # the caller reuses its dict
        rates["b"] = 10.0
        collector.rates_updated(2.0, rates)
        assert collector.registry.series["link.a"].samples[-1] == (2.0, 0.0)

    def test_keep_events_off_retains_nothing_and_derives_the_same(self):
        def feed(collector):
            bus = collector.bus
            bus.emit("heartbeat", 0.0, node=1, assigned_maps=0, assigned_reduces=0)
            bus.emit("sched.decision", 1.0, action="assign", reason="local")
            bus.emit("sched.decision", 1.0, action="skip", reason="pacing")
            bus.emit("task.launch", 1.0, node=1)
            bus.emit("repair.backlog", 2.0, depth=3)
            bus.emit("heartbeat", 3.0, node=1, assigned_maps=1, assigned_reduces=1)
            bus.emit("repair.backlog", 4.0, depth=0)
            return collector

        kept = feed(ObservabilityCollector())
        dropped = feed(ObservabilityCollector(keep_events=False))
        assert len(kept.events) == 7
        assert dropped.events == []
        assert dropped.heartbeat_latencies == kept.heartbeat_latencies == [3.0]
        assert dropped.decision_counts == kept.decision_counts == {
            ("assign", "local"): 1, ("skip", "pacing"): 1
        }
        assert dropped.decisions == kept.decisions and len(kept.decisions) == 2
        backlog = dropped.registry.series["repair.backlog"].samples
        assert backlog == kept.registry.series["repair.backlog"].samples
        assert backlog == [(0.0, 0.0), (2.0, 3.0), (4.0, 0.0)]
        assert dropped.bus.counts == kept.bus.counts
        assert dropped.bus.emitted == kept.bus.emitted == 7
