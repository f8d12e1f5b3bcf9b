"""Unit tests for declarative failure schedules."""

from __future__ import annotations

import json

import pytest

from repro.faults.records import DetectionRecord, FaultTimeline
from repro.faults.schedule import (
    FailEvent,
    FailureSchedule,
    RecoverEvent,
    SlowdownEvent,
)


class TestEventValidation:
    def test_fail_event_needs_exactly_one_target(self):
        with pytest.raises(ValueError):
            FailEvent(at=1.0)
        with pytest.raises(ValueError):
            FailEvent(at=1.0, node=2, rack=0)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            FailEvent(at=-1.0, node=2)
        with pytest.raises(ValueError):
            RecoverEvent(at=-1.0, node=2)
        with pytest.raises(ValueError):
            SlowdownEvent(at=-1.0, node=2, factor=2.0, duration=5.0)

    def test_slowdown_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            SlowdownEvent(at=1.0, node=2, factor=1.0, duration=5.0)

    def test_slowdown_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            SlowdownEvent(at=1.0, node=2, factor=2.0, duration=0.0)


class TestSchedule:
    def test_events_sorted_by_time(self):
        schedule = FailureSchedule(
            (RecoverEvent(at=120.0, node=5), FailEvent(at=30.0, node=5))
        )
        assert [event.at for event in schedule.events] == [30.0, 120.0]
        assert len(schedule) == 2

    def test_initial_failures_are_t0_fail_events(self, small_topology):
        schedule = FailureSchedule(
            (
                FailEvent(at=0.0, node=1),
                FailEvent(at=0.0, rack=1),
                FailEvent(at=30.0, node=2),
            )
        )
        rack_nodes = set(small_topology.nodes_in_rack(1))
        assert schedule.initial_failures(small_topology) == frozenset({1} | rack_nodes)

    def test_deferred_events_exclude_t0_fails(self, small_topology):
        fail_later = FailEvent(at=30.0, node=2)
        recover = RecoverEvent(at=0.0, node=1)
        schedule = FailureSchedule((FailEvent(at=0.0, node=1), recover, fail_later))
        assert schedule.deferred_events() == [recover, fail_later]

    def test_rack_event_expands_to_all_nodes(self, small_topology):
        event = FailEvent(at=10.0, rack=0)
        schedule = FailureSchedule((event,))
        assert schedule.fail_targets(event, small_topology) == sorted(
            small_topology.nodes_in_rack(0)
        )

    def test_validate_rejects_unknown_node(self, small_topology):
        schedule = FailureSchedule((FailEvent(at=1.0, node=99),))
        with pytest.raises(ValueError, match="unknown node"):
            schedule.validate(small_topology)

    def test_validate_rejects_unknown_rack(self, small_topology):
        schedule = FailureSchedule((FailEvent(at=1.0, rack=9),))
        with pytest.raises(ValueError, match="unknown rack"):
            schedule.validate(small_topology)

    def test_validate_accepts_well_formed(self, small_topology):
        schedule = FailureSchedule(
            (
                FailEvent(at=0.0, node=1),
                SlowdownEvent(at=5.0, node=2, factor=2.0, duration=10.0),
                RecoverEvent(at=50.0, node=1),
            )
        )
        schedule.validate(small_topology)  # does not raise

    def test_validate_checks_every_event_and_names_the_index(self, small_topology):
        schedule = FailureSchedule(
            (
                FailEvent(at=0.0, node=1),
                RecoverEvent(at=50.0, node=1),
                RecoverEvent(at=60.0, node=99),
            )
        )
        with pytest.raises(ValueError, match=r"events\[2\].*unknown node 99"):
            schedule.validate(small_topology)

    def test_validate_index_reflects_time_order(self, small_topology):
        # Events are sorted at construction; the reported index must point
        # into the *sorted* tuple, not the constructor argument order.
        schedule = FailureSchedule(
            (FailEvent(at=90.0, node=99), FailEvent(at=1.0, node=0))
        )
        with pytest.raises(ValueError, match=r"events\[1\]"):
            schedule.validate(small_topology)

    def test_validate_bounds_corrupt_coordinates_when_shape_given(
        self, small_topology
    ):
        from repro.faults.schedule import CorruptEvent

        schedule = FailureSchedule((CorruptEvent(at=5.0, stripe=4, position=0),))
        schedule.validate(small_topology)  # no shape: deferred to install
        with pytest.raises(ValueError, match=r"events\[0\].*unknown stripe 4"):
            schedule.validate(small_topology, num_stripes=4, stripe_width=6)
        bad_position = FailureSchedule((CorruptEvent(at=5.0, stripe=0, position=6),))
        with pytest.raises(ValueError, match="unknown block position 6"):
            bad_position.validate(small_topology, num_stripes=4, stripe_width=6)


class TestRoundTrip:
    SCHEDULE = FailureSchedule(
        (
            FailEvent(at=30.0, node=5),
            FailEvent(at=45.0, rack=1),
            SlowdownEvent(at=60.0, node=7, factor=4.0, duration=50.0),
            RecoverEvent(at=120.0, node=5),
        )
    )

    def test_dict_round_trip(self):
        assert FailureSchedule.from_dict(self.SCHEDULE.to_dict()) == self.SCHEDULE

    def test_json_round_trip(self):
        assert FailureSchedule.from_json(self.SCHEDULE.to_json()) == self.SCHEDULE

    def test_dict_omits_null_fields(self):
        entry = self.SCHEDULE.to_dict()["events"][0]
        assert entry == {"kind": "fail", "at": 30.0, "node": 5}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FailureSchedule.from_dict({"events": [{"kind": "explode", "at": 1.0}]})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(self.SCHEDULE.to_json())
        assert FailureSchedule.load(str(path)) == self.SCHEDULE

    def test_empty_trace(self):
        assert FailureSchedule.from_json(json.dumps({})) == FailureSchedule()


class TestRecords:
    def test_detection_latency(self):
        record = DetectionRecord(node=3, failed_at=30.0, detected_at=45.0)
        assert record.latency == pytest.approx(15.0)

    def test_timeline_aggregates(self):
        timeline = FaultTimeline()
        timeline.detections.append(DetectionRecord(node=3, failed_at=30.0, detected_at=45.0))
        assert timeline.detection_latencies == [pytest.approx(15.0)]
        assert timeline.blacklistings == []
