"""Unit tests for the stochastic failure-model library."""

from __future__ import annotations

import json

import pytest

from repro.cluster.topology import ClusterTopology
from repro.faults.models import (
    DAY,
    HOUR,
    CompositeModel,
    CorrelatedBursts,
    ExponentialLifetimes,
    LatentSectorErrors,
    WeibullLifetimes,
    check_alternation,
    slice_window,
)
from repro.faults.schedule import (
    CorruptEvent,
    FailEvent,
    FailureSchedule,
    RecoverEvent,
)
from repro.sim.rng import RngStreams

HORIZON = 30.0 * DAY

MODELS = [
    ExponentialLifetimes(mttf=5.0 * DAY, mttr=6.0 * HOUR),
    WeibullLifetimes(mttf=5.0 * DAY, shape=0.7, mttr=6.0 * HOUR),
    WeibullLifetimes(mttf=5.0 * DAY, shape=1.4, mttr=6.0 * HOUR, repair_shape=2.0),
    CorrelatedBursts(mtbe=2.0 * DAY, burst_size_mean=2.5, mttr=6.0 * HOUR),
    LatentSectorErrors(num_stripes=6, stripe_width=6, block_mtbc=30.0 * DAY),
    CompositeModel(
        models=(
            ExponentialLifetimes(mttf=5.0 * DAY, mttr=6.0 * HOUR),
            LatentSectorErrors(num_stripes=6, stripe_width=6, block_mtbc=30.0 * DAY),
        )
    ),
]


@pytest.fixture
def topology():
    return ClusterTopology.from_rack_sizes([3, 3, 3])


def canonical(schedule: FailureSchedule) -> str:
    return json.dumps(schedule.to_dict(), sort_keys=True)


class TestDeterminism:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_same_seed_same_stream(self, topology, model):
        first = model.generate(topology, RngStreams(11), HORIZON)
        second = model.generate(topology, RngStreams(11), HORIZON)
        assert canonical(first) == canonical(second)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_different_seeds_differ(self, topology, model):
        first = model.generate(topology, RngStreams(11), HORIZON)
        second = model.generate(topology, RngStreams(12), HORIZON)
        assert canonical(first) != canonical(second)

    def test_generation_is_draw_order_independent(self, topology):
        # Generating another model from the same RngStreams first must not
        # shift the second model's draws: every draw is name-addressed.
        model = ExponentialLifetimes(mttf=5.0 * DAY, mttr=6.0 * HOUR)
        alone = model.generate(topology, RngStreams(3), HORIZON)
        rng = RngStreams(3)
        CorrelatedBursts(mtbe=2.0 * DAY).generate(topology, rng, HORIZON)
        after = model.generate(topology, rng, HORIZON)
        assert canonical(alone) == canonical(after)


class TestGoldenStreams:
    """Fixed-seed first events, pinned: a change here is a trajectory break."""

    def test_exponential_golden(self, topology):
        model = ExponentialLifetimes(mttf=5.0 * DAY, mttr=6.0 * HOUR)
        schedule = model.generate(topology, RngStreams(0), HORIZON)
        first = schedule.events[0]
        assert isinstance(first, FailEvent)
        assert (first.node, round(first.at, 3)) == (0, 1250.692)
        assert len(schedule) == 130

    def test_weibull_golden(self, topology):
        model = WeibullLifetimes(mttf=5.0 * DAY, shape=0.7, mttr=6.0 * HOUR)
        schedule = model.generate(topology, RngStreams(0), HORIZON)
        first = schedule.events[0]
        assert isinstance(first, FailEvent)
        assert (first.node, round(first.at, 3)) == (7, 19049.401)
        assert len(schedule) == 120

    def test_bursts_golden(self, topology):
        model = CorrelatedBursts(mtbe=2.0 * DAY, burst_size_mean=2.5, mttr=6.0 * HOUR)
        schedule = model.generate(topology, RngStreams(0), HORIZON)
        first = schedule.events[0]
        assert isinstance(first, FailEvent)
        assert (first.node, round(first.at, 3)) == (1, 698379.885)
        assert len(schedule) == 70

    def test_lse_golden(self, topology):
        model = LatentSectorErrors(num_stripes=6, stripe_width=6, block_mtbc=30.0 * DAY)
        schedule = model.generate(topology, RngStreams(0), HORIZON)
        first = schedule.events[0]
        assert isinstance(first, CorruptEvent)
        assert (first.stripe, first.position, round(first.at, 3)) == (5, 1, 36408.865)
        assert len(schedule) == 43


class TestModelBehaviour:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_streams_validate_and_alternate(self, topology, model):
        schedule = model.generate(topology, RngStreams(5), HORIZON)
        schedule.validate(topology, num_stripes=6, stripe_width=6)
        check_alternation(schedule, topology)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_fails_inside_horizon(self, topology, model):
        schedule = model.generate(topology, RngStreams(5), HORIZON)
        for event in schedule.events:
            if not isinstance(event, RecoverEvent):
                assert event.at < HORIZON

    def test_recoveries_kept_beyond_horizon(self, topology):
        # A fail just inside the horizon keeps its recovery even past it,
        # so per-node alternation survives windowing.
        model = ExponentialLifetimes(mttf=2.0 * DAY, mttr=2.0 * DAY)
        schedule = model.generate(topology, RngStreams(1), 4.0 * DAY)
        fails = sum(isinstance(event, FailEvent) for event in schedule.events)
        recovers = sum(isinstance(event, RecoverEvent) for event in schedule.events)
        assert fails == recovers

    def test_weibull_mean_parameterisation(self, topology):
        # The empirical mean lifetime should track mttf across shapes (the
        # scale is derived via the gamma function) -- generate enough
        # lifetimes to check within a loose statistical band.
        lifetimes: list[float] = []
        for shape in (0.7, 1.0, 1.6):
            model = WeibullLifetimes(mttf=1.0 * DAY, shape=shape, mttr=1.0 * HOUR)
            schedule = model.generate(topology, RngStreams(8), 200.0 * DAY)
            previous_recover: dict[int, float] = {}
            for event in schedule.events:
                if isinstance(event, FailEvent):
                    start = previous_recover.get(event.node, 0.0)
                    lifetimes.append(event.at - start)
                elif isinstance(event, RecoverEvent):
                    previous_recover[event.node] = event.at
        mean = sum(lifetimes) / len(lifetimes)
        assert 0.8 * DAY < mean < 1.2 * DAY

    def test_bursts_never_double_fail(self, topology):
        model = CorrelatedBursts(
            mtbe=6.0 * HOUR, burst_size_mean=4.0, mttr=12.0 * HOUR
        )
        schedule = model.generate(topology, RngStreams(9), 10.0 * DAY)
        check_alternation(schedule, topology)

    def test_composite_rejects_overlapping_lifetime_models(self, topology):
        model = CompositeModel(
            models=(
                ExponentialLifetimes(mttf=1.0 * DAY, mttr=1.0 * DAY),
                ExponentialLifetimes(mttf=1.0 * DAY, mttr=1.0 * DAY),
            )
        )
        with pytest.raises(ValueError, match="already down"):
            model.generate(topology, RngStreams(2), 20.0 * DAY)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExponentialLifetimes(mttf=0.0)
        with pytest.raises(ValueError):
            WeibullLifetimes(shape=-1.0)
        with pytest.raises(ValueError):
            CorrelatedBursts(burst_size_mean=0.5)
        with pytest.raises(ValueError):
            LatentSectorErrors(num_stripes=0)


class TestRoundTrips:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_dict_round_trip(self, model):
        """``to_dict`` survives JSON unchanged (the report's config block)."""
        payload = model.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["kind"] == model.kind


class TestSliceWindow:
    def test_down_at_start_becomes_t0_fail(self, topology):
        schedule = FailureSchedule(
            (FailEvent(at=10.0, node=3), RecoverEvent(at=500.0, node=3))
        )
        window = slice_window(schedule, topology, 100.0, 1000.0)
        assert window.events[0] == FailEvent(at=0.0, node=3)
        assert window.events[1] == RecoverEvent(at=400.0, node=3)

    def test_recovery_past_window_end_dropped(self, topology):
        schedule = FailureSchedule(
            (FailEvent(at=10.0, node=3), RecoverEvent(at=5000.0, node=3))
        )
        window = slice_window(schedule, topology, 100.0, 1000.0)
        assert window.events == (FailEvent(at=0.0, node=3),)

    def test_in_window_events_shift(self, topology):
        schedule = FailureSchedule(
            (FailEvent(at=150.0, node=2), RecoverEvent(at=300.0, node=2))
        )
        window = slice_window(schedule, topology, 100.0, 1000.0)
        assert window.events == (
            FailEvent(at=50.0, node=2),
            RecoverEvent(at=200.0, node=2),
        )

    def test_carried_node_refailing_in_window_keeps_alternation(self, topology):
        schedule = FailureSchedule(
            (
                FailEvent(at=10.0, node=3),
                RecoverEvent(at=200.0, node=3),
                FailEvent(at=400.0, node=3),
                RecoverEvent(at=600.0, node=3),
            )
        )
        window = slice_window(schedule, topology, 100.0, 1000.0)
        assert window.events == (
            FailEvent(at=0.0, node=3),
            RecoverEvent(at=100.0, node=3),
            FailEvent(at=300.0, node=3),
            RecoverEvent(at=500.0, node=3),
        )
        check_alternation(window, topology)

    def test_window_of_generated_stream_validates(self, topology):
        model = ExponentialLifetimes(mttf=2.0 * DAY, mttr=6.0 * HOUR)
        schedule = model.generate(topology, RngStreams(4), 30.0 * DAY)
        window = slice_window(schedule, topology, 11.0 * DAY, 3600.0)
        window.validate(topology)
        check_alternation(window, topology)
