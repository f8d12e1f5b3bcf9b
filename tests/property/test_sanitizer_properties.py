"""Property tests of the sanitizer over fuzzer-generated scenarios.

``scenario_strategy()`` is the same generator ``repro fuzz`` uses, driven
here by hypothesis: any scenario it can produce must build a valid
:class:`SimulationConfig`, survive serialization round-tripping, and run
to a clean outcome under the invariant monitor -- both under the paper's
scheduler triple and under the scenario's own *drawn* policy, which the
generator samples from the full registry (so zoo policies are covered the
moment they register).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.check import SCHEDULERS, run_checked_trial, scenario_strategy
from repro.mapreduce.serialization import config_from_dict, config_to_dict

# Whole-trial examples are expensive; a handful per run is plenty -- the CI
# fuzz job covers volume, hypothesis covers shrinking and edge-case bias.
_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(config=scenario_strategy())
@_SETTINGS
def test_generated_scenarios_round_trip_serialization(config):
    assert config_from_dict(config_to_dict(config)) == config


@given(config=scenario_strategy())
@_SETTINGS
def test_generated_scenarios_run_clean_under_monitor(config):
    for scheduler in sorted({*SCHEDULERS, config.scheduler}):
        report = run_checked_trial(config.with_scheduler(scheduler))
        assert not report.failed, (
            f"{scheduler} on generated scenario: {report.status}\n{report.message}"
        )
