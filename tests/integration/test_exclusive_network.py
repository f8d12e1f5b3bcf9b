"""Whole trials on the exclusive-hold network (``network_model="exclusive"``).

Two things the goldens do not pin:

* a trial on ``ExclusivePathNetwork`` runs clean under the sanitizer and is
  byte-identical whether it is checked, observed or neither;
* a crash that kills several running maps at one instant produces the same
  event log whatever ``PYTHONHASHSEED`` is.  ``SlaveRuntime`` used to keep
  the live task processes of a node in a ``set`` and interrupt them in
  set-iteration order, i.e. by ``id()``, i.e. by memory layout, so the
  same-instant ``task.kill`` events (and the order killed tasks went back
  to the master) differed between two runs of one config.  The crash
  trial also cancels degraded reads fetching from the victim: in-flight
  holds under LF, queued ones under EDF.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

from repro.cluster.network import mbps
from repro.faults.schedule import (
    FailEvent,
    FailureSchedule,
    RecoverEvent,
    SlowdownEvent,
)
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.serialization import result_to_json
from repro.mapreduce.simulation import run_simulation
from repro.obs import ObservabilityCollector
from repro.obs.export import events_jsonl
from repro.storage.repair_driver import RepairConfig

from tests.integration.test_simulation_small import small_config

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
CRASH_AT = 60.0
VICTIM = 17


@pytest.mark.parametrize("scheduler", ["LF", "EDF"])
def test_checked_observed_and_plain_trials_agree(scheduler):
    config = small_config(scheduler=scheduler, network_model="exclusive")
    plain = result_to_json(run_simulation(config))
    # check=True raises InvariantViolationError on any violation.
    assert result_to_json(run_simulation(config, check=True)) == plain
    collector = ObservabilityCollector()
    assert result_to_json(run_simulation(config, observer=collector)) == plain
    assert any(event.kind == "flow.start" for event in collector.events)


def crash_config(scheduler: str) -> SimulationConfig:
    """A node crashes silently at t=60 with several maps running on it.

    The shape of the end-to-end benchmark's churn trial: one node down from
    the start, heterogeneous speeds, a slowdown, the crash, a recovery,
    speculation and throttled online repair.
    """
    return SimulationConfig(
        scheduler=scheduler,
        seed=0,
        network_model="exclusive",
        speed_factors=tuple(1.0 if node % 2 == 0 else 0.5 for node in range(40)),
        jobs=(JobConfig(num_blocks=480),),
        failure_schedule=FailureSchedule(
            (
                FailEvent(at=0.0, node=0),
                FailEvent(at=CRASH_AT, node=VICTIM),
                SlowdownEvent(at=40.0, node=25, factor=3.0, duration=120.0),
                RecoverEvent(at=200.0, node=VICTIM),
            )
        ),
        speculative=True,
        repair=RepairConfig(bandwidth_cap=mbps(400), concurrent_repairs=2),
    )


def crash_events(scheduler: str) -> list:
    collector = ObservabilityCollector()
    run_simulation(crash_config(scheduler), observer=collector)
    return collector.events


def log_digest(events: list) -> str:
    return hashlib.sha256(events_jsonl(events).encode()).hexdigest()


def _digest_under_hash_seed(scheduler: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", "")]
    )
    code = (
        "from tests.integration.test_exclusive_network import crash_events, log_digest;"
        f"print(log_digest(crash_events({scheduler!r})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


@pytest.mark.parametrize("scheduler", ["LF", "EDF"])
def test_event_log_independent_of_hash_seed(scheduler):
    events = crash_events(scheduler)
    killed_at_crash = [
        event
        for event in events
        if event.kind == "task.kill" and event.time == CRASH_AT
    ]
    # Several maps died in the same instant: the order they are
    # interrupted in is what used to follow the memory layout.
    assert len(killed_at_crash) >= 3
    assert {event.fields["node"] for event in killed_at_crash} == {VICTIM}
    assert _digest_under_hash_seed(scheduler, "1") == log_digest(events)
    assert _digest_under_hash_seed(scheduler, "2") == log_digest(events)
