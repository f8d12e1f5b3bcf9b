"""Golden-equivalence tests: performance work moves no trajectory.

The simulation core (``sim/engine.py``, ``sim/resources.py``) is optimised
for speed under one hard contract.  Each golden file under
``tests/golden/`` records, for one fixed-seed trial, two things with
different standing:

``result``
    The full serialized :class:`~repro.mapreduce.metrics.SimulationResult`,
    generated from the pre-optimisation implementation and byte-pinned
    forever.  No rewrite of the heap encoding, the flow index, the
    allocator or the completion scheduling may change one byte of it.

``dispatched``
    The engine's dispatched-event count.  It pins the *event schedule* of
    the current implementation, so that an accidental extra or missing
    heap entry shows up even when it leaves ``result`` alone.  It is a pin
    that moves only deliberately: PR 12 (FluidNetwork settles its
    allocation once per simulated instant instead of once per mutation)
    regenerated it, with ``result`` untouched in all six files it then had.

Covered trajectories: all three schedulers (LF/BDF/EDF) on a single-node
failure, a mid-run failure (exercising in-flight flow cancellation), a
multi-job FIFO run, a run with the online repair driver (throttle
links plus repair/foreground bandwidth competition), and two runs on the
exclusive-hold network (``network_model="exclusive"``): LF on a
single-node failure (a long hold queue) and EDF with a mid-run failure
(tasks killed while their holds are queued or in flight; the first failure
cancels no hold -- ``ExclusivePathNetwork.cancel`` is pinned by
``tests/property/test_exclusive_equivalence.py`` and the crash-under-load
trial of ``tests/integration/test_exclusive_network.py``).  PR 14 added
those two on the unmodified rescanning ``ExclusivePathNetwork`` and then
replaced its drain; both their ``result`` and their ``dispatched`` stayed
byte-identical.

If ``dispatched`` moves after an intentional change to how the core
schedules its own work, or ``result`` after an intentional *semantic*
change to the simulator, regenerate the goldens with::

    PYTHONPATH=src:. python tests/golden/regenerate.py

check that the diff touches only what the change meant to move, and name
the PR and the reason in the commit message.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.serialization import result_to_dict
from repro.mapreduce.simulation import run_simulation
from repro.obs import ObservabilityCollector
from repro.storage.repair_driver import RepairConfig

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")


def golden_cases() -> dict[str, SimulationConfig]:
    """Name -> fixed-seed trial configuration for every golden file."""
    small_job = JobConfig(num_blocks=192)
    return {
        "lf-single-node": SimulationConfig(
            scheduler="LF", seed=7, jobs=(small_job,)
        ),
        "bdf-single-node": SimulationConfig(
            scheduler="BDF", seed=7, jobs=(small_job,)
        ),
        "edf-single-node": SimulationConfig(
            scheduler="EDF", seed=7, jobs=(small_job,)
        ),
        "edf-midrun-failure": SimulationConfig(
            scheduler="EDF", seed=11, jobs=(small_job,), failure_time=25.0
        ),
        "edf-multi-job": SimulationConfig(
            scheduler="EDF",
            seed=3,
            jobs=(
                JobConfig(num_blocks=96),
                JobConfig(num_blocks=96, submit_time=60.0),
            ),
        ),
        "lf-online-repair": SimulationConfig(
            scheduler="LF",
            seed=5,
            jobs=(small_job,),
            repair=RepairConfig(bandwidth_cap=100e6, concurrent_repairs=2),
        ),
        "lf-exclusive": SimulationConfig(
            scheduler="LF", seed=7, jobs=(small_job,), network_model="exclusive"
        ),
        "edf-exclusive-midrun-failure": SimulationConfig(
            scheduler="EDF",
            seed=11,
            jobs=(small_job,),
            failure_time=25.0,
            network_model="exclusive",
        ),
    }


def capture(config: SimulationConfig) -> dict:
    """Run one trial and capture its trajectory fingerprint."""
    collector = ObservabilityCollector(keep_events=False)
    result = run_simulation(config, observer=collector)
    return {
        "result": result_to_dict(result),
        "dispatched": collector.profiler.events_dispatched,
    }


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_trajectory_matches_golden(name: str) -> None:
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    assert os.path.exists(path), (
        f"golden file {path} missing -- run tests/golden/regenerate.py"
    )
    with open(path) as handle:
        golden = json.load(handle)
    actual = capture(golden_cases()[name])
    # Round-trip through JSON so float formatting is identical on both sides.
    actual = json.loads(json.dumps(actual, allow_nan=False))
    assert actual["dispatched"] == golden["dispatched"], (
        f"{name}: engine dispatched {actual['dispatched']} events, "
        f"golden pins {golden['dispatched']} -- the event schedule moved"
    )
    assert actual["result"] == golden["result"]
