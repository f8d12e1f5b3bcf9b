"""Performance suite for the simulation core, with a regression floor.

Runs the fixed workloads of :mod:`benchmarks.perf_core` and writes
``BENCH_sim.json`` next to this file: the measured "after" numbers, the
checked-in seed baseline ("before", from ``perf_floor.json``) and the
implied speedups, so the repo's perf trajectory accumulates across
commits.

Environment knobs:

``REPRO_PERF_SMALL``
    Shrink every workload (the CI perf-smoke setting) so the suite
    finishes in seconds; speedup-vs-baseline fields are omitted because
    the baseline was measured at full size.
``REPRO_PERF_ENFORCE``
    Turn the checked-in floors (``perf_floor.json``) into hard assertions:
    a workload landing more than 30% below its floor fails the test.  The
    indexed-vs-reference recompute comparison must also hold its 3x
    minimum (a same-process ratio, machine-independent, asserted at full
    strength), and what observing adds per emitted bus event and checking
    per dispatched heap entry must stay under their per-size ceilings.  So
    must the process-footprint ceilings: a count that is exactly zero, a
    resident size per size whose ceiling sits well below what the
    numpy-laden, cycle-pinned process used to read, and the resident size
    of one ``scale_200``-shaped trial, whose ceiling sits below what a trial
    keeping every one-shot random stream or every finished task process
    reads.
``REPRO_BENCH_SIM_OUT``
    Override the output path (empty string disables the write).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.perf_core import (
    engine_churn,
    exclusive_churn,
    fig7_single_trial,
    fluid_churn,
    footprint,
    observe_overhead,
)
from repro.sim.engine import Simulator
from repro.sim.resources import FluidNetwork

SMALL = bool(os.environ.get("REPRO_PERF_SMALL"))
ENFORCE = bool(os.environ.get("REPRO_PERF_ENFORCE"))
FLOOR_PATH = os.path.join(os.path.dirname(__file__), "perf_floor.json")
#: A measured value may land at most 30% below its floor before failing.
FLOOR_SLACK = 0.7

with open(FLOOR_PATH) as _handle:
    _FLOOR_FILE = json.load(_handle)
FLOORS = _FLOOR_FILE["floors"]
CEILINGS = _FLOOR_FILE["ceilings"]
SEED_BASELINE = _FLOOR_FILE["seed_baseline"]

#: Workload name -> measured metrics, filled as the module's tests run.
_results: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def write_bench_sim():
    """After the module's tests, persist BENCH_sim.json."""
    yield
    out = os.environ.get(
        "REPRO_BENCH_SIM_OUT",
        os.path.join(os.path.dirname(__file__), "BENCH_sim.json"),
    )
    if not out or not _results:
        return
    workloads = {}
    for name, after in _results.items():
        entry: dict = {"after": after}
        before = SEED_BASELINE.get(name)
        if before is not None and not SMALL:
            entry["before"] = before
            if "events_per_sec" in after:
                entry["speedup"] = round(
                    after["events_per_sec"] / before["events_per_sec"], 2
                )
            elif "seconds" in before:
                entry["speedup"] = round(before["seconds"] / after["seconds"], 2)
        workloads[name] = entry
    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "small": SMALL,
        "enforced": ENFORCE,
        "floors": FLOORS,
        "ceilings": CEILINGS,
        "workloads": workloads,
    }
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def test_engine_events_per_sec():
    """Raw dispatch throughput of the tuple-encoded event loop.

    Recorded, not enforced: no absolute floor can tell this engine from the
    seed's closure-per-step one within the 30% slack (see perf_floor.json).
    """
    if SMALL:
        result = engine_churn(num_processes=100, rounds=150)
    else:
        result = engine_churn()
    _results["engine_churn"] = result


def test_fluid_churn_throughput():
    """Reallocation throughput under multi-link churn with cancels."""
    if SMALL:
        result = fluid_churn(num_flows=250)
    else:
        result = fluid_churn()
    _results["fluid_churn"] = result
    assert result["completed"] + result["cancelled"] == result["flows"]
    if ENFORCE:
        floor = FLOORS["fluid_reallocations_per_sec"] * FLOOR_SLACK
        assert result["reallocations_per_sec"] >= floor, (
            f"fluid churn ran {result['reallocations_per_sec']:.0f} "
            f"reallocations/s, below the enforced floor {floor:.0f}"
        )


def test_exclusive_churn_throughput():
    """Hold throughput of the first-fit drain under a deep queue with cancels."""
    if SMALL:
        result = exclusive_churn(num_flows=250)
    else:
        result = exclusive_churn()
    _results["exclusive_churn"] = result
    assert result["completed"] + result["cancelled"] == result["holds"]
    if ENFORCE:
        floor = FLOORS["exclusive_holds_per_sec"] * FLOOR_SLACK
        assert result["holds_per_sec"] >= floor, (
            f"exclusive churn ran {result['holds_per_sec']:.0f} holds/s, "
            f"below the enforced floor {floor:.0f}"
        )


def test_recompute_indexed_vs_reference():
    """Same-machine algorithmic comparison: indexed vs all-pairs recompute.

    Builds one congested network state (many concurrent multi-link flows,
    flows pinned at t=0 so nothing completes) and times N recomputes of
    each implementation over the identical flow population.  This is the
    honest form of the churn speedup claim: both sides run in this very
    process, so runner speed cancels out.
    """
    num_flows = 120 if SMALL else 400
    repeats = 20 if SMALL else 30
    sim = Simulator()
    network = FluidNetwork(sim)
    num_racks, nodes_per_rack = 4, 10
    for rack in range(num_racks):
        network.add_link(f"rack{rack}:up", 125e6)
        network.add_link(f"rack{rack}:down", 125e6)
    num_nodes = num_racks * nodes_per_rack
    for node in range(num_nodes):
        network.add_link(f"node{node}:in", 125e6)
        network.add_link(f"node{node}:out", 125e6)
    for index in range(num_flows):
        src = (index * 7) % num_nodes
        dst = (src + 1 + (index * 13) % (num_nodes - 1)) % num_nodes
        links = [f"node{src}:out"]
        if src // nodes_per_rack != dst // nodes_per_rack:
            links += [
                f"rack{src // nodes_per_rack}:up",
                f"rack{dst // nodes_per_rack}:down",
            ]
        links.append(f"node{dst}:in")
        network.transfer(links, 64e6)

    start = time.perf_counter()
    for _ in range(repeats):
        network._recompute_rates()
    indexed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(repeats):
        reference = network._recompute_rates_reference()
    reference_seconds = time.perf_counter() - start

    # The two allocators must agree exactly on this population, too.
    assert {done: flow.rate for done, flow in network._flows.items()} == reference

    speedup = reference_seconds / indexed_seconds
    _results["recompute_indexed_vs_reference"] = {
        "flows": num_flows,
        "repeats": repeats,
        "indexed_seconds": indexed_seconds,
        "reference_seconds": reference_seconds,
        "speedup": round(speedup, 2),
    }
    if ENFORCE:
        minimum = FLOORS["recompute_speedup_vs_reference"]
        assert speedup >= minimum, (
            f"indexed recompute is only {speedup:.1f}x the reference, "
            f"expected at least {minimum}x"
        )


def test_fig7_end_to_end_trial():
    """Wall clock of one fig7-style trial (the sweeps' unit of work)."""
    result = fig7_single_trial(num_blocks=360 if SMALL else 1440)
    _results["fig7_single_trial"] = result
    # No absolute floor: end-to-end seconds vary too much across runners.
    assert result["seconds"] > 0


def test_observe_and_check_overhead():
    """Same-process cost of observing and of checking one fig7 trial.

    Plain, ``ObservabilityCollector`` and ``check=True`` trials run
    interleaved.  The guarded figures are per unit of the trial -- observer
    microseconds per emitted bus event, sanitizer microseconds per
    dispatched heap entry -- so a cheaper plain trial does not move them;
    the two overhead ratios over the plain trial are recorded only.  The
    ceilings (one per size, derivation in perf_floor.json) sit between what
    the routed bus, the delta link series and the per-kind sanitizer cost
    and what a return to a wider path would add.  A stall inside one
    trial's runs can still inflate a reading, so a reading above a ceiling
    is re-measured, twice at most, before it counts.
    """
    names = ("observe_us_per_event", "check_us_per_dispatch")
    size = "small" if SMALL else "full"
    for _attempt in range(3 if ENFORCE else 1):
        result = observe_overhead(num_blocks=360 if SMALL else 1440)
        assert result["identical"], "observing or checking changed a trial's result"
        if all(result[name] <= CEILINGS[name][size] for name in names):
            break
    _results["observe_overhead"] = result
    if ENFORCE:
        for name in names:
            ceiling = CEILINGS[name][size]
            assert result[name] <= ceiling, (
                f"{name} is {result[name]:.2f} us, above the enforced"
                f" {size}-size ceiling {ceiling:.2f} us"
            )


def test_process_footprint():
    """Start-up, resident memory and leftover garbage of a simulator process.

    Read in fresh interpreters.  The garbage count is exact (a finished
    trial is acyclic) and numpy must stay outside the import closure; the
    six-trial resident ceiling sits under what the process used to peak at
    even at the small size, and the ``scale_200``-shaped trial's under what
    it read while it kept one-shot streams and finished task processes
    (derivations in perf_floor.json).
    """
    size = "small" if SMALL else "full"
    result = footprint(num_blocks=360 if SMALL else 1440)
    _results["footprint"] = result
    assert not result["numpy_imported"], "numpy is back in the simulator's import closure"
    if ENFORCE:
        found = result["final_collect_objects"]
        assert found <= CEILINGS["trial_cyclic_garbage_objects"], (
            f"gc.collect() found {found} unreachable objects after six trials:"
            " the trial graph has a reference cycle again"
        )
        ceiling = CEILINGS["sim_process_peak_rss_mb"][size]
        assert result["peak_rss_mb"] <= ceiling, (
            f"six fig7 trials peaked at {result['peak_rss_mb']:.1f} MiB resident,"
            f" above the enforced {size}-size ceiling {ceiling:.1f}"
        )
        ceiling = CEILINGS["scale_200_peak_rss_mb"]
        assert result["scale_200_peak_rss_mb"] <= ceiling, (
            f"one scale_200-shaped trial peaked at {result['scale_200_peak_rss_mb']:.1f}"
            f" MiB resident, above the enforced ceiling {ceiling:.1f}"
        )
