"""Performance suite for the erasure-coding kernels, with regression floors.

Runs the fixed workloads of :mod:`benchmarks.perf_ec` and writes
``BENCH_ec.json`` next to this file: before (reference oracles) and after
(batched kernels + plan caches) throughput at RS(9,6) and RS(16,12), the
decode at RS(20,15) too, the implied speedups, and the packed gather on
one worker against the same gather shared across the process's CPUs at
RS(12,10).

Environment knobs:

``REPRO_PERF_SMALL``
    Shrink the blocks to 256 KiB so the suite finishes in about a second.
    The speedups are ratios of same-process runs, so they remain
    meaningful at the small size (the packed kernel engages from 4 KiB).
    The shared-gather workload stays at 1 MiB: a 256 KiB block is one
    gather chunk, which one thread runs.
``REPRO_PERF_ENFORCE``
    Turn the checked-in floors (``perf_floor.json``, the ``ec_*`` keys)
    into hard assertions.  The floors are before/after ratios measured in
    this very process, so -- like ``recompute_speedup_vs_reference`` --
    they are asserted at full strength, no slack.
``REPRO_BENCH_EC_OUT``
    Override the output path (empty string disables the write).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.perf_ec import (
    decode_workload,
    encode_workload,
    reconstruct_workload,
    shared_gather_workload,
)

SMALL = bool(os.environ.get("REPRO_PERF_SMALL"))
ENFORCE = bool(os.environ.get("REPRO_PERF_ENFORCE"))
FLOOR_PATH = os.path.join(os.path.dirname(__file__), "perf_floor.json")

with open(FLOOR_PATH) as _handle:
    FLOORS = json.load(_handle)["floors"]

BLOCK_LEN = (256 << 10) if SMALL else (1 << 20)
REPEATS = 3 if SMALL else 5

#: Workload name -> measured metrics, filled as the module's tests run.
_results: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def write_bench_ec():
    """After the module's tests, persist BENCH_ec.json."""
    yield
    out = os.environ.get(
        "REPRO_BENCH_EC_OUT",
        os.path.join(os.path.dirname(__file__), "BENCH_ec.json"),
    )
    if not out or not _results:
        return
    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "small": SMALL,
        "enforced": ENFORCE,
        "block_len": BLOCK_LEN,
        "floors": {name: FLOORS[name] for name in sorted(FLOORS) if name.startswith("ec_")},
        "workloads": _results,
    }
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _check_floor(name: str, result: dict) -> None:
    _results[name] = result
    if not ENFORCE:
        return
    floor = FLOORS[f"ec_{name}_speedup"]
    assert result["speedup"] >= floor, (
        f"{name}: kernel is only {result['speedup']}x the reference, "
        f"expected at least {floor}x"
    )


@pytest.mark.parametrize("n,k", [(9, 6), (16, 12)])
def test_encode_speedup(n, k):
    """Batched parity generation vs the scalar reference matvec."""
    result = encode_workload(n, k, block_len=BLOCK_LEN, repeats=REPEATS)
    _check_floor(f"encode_rs{n}_{k}", result)


@pytest.mark.parametrize("n,k", [(9, 6), (16, 12), (20, 15)])
def test_decode_speedup(n, k):
    """Warm plan-cached decode vs the seed's per-call invert + matvec.

    RS(20,15), the simulator's code, rebuilds five natives: two bands of
    packed rows, so its chunks share each column's converted indices.
    """
    result = decode_workload(n, k, block_len=BLOCK_LEN, repeats=REPEATS)
    _check_floor(f"decode_rs{n}_{k}", result)


@pytest.mark.parametrize("n,k", [(9, 6), (16, 12)])
def test_reconstruct_speedup(n, k):
    """Cached single-row repair vs the seed's full decode + re-encode."""
    result = reconstruct_workload(n, k, block_len=BLOCK_LEN, repeats=REPEATS)
    _check_floor(f"reconstruct_rs{n}_{k}", result)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the shared gather needs a second CPU",
)
def test_shared_gather_speedup():
    """The packed gather on every CPU vs on one worker, same process."""
    result = shared_gather_workload(12, 10)
    _check_floor("shared_gather_rs12_10", result)
