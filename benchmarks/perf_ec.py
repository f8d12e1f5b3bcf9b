"""Fixed workloads for the erasure-coding performance suite.

Every workload is a same-process before/after comparison in the
``recompute_indexed_vs_reference`` idiom: the "before" side re-runs the
seed implementation (the retained ``*_reference`` oracles, including the
per-call sub-matrix inversion the seed decode performed), the "after" side
runs the batched packed-table kernels through the public coder API with
warm decode-plan caches.  Both sides run on identical payloads in the same
process, so runner speed cancels out and the reported speedups are
machine-independent.

Workloads (all at 1 MiB blocks by default, the testbed's block size):

* :func:`encode_workload` -- parity generation, RS(9,6) and RS(16,12).
* :func:`decode_workload` -- full decode after the maximum tolerable
  native loss (the degraded-read storm case), also at RS(20,15), whose
  five rebuilt rows make the one two-band apply here.
* :func:`reconstruct_workload` -- repeated same-pattern single-block
  repair of a parity block, the seed's O(k^2 L) worst case (full decode
  plus re-encode) against the cached one-row plan.
* :func:`shared_gather_workload` -- the same warm encode with the packed
  gather on one worker (the process pinned to one CPU) and shared across
  every CPU of the process's affinity, interleaved.

``benchmarks/test_perf_ec.py`` runs them, writes ``BENCH_ec.json`` and
enforces the floors; ``python benchmarks/perf_ec.py`` prints one sample
per workload.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.ec import matrix as gfm
from repro.ec.reed_solomon import ReedSolomon

MIB = 1 << 20


def _blocks(count: int, length: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(count)]


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """Minimum wall time of ``repeats`` runs (robust to scheduler jitter)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _mb_per_s(byte_count: int, seconds: float) -> float:
    return byte_count / MIB / seconds


def encode_workload(n: int, k: int, block_len: int = MIB, repeats: int = 5) -> dict:
    """Parity generation throughput: reference matvec vs batched coder."""
    coder = ReedSolomon(n, k)
    natives = _blocks(k, block_len, seed=n * 1000 + k)
    parity_rows = coder.generator_matrix[k:]
    coder.encode(natives)  # warm the compiled encoder plan + tables

    after_seconds, after_parity = _best_of(lambda: coder.encode(natives), repeats)
    before_seconds, before_parity = _best_of(
        lambda: [
            row.tobytes() for row in gfm.matvec_blocks_reference(parity_rows, natives)
        ],
        repeats,
    )

    assert after_parity == before_parity, "kernel and reference parity diverge"
    processed = k * block_len
    return {
        "code": f"RS({n},{k})",
        "block_len": block_len,
        "repeats": repeats,
        "before_seconds": before_seconds,
        "after_seconds": after_seconds,
        "before_mb_per_s": round(_mb_per_s(processed, before_seconds), 1),
        "after_mb_per_s": round(_mb_per_s(processed, after_seconds), 1),
        "speedup": round(before_seconds / after_seconds, 2),
    }


def decode_workload(n: int, k: int, block_len: int = MIB, repeats: int = 5) -> dict:
    """Max-native-loss decode: seed path (per-call reference inversion +
    scalar matvec) vs the warm plan-cached coder."""
    coder = ReedSolomon(n, k)
    natives = _blocks(k, block_len, seed=n * 2000 + k)
    stripe = [native.tobytes() for native in natives] + coder.encode(natives)
    lost = min(n - k, k)  # lose as many natives as the code tolerates
    available = {index: stripe[index] for index in range(lost, n)}
    indices = sorted(available)[:k]
    sub_matrix = coder.generator_matrix[indices, :]
    arrays = [np.frombuffer(available[index], dtype=np.uint8) for index in indices]
    coder.decode(available)  # warm the decode plan + tables

    after_seconds, after_natives = _best_of(lambda: coder.decode(available), repeats)

    def seed_decode():
        decode_matrix = gfm.invert_reference(sub_matrix)
        return [
            row.tobytes() for row in gfm.matvec_blocks_reference(decode_matrix, arrays)
        ]

    before_seconds, before_natives = _best_of(seed_decode, repeats)

    assert after_natives == before_natives, "kernel and reference decode diverge"
    processed = k * block_len
    return {
        "code": f"RS({n},{k})",
        "block_len": block_len,
        "lost_natives": lost,
        "repeats": repeats,
        "before_seconds": before_seconds,
        "after_seconds": after_seconds,
        "before_mb_per_s": round(_mb_per_s(processed, before_seconds), 1),
        "after_mb_per_s": round(_mb_per_s(processed, after_seconds), 1),
        "speedup": round(before_seconds / after_seconds, 2),
    }


def reconstruct_workload(n: int, k: int, block_len: int = MIB, repeats: int = 5) -> dict:
    """Repeated same-pattern repair of one parity block.

    The seed rebuilt a parity block by fully decoding the natives and then
    re-encoding every parity row -- ``(k + (n-k)) * k`` reference column
    operations per block, repeated for *every* stripe of a failed node.
    The after side is the cached single-row plan: one k-term matvec per
    stripe, with the inversion amortised across the pattern.
    """
    coder = ReedSolomon(n, k)
    natives = _blocks(k, block_len, seed=n * 3000 + k)
    parity = coder.encode(natives)
    stripe = [native.tobytes() for native in natives] + parity
    lost = n - 1  # a parity block: the seed's full decode + re-encode case
    available = {index: stripe[index] for index in range(n) if index != lost}
    indices = sorted(available)[:k]
    sub_matrix = coder.generator_matrix[indices, :]
    parity_rows = coder.generator_matrix[k:]
    arrays = [np.frombuffer(available[index], dtype=np.uint8) for index in indices]
    coder.reconstruct_block(lost, available)  # warm the row plan + tables

    after_seconds, after_block = _best_of(
        lambda: coder.reconstruct_block(lost, available), repeats
    )

    def seed_reconstruct():
        decode_matrix = gfm.invert_reference(sub_matrix)
        decoded = gfm.matvec_blocks_reference(decode_matrix, arrays)
        return gfm.matvec_blocks_reference(parity_rows, decoded)[lost - k].tobytes()

    before_seconds, before_block = _best_of(seed_reconstruct, repeats)

    assert after_block == before_block == stripe[lost], "reconstruction diverges"
    processed = k * block_len
    return {
        "code": f"RS({n},{k})",
        "block_len": block_len,
        "lost_position": lost,
        "repeats": repeats,
        "before_seconds": before_seconds,
        "after_seconds": after_seconds,
        "before_mb_per_s": round(_mb_per_s(processed, before_seconds), 1),
        "after_mb_per_s": round(_mb_per_s(processed, after_seconds), 1),
        "speedup": round(before_seconds / after_seconds, 2),
    }


def shared_gather_workload(n: int, k: int, block_len: int = MIB, repeats: int = 9) -> dict:
    """Warm encode with the packed gather on one worker vs on every CPU.

    The kernel takes its worker count from the process's CPU affinity, so
    the "before" side is the same call with this thread pinned to one CPU
    (no helper thread is used) and the "after" side the call at the full
    affinity.  The two alternate, so both see the same machine state.
    """
    coder = ReedSolomon(n, k)
    natives = _blocks(k, block_len, seed=n * 4000 + k)
    cpus = os.sched_getaffinity(0)
    coder.encode(natives)  # warm the compiled encoder plan, tables and helpers

    def pinned():
        os.sched_setaffinity(0, {min(cpus)})
        try:
            return coder.encode(natives)
        finally:
            os.sched_setaffinity(0, cpus)

    before_seconds = after_seconds = float("inf")
    for _ in range(repeats):
        seconds, before_parity = _best_of(pinned, 1)
        before_seconds = min(before_seconds, seconds)
        seconds, after_parity = _best_of(lambda: coder.encode(natives), 1)
        after_seconds = min(after_seconds, seconds)

    assert after_parity == before_parity, "one-worker and shared gathers diverge"
    processed = k * block_len
    return {
        "code": f"RS({n},{k})",
        "block_len": block_len,
        "cpus": len(cpus),
        "repeats": repeats,
        "before_seconds": before_seconds,
        "after_seconds": after_seconds,
        "before_mb_per_s": round(_mb_per_s(processed, before_seconds), 1),
        "after_mb_per_s": round(_mb_per_s(processed, after_seconds), 1),
        "speedup": round(before_seconds / after_seconds, 2),
    }


def main() -> None:
    for name, fn in (
        ("encode_rs9_6", lambda: encode_workload(9, 6)),
        ("encode_rs16_12", lambda: encode_workload(16, 12)),
        ("decode_rs9_6", lambda: decode_workload(9, 6)),
        ("decode_rs16_12", lambda: decode_workload(16, 12)),
        ("decode_rs20_15", lambda: decode_workload(20, 15)),
        ("reconstruct_rs9_6", lambda: reconstruct_workload(9, 6)),
        ("reconstruct_rs16_12", lambda: reconstruct_workload(16, 12)),
        ("shared_gather_rs12_10", lambda: shared_gather_workload(12, 10)),
    ):
        print(name, fn())


if __name__ == "__main__":
    main()
