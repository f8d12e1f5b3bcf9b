"""Unit tests for matrices over GF(2^8)."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ec import matrix as gfm


class TestIdentityAndMatmul:
    def test_identity(self):
        eye = gfm.identity(3)
        assert eye.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_matmul_identity(self):
        a = np.array([[3, 5], [7, 11]], dtype=np.uint8)
        assert np.array_equal(gfm.matmul(a, gfm.identity(2)), a)
        assert np.array_equal(gfm.matmul(gfm.identity(2), a), a)

    def test_matmul_shape_mismatch(self):
        a = np.zeros((2, 3), dtype=np.uint8)
        b = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            gfm.matmul(a, b)

    def test_matmul_known(self):
        # Over GF(2^8): [[1,1],[0,1]] * [[1,0],[1,1]] = [[0,1],[1,1]]
        a = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        b = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        assert gfm.matmul(a, b).tolist() == [[0, 1], [1, 1]]


class TestInvert:
    def test_invert_identity(self):
        assert np.array_equal(gfm.invert(gfm.identity(4)), gfm.identity(4))

    def test_invert_roundtrip(self):
        a = gfm.vandermonde(8, 8)[1:5, 1:5]  # a 4x4 slice, invertible
        inverse = gfm.invert(a)
        assert np.array_equal(gfm.matmul(a, inverse), gfm.identity(4))
        assert np.array_equal(gfm.matmul(inverse, a), gfm.identity(4))

    def test_singular_raises(self):
        singular = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        with pytest.raises(gfm.SingularMatrixError):
            gfm.invert(singular)

    def test_zero_matrix_raises(self):
        with pytest.raises(gfm.SingularMatrixError):
            gfm.invert(np.zeros((3, 3), dtype=np.uint8))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            gfm.invert(np.zeros((2, 3), dtype=np.uint8))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_invertible_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            candidate = rng.integers(0, 256, size=(3, 3), dtype=np.uint8)
            try:
                inverse = gfm.invert(candidate)
                break
            except gfm.SingularMatrixError:
                continue
        assert np.array_equal(gfm.matmul(candidate, inverse), gfm.identity(3))


class TestConstructions:
    def test_vandermonde_shape_and_first_rows(self):
        v = gfm.vandermonde(5, 3)
        assert v.shape == (5, 3)
        assert v[0].tolist() == [1, 0, 0]  # 0^0=1, 0^1=0, 0^2=0
        assert v[1].tolist() == [1, 1, 1]
        assert v[2].tolist() == [1, 2, 4]

    def test_systematic_top_is_identity(self):
        g = gfm.systematic_encoding_matrix(6, 4)
        assert np.array_equal(g[:4], gfm.identity(4))

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 4), (9, 6), (14, 10), (20, 15)])
    def test_systematic_any_k_rows_invertible(self, n, k):
        """The MDS property: every k-row submatrix must be invertible."""
        import itertools

        g = gfm.systematic_encoding_matrix(n, k)
        # Exhaustive for small n, else sample the awkward combinations.
        combos = list(itertools.combinations(range(n), k))
        if len(combos) > 60:
            combos = combos[:30] + combos[-30:]
        for rows in combos:
            gfm.invert(g[list(rows), :])  # must not raise

    def test_systematic_bad_params(self):
        with pytest.raises(ValueError):
            gfm.systematic_encoding_matrix(2, 4)
        with pytest.raises(ValueError):
            gfm.systematic_encoding_matrix(300, 100)


class TestMatvecBlocks:
    def test_matvec_identity_passthrough(self):
        blocks = [np.array([1, 2], dtype=np.uint8), np.array([3, 4], dtype=np.uint8)]
        out = gfm.BatchedMatvec(gfm.identity(2)).apply(blocks)
        assert [o.tolist() for o in out] == [[1, 2], [3, 4]]

    def test_matvec_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            gfm.BatchedMatvec(gfm.identity(2)).apply([np.array([1], dtype=np.uint8)])

    def test_matvec_empty(self):
        assert gfm.BatchedMatvec(np.zeros((0, 0), dtype=np.uint8)).apply([]) == []


ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Applies a plan (starting helpers on a multi-CPU box), forks a child
#: through ``multiprocessing`` that applies it again, then applies once more
#: in the parent; every result is checked against the reference.
FORK_SCRIPT = """
import json, multiprocessing, os, threading, warnings
import numpy as np
from repro.ec import matrix as gfm

def tasks():
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1

gfm.GATHER_CHUNK = 1024
matrix = gfm.systematic_encoding_matrix(10, 4)[4:]
rng = np.random.default_rng(11)
blocks = [rng.integers(0, 256, size=20001, dtype=np.uint8) for _ in range(4)]
truth = [row.tobytes() for row in gfm.matvec_blocks_reference(matrix, blocks)]
plan = gfm.BatchedMatvec(matrix)

def child(conn):
    conn.send([row.tobytes() for row in plan.apply(blocks)] == truth)

baseline = tasks()
warnings.simplefilter("error", DeprecationWarning)
first = [row.tobytes() for row in plan.apply(blocks)] == truth
threads = threading.active_count()
context = multiprocessing.get_context("fork")
parent_end, child_end = context.Pipe()
process = context.Process(target=child, args=(child_end,))
process.start()
at_fork = {"threads": threading.active_count(), "extra_tasks": tasks() - baseline}
child_ok = parent_end.recv() if parent_end.poll(60) else None
process.join(60)
again = [row.tobytes() for row in plan.apply(blocks)] == truth
print(json.dumps({
    "cpus": len(os.sched_getaffinity(0)), "first": first, "threads": threads,
    "at_fork": at_fork, "child": child_ok, "exitcode": process.exitcode, "again": again,
}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity")
def test_no_helper_alive_across_fork():
    """A forked child applies correctly and no helper thread crosses the fork.

    Python 3.12 warns (here: raises) when a process with other threads
    forks.  The BLAS pool is held to one thread so that only the kernel's
    helpers could make the process multi-threaded.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", FORK_SCRIPT],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["first"] and result["child"] and result["again"]
    assert result["exitcode"] == 0
    # Helpers ran before the fork exactly when there was a CPU for them ...
    assert (result["threads"] > 1) == (result["cpus"] > 1)
    # ... and none was left, as a Python thread or as an OS thread, at it.
    assert result["at_fork"] == {"threads": 1, "extra_tasks": 0}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_apply_starts_no_thread(monkeypatch):
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    matrix = gfm.systematic_encoding_matrix(14, 10)[10:]
    blocks = [np.full(4 * 2 * gfm.GATHER_CHUNK, i + 1, dtype=np.uint8) for i in range(10)]
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(previous)})
    try:
        out = gfm.BatchedMatvec(matrix).apply(blocks)
    finally:
        os.sched_setaffinity(0, previous)
    assert started == []
    truth = gfm.matvec_blocks_reference(matrix, blocks)
    assert all(np.array_equal(row, want) for row, want in zip(out, truth))
