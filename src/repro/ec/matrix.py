"""Dense matrices over GF(2^8), with batched block kernels.

Matrices are represented as 2-D numpy ``uint8`` arrays.  Only the operations
that Reed-Solomon coding needs are provided: multiplication, identity,
Gauss-Jordan inversion, sub-matrix selection, and the Vandermonde-based
systematic generator construction.

The block-application primitive (:class:`BatchedMatvec`) is the
erasure-coding hot path: every encode, decode and degraded-read reduces
to it.  It is implemented as a packed pair-indexed table kernel (see
:func:`repro.ec.galois.packed_pair_table`): the block is viewed as
``uint16`` pairs and one 65536-entry gather yields the products of both
bytes by up to four matrix rows at once, so gather work per output row
drops by ~8x compared with one 256-entry gather per ``(row, column)``
coefficient.  The gathers run on every CPU the process may use: the pair
range is cut into :data:`GATHER_CHUNK`-pair chunks, each covering every
band, that the applying thread and helper threads claim from one shared
iterator, each chunk writing only its own slices of the output
(:func:`_gather_bands`).  With one usable CPU no thread is started, and no
helper is alive across a ``fork``.  There is no knob: the worker count is
the process's CPU affinity and the chunk size a measured constant.  The pre-kernel implementations are retained
verbatim as ``*_reference`` oracles (the PR-4
``_recompute_rates_reference`` idiom); the Hypothesis suite
``tests/property/test_ec_kernel_equivalence.py`` holds the kernels
byte-identical to them.
"""

from __future__ import annotations

import os
import queue
import threading
from collections.abc import Sequence

import numpy as np

from repro.ec import galois
from repro.ec.galois import _MUL_TABLE, PACK_ROWS, packed_pair_table


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible turns out singular."""


#: Below this block length the packed kernel's table build is not worth it
#: and the per-column gather path is used instead.
PACKED_MIN_BLOCK = 4096

#: Pairs per unit of packed-gather work (256 KiB of each column), shared out
#: among the CPUs by :func:`_gather_bands`.  Each chunk costs two numpy calls
#: per column and band, and each call a GIL hand-off between the threads: on
#: two CPUs one ``ec_storage`` round (1 MiB blocks) took 44 / 34 / 29 / 27 ms
#: at 32K / 64K / 128K / 256K-pair chunks, against 42 ms for the one-thread
#: loop this replaced.  128K is the largest size that still leaves two chunks per
#: thread at 1 MiB, so a CPU busy elsewhere just claims fewer; an apply
#: that is one chunk in all runs on one thread.
GATHER_CHUNK = 1 << 17


def identity(size: int) -> np.ndarray:
    """Return the ``size`` x ``size`` identity matrix over GF(2^8)."""
    return np.eye(size, dtype=np.uint8)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two matrices over GF(2^8).

    One 3-D table gather produces every pairwise product and a single
    ``bitwise_xor.reduce`` contracts the shared axis; no Python-level loop.
    """
    rows_a, cols_a = a.shape
    rows_b, cols_b = b.shape
    if cols_a != rows_b:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
    if cols_a == 0:
        return np.zeros((rows_a, cols_b), dtype=np.uint8)
    products = _MUL_TABLE[a[:, :, None], b[None, :, :]]
    return np.bitwise_xor.reduce(products, axis=1)


def matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pre-kernel row-by-row multiplication, kept as the equivalence oracle."""
    rows_a, cols_a = a.shape
    rows_b, cols_b = b.shape
    if cols_a != rows_b:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
    result = np.zeros((rows_a, cols_b), dtype=np.uint8)
    for i in range(rows_a):
        row = result[i]
        for j in range(cols_a):
            galois.addmul_bytes(row, int(a[i, j]), b[j])
    return result


class BatchedMatvec:
    """A matrix compiled for repeated application to byte blocks.

    Compilation splits rows into *unit* rows (exactly one coefficient equal
    to 1 — the systematic passthrough rows every decode matrix of a
    systematic code contains), *zero* rows, and *dense* rows.  Unit rows
    are served by a copy, zero rows by ``zeros``; dense rows are grouped
    into bands of up to :data:`~repro.ec.galois.PACK_ROWS` and each band
    gets one packed pair table per column, built lazily on the first
    large-block apply.  A cached decode plan therefore pays the table cost
    on its first stripe and pure gather cost on every stripe after that.
    """

    __slots__ = ("matrix", "_row_kinds", "_dense_rows", "_bands", "_tables")

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
        rows, cols = self.matrix.shape
        # Per row: ("unit", source column) | ("zero", None) | ("dense", band slot).
        self._row_kinds: list[tuple[str, int | None]] = []
        dense: list[int] = []
        for i in range(rows):
            row = self.matrix[i]
            nonzero = np.nonzero(row)[0]
            if nonzero.size == 0:
                self._row_kinds.append(("zero", None))
            elif nonzero.size == 1 and row[nonzero[0]] == 1:
                self._row_kinds.append(("unit", int(nonzero[0])))
            else:
                self._row_kinds.append(("dense", len(dense)))
                dense.append(i)
        self._dense_rows = self.matrix[dense] if dense else np.zeros((0, cols), np.uint8)
        self._bands = [
            slice(base, min(base + PACK_ROWS, len(dense)))
            for base in range(0, len(dense), PACK_ROWS)
        ]
        self._tables: list[list[np.ndarray]] | None = None

    def _build_tables(self) -> list[list[np.ndarray]]:
        cols = self.matrix.shape[1]
        tables = [
            [packed_pair_table(self._dense_rows[band, j]) for j in range(cols)]
            for band in self._bands
        ]
        self._tables = tables
        return tables

    def apply(
        self, blocks: Sequence[np.ndarray], length: int | None = None
    ) -> list[np.ndarray]:
        """Apply the matrix to 1-D uint8 blocks, one per column.

        Blocks may differ in length.  Each reads as if zero-extended, or
        cut, to ``length`` (default: the longest block), which is every
        output row's length.  This is the one place the code knows that
        rule; no padded copy of a block is ever made.  Returns one fresh
        array per matrix row (safe to mutate).
        """
        rows, cols = self.matrix.shape
        if len(blocks) != cols:
            raise ValueError(f"matrix has {cols} columns but got {len(blocks)} blocks")
        if length is None:
            length = max((len(block) for block in blocks), default=0)
        if rows == 0:
            return []
        if cols == 0 or length == 0:
            return [np.zeros(length, dtype=np.uint8) for _ in range(rows)]
        if self._bands and length >= PACKED_MIN_BLOCK:
            dense = self._apply_packed(blocks, length)
        elif self._bands:
            dense = self._apply_small(blocks, length)
        else:
            dense = []
        out: list[np.ndarray] = []
        for kind, slot in self._row_kinds:
            if kind == "unit":
                source = blocks[slot][:length]
                row = np.zeros(length, dtype=np.uint8)
                row[: len(source)] = source
                out.append(row)
            elif kind == "zero":
                out.append(np.zeros(length, dtype=np.uint8))
            else:
                out.append(dense[slot])
        return out

    def _apply_packed(self, blocks: Sequence[np.ndarray], length: int) -> list[np.ndarray]:
        """Packed pair-gather path: one table gather per (band, column).

        Each block is gathered in place through the ``uint16`` view of its
        own whole pairs, cut to ``length``.  An odd-length block's last byte
        is the pair ``(byte, 0)``, so it costs one table entry; the output
        past a block's end takes nothing from that column, which is what
        zero-extension contributes (a zero byte's products are zero).  The
        whole-pair gathers run chunk by chunk on every usable CPU
        (:func:`_gather_bands`); the odd tails and the de-interleave follow.
        """
        tables = self._tables or self._build_tables()
        half, odd = divmod(length, 2)
        pairs = []
        tails = []
        for block in blocks:
            block = np.ascontiguousarray(block[:length])
            whole = len(block) // 2
            pairs.append(block[: 2 * whole].view(np.uint16))
            tails.append((whole, int(block[-1])) if len(block) % 2 else None)
        accumulators = [
            np.empty(half + odd, dtype=band_tables[0].dtype) for band_tables in tables
        ]
        _gather_bands(tables, pairs, accumulators, half)
        dense: list[np.ndarray] = []
        for band, band_tables, accumulator in zip(self._bands, tables, accumulators):
            accumulator[half:] = 0
            for table, tail in zip(band_tables, tails):
                if tail is not None:
                    accumulator[tail[0]] ^= table[tail[1]]
            span = band.stop - band.start
            # uint16 lane r of the accumulator is row r's output byte pair,
            # so de-interleaving is one uint16 transpose per band (and a
            # single-row band is already laid out correctly).
            if accumulator.itemsize == 2:
                dense.append(accumulator.view(np.uint8)[:length])
                continue
            lane_count = accumulator.itemsize // 2
            rows16 = np.ascontiguousarray(
                accumulator.view(np.uint16).reshape(-1, lane_count).T[:span]
            )
            row_bytes = rows16.view(np.uint8).reshape(span, -1)
            dense.extend(row_bytes[r, :length] for r in range(span))
        return dense

    def _apply_small(self, blocks: Sequence[np.ndarray], length: int) -> list[np.ndarray]:
        """Per-column gather path for payloads too small to amortise tables.

        Column ``j`` XORs into the first ``len(block)`` bytes only, so a
        short block reads as zero-extended.
        """
        out = np.zeros((self._dense_rows.shape[0], length), dtype=np.uint8)
        for j in range(self.matrix.shape[1]):
            block = blocks[j][:length]
            out[:, : len(block)] ^= _MUL_TABLE[self._dense_rows[:, j][:, None], block[None, :]]
        return list(out)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _gather_bands(
    tables: list[list[np.ndarray]],
    pairs: list[np.ndarray],
    accumulators: list[np.ndarray],
    half: int,
) -> None:
    """Set each band's ``accumulator[:half]`` to its whole-pair sum, on every CPU.

    The pair range is cut into :data:`GATHER_CHUNK`-pair chunks, each
    covering every band, which the calling thread and one helper per
    further usable CPU claim from one shared iterator until none is left
    (``np.take`` and ``^=`` release the GIL).  Each chunk writes only its
    own slices, so the bytes do not depend on which thread ran it, and a
    CPU that is busy elsewhere just claims fewer chunks.  With one usable
    CPU, or fewer than two chunks, the calling thread runs them all and no
    helper is started.
    """
    cpus = _usable_cpus()
    # Alone, a thread gathers the range in one piece: the fewest numpy calls.
    size = GATHER_CHUNK if cpus > 1 else half
    if len(tables) > 1:
        # A chunk gathers every band: cut at least one chunk per CPU.
        size = min(size, -(-half // cpus))
    chunks = [(lo, min(lo + size, half)) for lo in range(0, half, size)]
    widest = max(accumulators, key=lambda accumulator: accumulator.itemsize).dtype
    job = _GatherJob(tables, pairs, accumulators, chunks, size, widest)
    helpers = min(len(chunks), cpus) - 1
    if helpers > 0:
        _start_helpers(helpers)
        for _ in range(helpers):
            _jobs.put(job)
    job()
    job.finished.wait()
    if job.error is not None:
        raise job.error


class _GatherJob:
    """One apply's chunks, run by every thread that claims from its iterator."""

    def __init__(
        self,
        tables: list[list[np.ndarray]],
        pairs: list[np.ndarray],
        accumulators: list[np.ndarray],
        chunks: list[tuple[int, int]],
        size: int,
        dtype: np.dtype,
    ) -> None:
        self.tables = tables
        self.pairs = pairs
        self.accumulators = accumulators
        # Each thread's scratch row: one chunk of the widest band's entries.
        self.scratch_size = size
        self.scratch_dtype = dtype
        self.chunks = iter(chunks)
        self.unfinished = len(chunks)
        self.lock = threading.Lock()
        self.finished = threading.Event()
        self.error: BaseException | None = None

    def __call__(self) -> None:
        scratch = None
        for lo, hi in self.chunks:
            try:
                if scratch is None:
                    scratch = np.empty(self.scratch_size, dtype=self.scratch_dtype)
                _gather_chunk(self.tables, self.pairs, self.accumulators, lo, hi, scratch)
            except BaseException as error:  # re-raised by the applying thread
                self.error = error
            with self.lock:
                self.unfinished -= 1
                if not self.unfinished:
                    self.finished.set()


#: Gather jobs for the helper threads; ``None`` tells one helper to exit.
_jobs: queue.SimpleQueue = queue.SimpleQueue()
_helpers: list[threading.Thread] = []


def _helper_loop() -> None:
    while (job := _jobs.get()) is not None:
        job()


def _start_helpers(count: int) -> None:
    """Make sure at least ``count`` helper threads are running."""
    while len(_helpers) < count:
        thread = threading.Thread(target=_helper_loop, name="gf-gather", daemon=True)
        thread.start()
        _helpers.append(thread)


def _stop_helpers() -> None:
    """Stop and join every helper; runs before each ``fork``.

    A forked child holds only the forking thread, and Python 3.12 warns when
    a process with other threads forks, so no helper may be alive across
    one.  ``join`` returns once a thread's Python state is gone; the wait on
    ``/proc`` (Linux) covers the moment before its OS thread exits.  The
    next apply starts helpers again, in the parent and in the child.
    """
    for _ in _helpers:
        _jobs.put(None)
    for thread in _helpers:
        thread.join()
        while os.path.exists(f"/proc/self/task/{thread.native_id}"):
            os.sched_yield()
    _helpers.clear()


os.register_at_fork(before=_stop_helpers)


def _gather_chunk(
    tables: list[list[np.ndarray]],
    pairs: list[np.ndarray],
    accumulators: list[np.ndarray],
    lo: int,
    hi: int,
    scratch: np.ndarray,
) -> None:
    """Set each band's ``accumulator[lo:hi]`` to the XOR of every column's gathers.

    ``accumulator[lo:filled]`` holds the sum so far and the rest of the
    chunk is unset: a column that ends inside the chunk covers only its own
    pairs, and the end no column reached is zeroed last, which is what
    zero-extension contributes.  ``np.take`` converts ``uint16`` indices to
    ``intp`` on every call, so with several bands each column slice is
    converted once and its indices serve every band.
    """
    gather_rows = [scratch.view(accumulator.dtype) for accumulator in accumulators]
    shared = len(tables) > 1
    filled = lo
    # Pair indices never leave the 65536-entry table, so "wrap" is exact; it
    # spares numpy the buffered bounds check of an ``out`` gather.
    for j, column in enumerate(pairs):
        end = min(hi, len(column))
        if end <= lo:
            continue
        index = column[lo:end]
        if shared:
            index = index.astype(np.intp)
        for band_tables, accumulator, gather_row in zip(tables, accumulators, gather_rows):
            table = band_tables[j]
            if filled == lo:
                table.take(index, out=accumulator[lo:end], mode="wrap")
                continue
            gathered = gather_row[: end - lo]
            table.take(index, out=gathered, mode="wrap")
            if end <= filled:
                accumulator[lo:end] ^= gathered
            else:
                accumulator[lo:filled] ^= gathered[: filled - lo]
                accumulator[filled:end] = gathered[filled - lo :]
        filled = max(filled, end)
    for accumulator in accumulators:
        accumulator[filled:hi] = 0


def matvec_blocks_reference(
    matrix: np.ndarray, blocks: list[np.ndarray]
) -> list[np.ndarray]:
    """Pre-kernel per-(row, column) accumulation, kept as the oracle."""
    rows, cols = matrix.shape
    if cols != len(blocks):
        raise ValueError(f"matrix has {cols} columns but got {len(blocks)} blocks")
    if not blocks:
        return []
    length = len(blocks[0])
    for block in blocks:
        if len(block) != length:
            raise ValueError("all blocks must have equal length")
    outputs: list[np.ndarray] = []
    for i in range(rows):
        accumulator = np.zeros(length, dtype=np.uint8)
        for j in range(cols):
            galois.addmul_bytes(accumulator, int(matrix[i, j]), blocks[j])
        outputs.append(accumulator)
    return outputs


def invert(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(2^8) by Gauss-Jordan elimination.

    Pivot selection matches :func:`invert_reference` exactly (first nonzero
    entry at or below the diagonal), so singular inputs raise
    :class:`SingularMatrixError` naming the same column; per-column row
    elimination is a whole-matrix table gather instead of nested loops.
    """
    size, cols = matrix.shape
    if size != cols:
        raise ValueError(f"cannot invert non-square matrix of shape {matrix.shape}")
    work = np.ascontiguousarray(matrix, dtype=np.uint8).copy()
    inverse = np.eye(size, dtype=np.uint8)
    for col in range(size):
        nonzero = np.nonzero(work[col:, col])[0]
        if nonzero.size == 0:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        pivot_row = col + int(nonzero[0])
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inverse[[col, pivot_row]] = inverse[[pivot_row, col]]
        pivot_scale = _MUL_TABLE[galois.gf_inv(int(work[col, col]))]
        work[col] = pivot_scale[work[col]]
        inverse[col] = pivot_scale[inverse[col]]
        factors = work[:, col].copy()
        factors[col] = 0
        # Every remaining row eliminates in one shot; rows whose factor is
        # zero (including the pivot row itself) xor with zeros.
        work ^= _MUL_TABLE[factors[:, None], work[col][None, :]]
        inverse ^= _MUL_TABLE[factors[:, None], inverse[col][None, :]]
    return inverse


def invert_reference(matrix: np.ndarray) -> np.ndarray:
    """Pre-kernel scalar Gauss-Jordan elimination, kept as the oracle."""
    size, cols = matrix.shape
    if size != cols:
        raise ValueError(f"cannot invert non-square matrix of shape {matrix.shape}")
    work = matrix.astype(np.int32).copy()
    inverse = np.eye(size, dtype=np.int32)
    for col in range(size):
        pivot_row = -1
        for row in range(col, size):
            if work[row, col] != 0:
                pivot_row = row
                break
        if pivot_row < 0:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inverse[[col, pivot_row]] = inverse[[pivot_row, col]]
        pivot_inv = galois.gf_inv(int(work[col, col]))
        for j in range(size):
            work[col, j] = galois.gf_mul(int(work[col, j]), pivot_inv)
            inverse[col, j] = galois.gf_mul(int(inverse[col, j]), pivot_inv)
        for row in range(size):
            if row == col or work[row, col] == 0:
                continue
            factor = int(work[row, col])
            for j in range(size):
                work[row, j] ^= galois.gf_mul(factor, int(work[col, j]))
                inverse[row, j] ^= galois.gf_mul(factor, int(inverse[col, j]))
    return inverse.astype(np.uint8)


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """Return the ``rows`` x ``cols`` Vandermonde matrix ``V[i, j] = i**j``."""
    matrix = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            matrix[i, j] = galois.gf_pow(i, j)
    return matrix


def systematic_encoding_matrix(n: int, k: int) -> np.ndarray:
    """Build the ``n`` x ``k`` systematic generator matrix for RS(n, k).

    The construction starts from an ``n`` x ``k`` Vandermonde matrix and
    column-reduces it so the top ``k`` x ``k`` sub-matrix is the identity.
    Any ``k`` rows of the result remain linearly independent (the defining
    MDS property), which is what guarantees decode-from-any-k.
    """
    if not 0 < k <= n:
        raise ValueError(f"require 0 < k <= n, got n={n} k={k}")
    if n > galois.FIELD_SIZE:
        raise ValueError(f"n={n} exceeds field size {galois.FIELD_SIZE}")
    base = vandermonde(n, k)
    top = base[:k, :k]
    top_inverse = invert(top)
    return matmul(base, top_inverse)
