"""Systematic Reed-Solomon coding over GF(2^8).

An ``RS(n, k)`` code turns ``k`` *native* blocks into ``n - k`` *parity*
blocks such that any ``k`` of the ``n`` stripe blocks suffice to rebuild the
originals.  This is exactly the contract HDFS-RAID relies on for degraded
reads, and the contract the paper's scheduling analysis assumes.

The implementation is matrix-based: a systematic ``n x k`` generator matrix
(top ``k`` rows = identity) encodes, and decoding inverts the ``k x k``
sub-matrix formed by the rows of whichever ``k`` blocks survived.

Decode plans are cached per coder instance: repairing or degraded-reading
every stripe of a failed node hits the same surviving-index pattern over and
over, so the sub-matrix inversion (and the compiled
:class:`~repro.ec.matrix.BatchedMatvec` with its packed gather tables) is
paid once per pattern, not once per stripe.  Single-block reconstruction
(:meth:`ReedSolomon.reconstruct_block`) uses a cached one-row plan — one
``k``-term matvec — instead of a full decode followed by a re-encode.  The
caches never need invalidation because the generator matrix is immutable
after construction (:attr:`ReedSolomon.generator_matrix` returns a copy).

HDFS-RAID stripes are ragged: line-aligned natives differ in length and a
file's last stripe may hold fewer than ``k``.  Such blocks read as
zero-padded to the stripe's coding length, and that padding happens only
inside the kernel (:meth:`~repro.ec.matrix.BatchedMatvec.apply`), which
zero-extends short blocks; this module never pads or slices a block.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.ec import matrix as gfm

#: Maximum cached decode plans (and, separately, single-row plans) per coder.
#: A node failure exercises at most ``n`` distinct surviving patterns per
#: lost position, so 128 covers realistic repair sweeps with room to spare.
PLAN_CACHE_SIZE = 128

#: The one-row identity: serves a "reconstruction" of a block that survived.
_PASSTHROUGH = gfm.BatchedMatvec(gfm.identity(1))


def _as_byte_array(block: bytes | bytearray | np.ndarray) -> np.ndarray:
    """Coerce a block payload to a 1-D uint8 numpy array without copying numpy input."""
    if isinstance(block, np.ndarray):
        if block.dtype != np.uint8 or block.ndim != 1:
            raise ValueError("numpy blocks must be 1-D uint8 arrays")
        return block
    return np.frombuffer(bytes(block), dtype=np.uint8)


@dataclass
class _DecodePlan:
    """A cached decode: the inverted sub-matrix plus its compiled matvec."""

    indices: tuple[int, ...]
    decode_matrix: np.ndarray
    matvec: gfm.BatchedMatvec


class ReedSolomon:
    """A systematic RS(n, k) encoder/decoder.

    Parameters
    ----------
    n:
        Total number of blocks per stripe (native + parity).
    k:
        Number of native blocks per stripe.
    """

    def __init__(self, n: int, k: int) -> None:
        if not 0 < k <= n:
            raise ValueError(f"require 0 < k <= n, got n={n} k={k}")
        self.n = n
        self.k = k
        self._generator = gfm.systematic_encoding_matrix(n, k)
        self._encoder: gfm.BatchedMatvec | None = None
        self._plans: OrderedDict[tuple[int, ...], _DecodePlan] = OrderedDict()
        self._row_plans: OrderedDict[
            tuple[int, tuple[int, ...]], gfm.BatchedMatvec
        ] = OrderedDict()
        self._plan_hits = 0
        self._plan_misses = 0
        self._row_hits = 0
        self._row_misses = 0

    @property
    def generator_matrix(self) -> np.ndarray:
        """A copy of the ``n x k`` systematic generator matrix."""
        return self._generator.copy()

    def plan_cache_info(self) -> dict[str, int]:
        """Decode-plan cache statistics (sizes and hit/miss counters)."""
        return {
            "plans": len(self._plans),
            "plan_hits": self._plan_hits,
            "plan_misses": self._plan_misses,
            "row_plans": len(self._row_plans),
            "row_hits": self._row_hits,
            "row_misses": self._row_misses,
            "maxsize": PLAN_CACHE_SIZE,
        }

    def _encoder_plan(self) -> gfm.BatchedMatvec:
        """The compiled parity-row matvec, built once per coder."""
        encoder = self._encoder
        if encoder is None:
            encoder = self._encoder = gfm.BatchedMatvec(self._generator[self.k :])
        return encoder

    def _decode_plan(self, indices: tuple[int, ...]) -> _DecodePlan:
        """Fetch (or invert and cache) the decode plan for a surviving pattern."""
        plan = self._plans.get(indices)
        if plan is not None:
            self._plans.move_to_end(indices)
            self._plan_hits += 1
            return plan
        self._plan_misses += 1
        sub_matrix = self._generator[list(indices), :]
        decode_matrix = gfm.invert(sub_matrix)
        plan = _DecodePlan(indices, decode_matrix, gfm.BatchedMatvec(decode_matrix))
        self._plans[indices] = plan
        if len(self._plans) > PLAN_CACHE_SIZE:
            self._plans.popitem(last=False)
        return plan

    def _row_plan(
        self, stripe_index: int, indices: tuple[int, ...]
    ) -> gfm.BatchedMatvec:
        """Fetch (or derive and cache) the one-row reconstruction plan.

        The row that rebuilds stripe block ``i`` from survivors ``indices``
        is row ``i`` of the decode matrix when ``i < k`` (a native), and
        ``generator[i] @ decode_matrix`` when ``i`` is parity — the re-encode
        folded into the plan so reconstruction is a single k-term matvec.
        """
        key = (stripe_index, indices)
        plan = self._row_plans.get(key)
        if plan is not None:
            self._row_plans.move_to_end(key)
            self._row_hits += 1
            return plan
        self._row_misses += 1
        decode_matrix = self._decode_plan(indices).decode_matrix
        if stripe_index < self.k:
            row = decode_matrix[stripe_index : stripe_index + 1]
        else:
            row = gfm.matmul(
                self._generator[stripe_index : stripe_index + 1], decode_matrix
            )
        plan = gfm.BatchedMatvec(row)
        self._row_plans[key] = plan
        if len(self._row_plans) > PLAN_CACHE_SIZE:
            self._row_plans.popitem(last=False)
        return plan

    def encode(self, native_blocks: Sequence[bytes | np.ndarray]) -> list[bytes]:
        """Encode ``k`` equal-length native blocks into ``n - k`` parity blocks.

        Returns the parity blocks only; a full stripe is
        ``list(native_blocks) + parity``.
        """
        if len(native_blocks) != self.k:
            raise ValueError(f"expected {self.k} native blocks, got {len(native_blocks)}")
        arrays = [_as_byte_array(block) for block in native_blocks]
        lengths = {len(array) for array in arrays}
        if len(lengths) > 1:
            raise ValueError(f"native blocks have unequal lengths: {sorted(lengths)}")
        parity_arrays = self._encoder_plan().apply(arrays)
        return [array.tobytes() for array in parity_arrays]

    def encode_stripes(
        self, stripes: Sequence[Sequence[bytes | np.ndarray]]
    ) -> list[list[bytes]]:
        """Encode many stripes, each of ``k`` equal-length native blocks.

        Lengths may vary *across* stripes.  The stripes are validated and
        handed to :meth:`encode_ragged`.  Returns one ``n - k``-entry parity
        list per input stripe.
        """
        for stripe in stripes:
            if len(stripe) != self.k:
                raise ValueError(
                    f"expected {self.k} native blocks per stripe, got {len(stripe)}"
                )
            lengths = {len(block) for block in stripe}
            if len(lengths) > 1:
                raise ValueError(f"native blocks have unequal lengths: {sorted(lengths)}")
        return self.encode_ragged(stripes)

    def encode_ragged(
        self, stripes: Sequence[Sequence[bytes | np.ndarray]]
    ) -> list[list[bytes]]:
        """Parity of stripes of at most ``k`` natives of unequal lengths.

        A stripe's coding length is its longest native; a shorter native
        reads as zero-extended to it and a missing one (a short final
        stripe) as all zeros.  Each stripe is one parity matvec over its
        natives as they are, missing ones passed as empty arrays: the
        kernel does the zero-extension, so nothing is padded or stacked.

        Returns one ``n - k``-entry parity list per input stripe, each block
        as long as its stripe's coding length.
        """
        encoder = self._encoder_plan()
        missing = np.zeros(0, dtype=np.uint8)
        return [
            [
                parity.tobytes()
                for parity in encoder.apply(
                    [_as_byte_array(block) for block in stripe]
                    + [missing] * (self.k - len(stripe))
                )
            ]
            for stripe in stripes
        ]

    def _decode_inputs(
        self, available: Mapping[int, bytes | np.ndarray]
    ) -> tuple[tuple[int, ...], list[np.ndarray]]:
        """Validate survivors and return the chosen indices plus their payloads."""
        if len(available) < self.k:
            raise ValueError(
                f"need at least k={self.k} blocks to decode, got {len(available)}"
            )
        indices = tuple(sorted(available)[: self.k])
        for index in indices:
            if not 0 <= index < self.n:
                raise ValueError(f"stripe index {index} out of range [0, {self.n})")
        return indices, [_as_byte_array(available[index]) for index in indices]

    def decode(self, available: Mapping[int, bytes | np.ndarray]) -> list[bytes]:
        """Reconstruct all ``k`` native blocks from any ``k`` stripe blocks.

        Parameters
        ----------
        available:
            Maps stripe index (``0 .. n-1``; indices below ``k`` are native,
            the rest parity) to the surviving block payload.  At least ``k``
            entries are required; exactly the first ``k`` sorted by index are
            used, matching the paper's "read from any k surviving nodes".
            The chosen blocks must have equal lengths.
        """
        indices, arrays = self._decode_inputs(available)
        lengths = {len(array) for array in arrays}
        if len(lengths) > 1:
            raise ValueError(f"blocks have unequal lengths: {sorted(lengths)}")
        return [
            array.tobytes() for array in self._decode_plan(indices).matvec.apply(arrays)
        ]

    def reconstruct_block(
        self,
        stripe_index: int,
        available: Mapping[int, bytes | np.ndarray],
        length: int | None = None,
    ) -> bytes:
        """Rebuild one block (native or parity) of the stripe.

        This is the degraded-read primitive: a degraded task downloads ``k``
        surviving blocks and reconstructs exactly the lost one — a single
        cached k-term matvec, not a full decode plus re-encode.  Survivors
        may differ in length; each reads as zero-extended, and the result
        is ``length`` bytes long (default: the longest chosen survivor).
        """
        if not 0 <= stripe_index < self.n:
            raise ValueError(f"stripe index {stripe_index} out of range [0, {self.n})")
        if stripe_index in available:
            plan = _PASSTHROUGH
            arrays = [_as_byte_array(available[stripe_index])]
        else:
            indices, arrays = self._decode_inputs(available)
            plan = self._row_plan(stripe_index, indices)
        return plan.apply(arrays, length)[0].tobytes()
