"""High-level erasure-codec facade used by the storage layer.

:class:`CodeParams` is the ``(n, k)`` pair that appears everywhere in the
paper; :class:`ErasureCodec` bundles those parameters with the systematic
Reed-Solomon coder, and exposes batched stripe encode / degraded-read
operations.  Blocks pass through unpadded: the GF kernel zero-extends short
ones (see :mod:`repro.ec.reed_solomon`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.ec.reed_solomon import ReedSolomon


@dataclass(frozen=True)
class CodeParams:
    """An ``(n, k)`` erasure-code parameterisation.

    ``k`` native blocks are encoded into ``n - k`` parity blocks; any ``k``
    of the ``n`` blocks recover the natives.  The paper's rack-failure
    tolerance requirement additionally demands ``n - k >= 2``; that rule is
    enforced by the placement policy, not here, so that unit tests can build
    degenerate codes.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if not 0 < self.k <= self.n:
            raise ValueError(f"require 0 < k <= n, got n={self.n} k={self.k}")
        if self.n > 256:
            raise ValueError(f"n={self.n} exceeds GF(2^8) field size")

    @property
    def parity(self) -> int:
        """Parity blocks per stripe."""
        return self.n - self.k

    def __str__(self) -> str:
        return f"({self.n},{self.k})"


class ErasureCodec:
    """Encodes files into stripes and serves degraded reads.

    The coder is HDFS-RAID's systematic Reed-Solomon code
    (:class:`~repro.ec.reed_solomon.ReedSolomon`), the one construction
    every experiment of the paper stores data with.

    Parameters
    ----------
    params:
        The ``(n, k)`` code parameters.
    """

    def __init__(self, params: CodeParams) -> None:
        self.params = params
        # Imported here, not at module level: the simulator and the CLI need
        # only CodeParams; the coder pulls in numpy and the GF(2^8) tables.
        from repro.ec import reed_solomon

        self._coder = reed_solomon.ReedSolomon(params.n, params.k)

    @property
    def coder(self) -> ReedSolomon:
        """The underlying coder (shared decode-plan caches live here)."""
        return self._coder

    def encode_stripes(
        self, stripe_natives: Sequence[Sequence[bytes]]
    ) -> list[list[bytes]]:
        """Encode many stripes of possibly ragged natives.

        Blocks may have unequal lengths (line-aligned splitting produces
        them) and the final stripe may hold fewer than ``k``.  Nothing is
        padded here or in the coder: the GF kernel
        (:meth:`~repro.ec.matrix.BatchedMatvec.apply`) reads a short block
        as zero-extended to its stripe's longest and a missing one as all
        zeros, as HDFS-RAID pads trailing groups.  The returned native
        blocks are the input objects; a short stripe's missing natives are
        empty placeholders, and parity blocks carry the stripe's coding
        length.
        """
        for native_blocks in stripe_natives:
            if not 0 < len(native_blocks) <= self.params.k:
                raise ValueError(
                    f"stripe needs 1..{self.params.k} native blocks,"
                    f" got {len(native_blocks)}"
                )
        parity_per_stripe = self._coder.encode_ragged(stripe_natives)
        stripes: list[list[bytes]] = []
        for native_blocks, parity in zip(stripe_natives, parity_per_stripe):
            placeholders = [b""] * (self.params.k - len(native_blocks))
            stripes.append(list(native_blocks) + placeholders + parity)
        return stripes

    def degraded_read(
        self,
        lost_position: int,
        available: Mapping[int, bytes],
        lost_length: int | None = None,
    ) -> bytes:
        """Reconstruct the block at ``lost_position`` from ``k`` survivors.

        This is the operation a *degraded task* performs after downloading
        ``k`` surviving blocks of the stripe.  Survivors may be shorter than
        the coding length (unpadded natives); the kernel reads them as
        zero-extended.  ``lost_length`` is the lost block's true size, at
        most the coding length (the longest survivor); without it the
        reconstruction is coding-length long.
        """
        coding_length = max((len(block) for block in available.values()), default=0)
        if lost_length is None:
            lost_length = coding_length
        elif lost_length > coding_length:
            raise ValueError(
                f"lost block length {lost_length} exceeds coding length {coding_length}"
            )
        return self._coder.reconstruct_block(lost_position, available, lost_length)
