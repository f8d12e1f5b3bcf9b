"""High-level erasure-codec facade used by the storage layer.

:class:`CodeParams` is the ``(n, k)`` pair that appears everywhere in the
paper; :class:`ErasureCodec` bundles those parameters with a concrete
Reed-Solomon coder, and exposes batched stripe encode / degraded-read
operations.
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


#: Supported coding constructions.
ALGORITHMS = ("vandermonde", "cauchy")


class ErasureCodec:
    """Encodes files into stripes and serves degraded reads.

    Parameters
    ----------
    params:
        The ``(n, k)`` code parameters.
    algorithm:
        ``"vandermonde"`` (the default systematic Reed-Solomon) or
        ``"cauchy"`` (Cauchy Reed-Solomon, the paper's reference [3]).
        Both are MDS; the choice changes parity bytes, never guarantees.
    """

    def __init__(self, params: CodeParams, algorithm: str = "vandermonde") -> None:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
        self.params = params
        self.algorithm = algorithm
        # Imported here, not at module level: the simulator and the CLI need
        # only CodeParams; the coders pull in numpy and the GF(2^8) tables.
        if algorithm == "cauchy":
            from repro.ec.cauchy import CauchyReedSolomon as coder_class
        else:
            from repro.ec.reed_solomon import ReedSolomon as coder_class
        self._coder: ReedSolomon = coder_class(params.n, params.k)

    @property
    def coder(self) -> ReedSolomon:
        """The underlying coder (shared decode-plan caches live here)."""
        return self._coder

    def encode_stripes(
        self, stripe_natives: Sequence[Sequence[bytes]]
    ) -> list[list[bytes]]:
        """Encode many stripes in one batched kernel pass.

        Blocks may have unequal lengths (line-aligned splitting produces
        them) and the final stripe may hold fewer than ``k``.  Nothing is
        padded here: the blocks go to the coder as they are, and
        :meth:`~repro.ec.reed_solomon.ReedSolomon.encode_ragged` zero-fills
        its stack, which stands in for padding every block to its stripe's
        longest and a short stripe to ``k`` blocks with empty ones, as
        HDFS-RAID pads trailing groups.  The returned native blocks are the
        input objects; a short stripe's missing natives are empty
        placeholders, and parity blocks carry the stripe's coding length.
        All parity for a whole file is produced by a single matvec over
        the stack, which is what makes the testbed's ``write_file`` cheap.
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
        ``k`` surviving blocks of the stripe.  Survivors of unequal length
        (unpadded natives) are re-padded to the coding length first;
        ``lost_length`` truncates the reconstruction back to the lost
        block's true size.
        """
        padded = self._pad_to_coding_length(available)
        rebuilt = self._coder.reconstruct_block(lost_position, padded)
        if lost_length is not None:
            if lost_length > len(rebuilt):
                raise ValueError(
                    f"lost block length {lost_length} exceeds coding length {len(rebuilt)}"
                )
            rebuilt = rebuilt[:lost_length]
        return rebuilt

    @staticmethod
    def _pad_to_coding_length(available: Mapping[int, bytes]) -> dict[int, bytes]:
        """Zero-pad survivors to their common (parity) length."""
        if not available:
            return {}
        length = max(len(block) for block in available.values())
        return {
            position: block.ljust(length, b"\0")
            for position, block in available.items()
        }
