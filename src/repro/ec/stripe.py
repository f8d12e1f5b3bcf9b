"""Stripe layout and the paper's block-naming scheme.

The paper names the blocks of stripe ``i`` as ``B_{i,0} .. B_{i,k-1}``
(native) and ``P_{i,0} .. P_{i,n-k-1}`` (parity).  :class:`StripeLayout`
carries the arithmetic between flat file offsets, stripe ids and positions,
so that the storage layer, the scheduler examples and the tests all agree on
which block is which.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class BlockKind(enum.Enum):
    """Whether a stripe position holds original data or redundancy."""

    NATIVE = "native"
    PARITY = "parity"


def block_name(stripe_id: int, position: int, k: int) -> str:
    """Return the paper's name for the block at ``position`` of ``stripe_id``.

    Positions ``0 .. k-1`` are native (``B_{i,j}``); the rest are parity
    (``P_{i,j}``).
    """
    if position < 0:
        raise ValueError(f"negative stripe position {position}")
    if position < k:
        return f"B_{{{stripe_id},{position}}}"
    return f"P_{{{stripe_id},{position - k}}}"


@dataclass(frozen=True)
class StripeLayout:
    """Maps between native-block sequence numbers and stripe coordinates.

    Parameters
    ----------
    n:
        Stripe width (native + parity blocks).
    k:
        Native blocks per stripe.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if not 0 < self.k <= self.n:
            raise ValueError(f"require 0 < k <= n, got n={self.n} k={self.k}")

    @property
    def parity_per_stripe(self) -> int:
        """Parity blocks per stripe (``n - k``)."""
        return self.n - self.k

    def stripe_count(self, native_blocks: int) -> int:
        """Number of stripes needed to hold ``native_blocks`` native blocks.

        The last stripe may be partially filled; HDFS-RAID pads it.
        """
        if native_blocks < 0:
            raise ValueError(f"negative native block count {native_blocks}")
        return -(-native_blocks // self.k)

    def total_blocks(self, native_blocks: int) -> int:
        """Total stored blocks (native + parity) for ``native_blocks`` natives."""
        return native_blocks + self.stripe_count(native_blocks) * self.parity_per_stripe

    def native_index(self, stripe_id: int, position: int) -> int:
        """Index of the native block at ``(stripe_id, position)``."""
        if not 0 <= position < self.k:
            raise ValueError(f"position {position} is not a native position (k={self.k})")
        return stripe_id * self.k + position

    def kind(self, position: int) -> BlockKind:
        """Classify a stripe position as native or parity."""
        if not 0 <= position < self.n:
            raise ValueError(f"position {position} out of range [0, {self.n})")
        if position < self.k:
            return BlockKind.NATIVE
        return BlockKind.PARITY

    def name(self, stripe_id: int, position: int) -> str:
        """The paper's name for the block at ``(stripe_id, position)``."""
        return block_name(stripe_id, position, self.k)
