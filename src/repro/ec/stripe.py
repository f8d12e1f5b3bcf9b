"""Stripe positions and the paper's block-naming scheme.

The paper names the blocks of stripe ``i`` as ``B_{i,0} .. B_{i,k-1}``
(native) and ``P_{i,0} .. P_{i,n-k-1}`` (parity).  :class:`BlockKind` and
:func:`block_name` carry that convention, so that the storage layer's
:class:`~repro.storage.block.BlockId`, the scheduler examples and the tests
all agree on which block is which.
"""

from __future__ import annotations

import enum


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
