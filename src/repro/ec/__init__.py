"""Erasure-coding substrate.

This package implements, from scratch, everything the paper's storage layer
(HDFS-RAID) needs from an erasure code:

* :mod:`repro.ec.galois` -- arithmetic over GF(2^8) with log/antilog tables.
* :mod:`repro.ec.matrix` -- dense matrices over GF(2^8), including inversion
  and the Vandermonde-based systematic generator.
* :mod:`repro.ec.reed_solomon` -- HDFS-RAID's systematic Reed-Solomon
  ``(n, k)`` coder, able to decode the original data from *any* ``k`` of the
  ``n`` blocks; the one code construction the storage layer uses.
* :mod:`repro.ec.codec` -- the :class:`~repro.ec.codec.ErasureCodec` facade
  used by the storage layer, parameterised by
  :class:`~repro.ec.codec.CodeParams`.
* :mod:`repro.ec.stripe` -- native/parity positions and the ``B_{i,j}`` /
  ``P_{i,j}`` block-naming scheme used throughout the paper's examples.

Importing the package loads only ``codec`` and ``stripe`` (pure Python; the
simulator and the CLI need just ``CodeParams``).  ``galois``, ``matrix`` and
``reed_solomon`` -- with them numpy and the field tables -- load on the first
``ErasureCodec(...)`` or the first touch of ``repro.ec.ReedSolomon``.
"""

from repro.ec.codec import CodeParams, ErasureCodec
from repro.ec.stripe import BlockKind, block_name

__all__ = [
    "BlockKind",
    "CodeParams",
    "ErasureCodec",
    "ReedSolomon",
    "block_name",
]


def __getattr__(name: str):
    """Resolve ``ReedSolomon`` on first touch; nothing else here needs numpy."""
    if name != "ReedSolomon":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.ec.reed_solomon import ReedSolomon

    return ReedSolomon
