"""Arithmetic over the finite field GF(2^8).

The field is realised as polynomials over GF(2) modulo the primitive
polynomial ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D), the same polynomial used by
most storage erasure-code implementations (e.g. Jerasure, ISA-L).  Field
elements are the integers ``0..255``.

Multiplication and inversion go through precomputed log/antilog tables,
which makes single-element operations O(1) and lets the vectorised helper
:func:`addmul_bytes` run over numpy arrays for block-sized payloads.
"""

from __future__ import annotations

import numpy as np

#: Primitive polynomial for GF(2^8): x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLYNOMIAL = 0x11D

#: The multiplicative order of the field, i.e. ``2**8 - 1``.
FIELD_ORDER = 255

#: Number of elements in the field.
FIELD_SIZE = 256


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build the antilog (exponent) and log tables for GF(2^8).

    Returns a pair ``(exp, log)`` where ``exp[i] == g**i`` for the generator
    ``g = 2`` and ``log[exp[i]] == i``.  The ``exp`` table is doubled in
    length so that ``exp[log[a] + log[b]]`` never needs an explicit modulo.
    """
    exp = np.zeros(2 * FIELD_ORDER, dtype=np.uint8)
    log = np.zeros(FIELD_SIZE, dtype=np.int32)
    value = 1
    for power in range(FIELD_ORDER):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLYNOMIAL
    exp[FIELD_ORDER:] = exp[:FIELD_ORDER]
    return exp, log


_EXP, _LOG = _build_tables()

#: Full 256x256 multiplication table, used by the vectorised helpers.
_MUL_TABLE = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
_MUL_TABLE[1:, 1:] = _EXP[_LOG[1:, None] + _LOG[None, 1:]]


def gf_mul(a: int, b: int) -> int:
    """Return the product of two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP[_LOG[a] + _LOG[b]])


def gf_inv(a: int) -> int:
    """Return the multiplicative inverse of ``a``.

    Raises :class:`ZeroDivisionError` for ``a == 0``, which has no inverse.
    """
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(2^8)")
    return int(_EXP[FIELD_ORDER - _LOG[a]])


def gf_pow(a: int, exponent: int) -> int:
    """Return ``a`` raised to an arbitrary integer power."""
    if a == 0:
        if exponent == 0:
            return 1
        if exponent < 0:
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        return 0
    reduced = (_LOG[a] * exponent) % FIELD_ORDER
    return int(_EXP[reduced])


#: Rows a packed pair-table can carry: four ``uint16`` product lanes fit in
#: the widest (``uint64``) table entry.
PACK_ROWS = 4

#: Narrowest table dtype that fits ``span`` packed rows (two product bytes
#: per row: one per input byte of the pair index).
_PACK_DTYPES = {1: np.uint16, 2: np.uint32, 3: np.uint64, 4: np.uint64}


def packed_pair_table(coefficients: np.ndarray) -> np.ndarray:
    """Build the pair-indexed product table for up to :data:`PACK_ROWS` rows.

    The returned table ``T`` has 65536 entries of the narrowest unsigned
    dtype that fits the rows.  Indexing it with the little-endian ``uint16``
    view of a byte block gives, in one gather, the products of *both* bytes
    of the pair by *every* coefficient: ``uint16`` lane ``r`` of ``T[pair]``
    is ``coefficients[r] * low_byte | (coefficients[r] * high_byte) << 8``
    — i.e. lane ``r`` is already the output byte pair of row ``r``.  One
    gather therefore performs up to ``2 * PACK_ROWS`` scalar multiplications
    and the result de-interleaves with a single ``uint16`` transpose, which
    is what makes the batched matvec kernel fast: gather cost is per
    *element*, not per byte of output.
    """
    span = len(coefficients)
    if not 0 < span <= PACK_ROWS:
        raise ValueError(f"can pack 1..{PACK_ROWS} rows, got {span}")
    dtype = _PACK_DTYPES[span]
    table = np.zeros(FIELD_SIZE * FIELD_SIZE, dtype=dtype)
    for row, coefficient in enumerate(coefficients):
        products = _MUL_TABLE[coefficient]
        # Axis 0 is the high byte of the little-endian uint16 index, axis 1
        # the low byte, so ravel order matches ``uint16 = low | high << 8``.
        lane = products[None, :].astype(np.uint16) | (
            products[:, None].astype(np.uint16) << 8
        )
        table |= lane.astype(dtype).ravel() << dtype(16 * row)
    return table


def addmul_bytes(accumulator: np.ndarray, coefficient: int, data: np.ndarray) -> None:
    """In-place ``accumulator ^= coefficient * data`` over byte arrays.

    This is the inner loop of Reed-Solomon encoding and decoding; keeping it
    as a single fused numpy expression is what makes block-sized coding
    practical in pure Python.
    """
    if coefficient == 0:
        return
    if coefficient == 1:
        np.bitwise_xor(accumulator, data, out=accumulator)
        return
    np.bitwise_xor(accumulator, _MUL_TABLE[coefficient][data], out=accumulator)
