"""Unit and property tests for GF(2^8) arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ec import galois

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestBasics:
    def test_mul_by_zero(self):
        assert galois.gf_mul(0, 123) == 0
        assert galois.gf_mul(123, 0) == 0

    def test_mul_by_one(self):
        for value in (1, 2, 77, 255):
            assert galois.gf_mul(1, value) == value

    def test_known_product(self):
        # 2 * 2 = 4 as polynomials (no reduction needed).
        assert galois.gf_mul(2, 2) == 4
        # x^7 * x = x^8 = x^4 + x^3 + x^2 + 1 = 0x1D under 0x11D.
        assert galois.gf_mul(0x80, 2) == 0x1D

    def test_inv_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            galois.gf_inv(0)

    def test_pow_zero_exponent(self):
        assert galois.gf_pow(0, 0) == 1
        assert galois.gf_pow(7, 0) == 1

    def test_pow_of_zero(self):
        assert galois.gf_pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            galois.gf_pow(0, -1)

    def test_pow_matches_repeated_mul(self):
        value = 1
        for exponent in range(1, 10):
            value = galois.gf_mul(value, 3)
            assert galois.gf_pow(3, exponent) == value

    def test_pow_negative_exponent(self):
        assert galois.gf_pow(7, -1) == galois.gf_inv(7)


class TestFieldAxioms:
    @given(elements, elements)
    def test_mul_commutative(self, a, b):
        assert galois.gf_mul(a, b) == galois.gf_mul(b, a)

    @given(elements, elements, elements)
    def test_mul_associative(self, a, b, c):
        left = galois.gf_mul(galois.gf_mul(a, b), c)
        right = galois.gf_mul(a, galois.gf_mul(b, c))
        assert left == right

    @given(elements, elements, elements)
    def test_distributive(self, a, b, c):
        # Field addition is XOR.
        left = galois.gf_mul(a, b ^ c)
        right = galois.gf_mul(a, b) ^ galois.gf_mul(a, c)
        assert left == right

    @given(nonzero)
    def test_inverse_roundtrip(self, a):
        assert galois.gf_mul(a, galois.gf_inv(a)) == 1

    @given(elements, nonzero)
    def test_div_inverts_mul(self, a, b):
        assert galois.gf_mul(galois.gf_mul(a, b), galois.gf_inv(b)) == a


class TestVectorised:
    @given(elements, st.lists(elements, min_size=1, max_size=32))
    def test_addmul_matches_scalar(self, coefficient, values):
        data = np.array(values, dtype=np.uint8)
        accumulator = np.zeros(len(values), dtype=np.uint8)
        galois.addmul_bytes(accumulator, coefficient, data)
        expected = [galois.gf_mul(coefficient, value) for value in values]
        assert accumulator.tolist() == expected

    def test_addmul_accumulates_xor(self):
        accumulator = np.array([0xFF, 0x00], dtype=np.uint8)
        galois.addmul_bytes(accumulator, 1, np.array([0x0F, 0xF0], dtype=np.uint8))
        assert accumulator.tolist() == [0xF0, 0xF0]
