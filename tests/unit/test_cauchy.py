"""Unit and property tests for the Cauchy Reed-Solomon construction."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import matrix as gfm
from repro.ec.cauchy import CauchyReedSolomon, cauchy_generator_matrix
from repro.ec.codec import CodeParams, ErasureCodec
from repro.ec.reed_solomon import ReedSolomon


class TestGenerator:
    def test_systematic_top(self):
        g = cauchy_generator_matrix(6, 4)
        assert np.array_equal(g[:4], gfm.identity(4))

    def test_no_parity_degenerates_to_identity(self):
        assert np.array_equal(cauchy_generator_matrix(3, 3), gfm.identity(3))

    def test_bad_params(self):
        with pytest.raises(ValueError):
            cauchy_generator_matrix(2, 4)
        with pytest.raises(ValueError):
            cauchy_generator_matrix(300, 100)

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 4), (9, 6), (12, 10)])
    def test_mds_property(self, n, k):
        g = cauchy_generator_matrix(n, k)
        combos = list(itertools.combinations(range(n), k))
        if len(combos) > 60:
            combos = combos[:30] + combos[-30:]
        for rows in combos:
            gfm.invert(g[list(rows), :])  # must not raise


class TestCoding:
    def test_roundtrip(self):
        coder = CauchyReedSolomon(6, 4)
        natives = [bytes([i] * 16) for i in range(4)]
        stripe = natives + coder.encode(natives)
        recovered = coder.decode({0: stripe[0], 3: stripe[3], 4: stripe[4], 5: stripe[5]})
        assert recovered == natives

    def test_differs_from_vandermonde_but_both_decode(self):
        natives = [b"block-one!!!", b"block-two!!!"]
        cauchy = CauchyReedSolomon(4, 2)
        vandermonde = ReedSolomon(4, 2)
        parity_c = cauchy.encode(natives)
        parity_v = vandermonde.encode(natives)
        assert parity_c != parity_v  # different constructions
        assert cauchy.decode({2: parity_c[0], 3: parity_c[1]}) == natives
        assert vandermonde.decode({2: parity_v[0], 3: parity_v[1]}) == natives


class TestCodecIntegration:
    def test_codec_algorithm_selection(self):
        codec = ErasureCodec(CodeParams(4, 2), algorithm="cauchy")
        assert codec.algorithm == "cauchy"
        stripe = codec.encode_stripes([[b"dataA", b"dataB"]])[0]
        rebuilt = codec.degraded_read(0, {1: stripe[1], 3: stripe[3]}, lost_length=5)
        assert rebuilt == b"dataA"

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ErasureCodec(CodeParams(4, 2), algorithm="fountain")


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
        st.randoms(use_true_random=False),
    )
    def test_any_k_subset_decodes(self, k, parity, pyrandom):
        n = k + parity
        coder = CauchyReedSolomon(n, k)
        natives = [bytes(pyrandom.randrange(256) for _ in range(12)) for _ in range(k)]
        stripe = natives + coder.encode(natives)
        survivors = pyrandom.sample(range(n), k)
        assert coder.decode({i: stripe[i] for i in survivors}) == natives
