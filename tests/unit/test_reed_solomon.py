"""Unit and property tests for the Reed-Solomon coder."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.reed_solomon import ReedSolomon


def make_stripe(coder: ReedSolomon, payloads: list[bytes]) -> list[bytes]:
    return list(payloads) + coder.encode(payloads)


class TestEncode:
    def test_encode_wrong_count(self):
        coder = ReedSolomon(4, 2)
        with pytest.raises(ValueError):
            coder.encode([b"ab"])

    def test_encode_unequal_lengths(self):
        coder = ReedSolomon(4, 2)
        with pytest.raises(ValueError):
            coder.encode([b"ab", b"abc"])

    def test_bad_params(self):
        with pytest.raises(ValueError):
            ReedSolomon(2, 3)
        with pytest.raises(ValueError):
            ReedSolomon(4, 0)

    def test_single_parity_recovers_either_native(self):
        """With one parity block, the code still repairs any single loss."""
        coder = ReedSolomon(3, 2)
        a, b = b"\x0f\xf0", b"\xff\x00"
        (parity,) = coder.encode([a, b])
        assert coder.reconstruct_block(0, {1: b, 2: parity}) == a
        assert coder.reconstruct_block(1, {0: a, 2: parity}) == b

    def test_generator_matrix_is_copy(self):
        coder = ReedSolomon(4, 2)
        g = coder.generator_matrix
        g[0, 0] ^= 1
        assert coder.generator_matrix[0, 0] != g[0, 0]


class TestDecode:
    def test_decode_from_parities_only(self):
        coder = ReedSolomon(4, 2)
        natives = [b"hello!", b"world."]
        stripe = make_stripe(coder, natives)
        recovered = coder.decode({2: stripe[2], 3: stripe[3]})
        assert recovered == natives

    def test_decode_mixed(self):
        coder = ReedSolomon(6, 4)
        natives = [bytes([i] * 8) for i in range(4)]
        stripe = make_stripe(coder, natives)
        recovered = coder.decode({0: stripe[0], 2: stripe[2], 4: stripe[4], 5: stripe[5]})
        assert recovered == natives

    def test_decode_needs_k(self):
        coder = ReedSolomon(4, 2)
        with pytest.raises(ValueError):
            coder.decode({0: b"xx"})

    def test_decode_bad_index(self):
        coder = ReedSolomon(4, 2)
        with pytest.raises(ValueError):
            coder.decode({0: b"xx", 9: b"yy"})

    def test_decode_unequal_lengths(self):
        coder = ReedSolomon(4, 2)
        with pytest.raises(ValueError):
            coder.decode({0: b"xx", 1: b"yyy"})


class TestReconstruct:
    def test_reconstruct_native(self):
        coder = ReedSolomon(4, 2)
        natives = [b"data-AA", b"data-BB"]
        stripe = make_stripe(coder, natives)
        rebuilt = coder.reconstruct_block(0, {1: stripe[1], 3: stripe[3]})
        assert rebuilt == natives[0]

    def test_reconstruct_parity(self):
        coder = ReedSolomon(4, 2)
        natives = [b"data-AA", b"data-BB"]
        stripe = make_stripe(coder, natives)
        rebuilt = coder.reconstruct_block(3, {0: stripe[0], 1: stripe[1]})
        assert rebuilt == stripe[3]

    def test_reconstruct_available_shortcut(self):
        coder = ReedSolomon(4, 2)
        natives = [b"aa", b"bb"]
        stripe = make_stripe(coder, natives)
        assert coder.reconstruct_block(1, {0: stripe[0], 1: stripe[1]}) == natives[1]

    def test_reconstruct_bad_index(self):
        coder = ReedSolomon(4, 2)
        with pytest.raises(ValueError):
            coder.reconstruct_block(7, {})


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),  # k
        st.integers(min_value=1, max_value=4),  # parity
        st.integers(min_value=1, max_value=64),  # block length
        st.randoms(use_true_random=False),
    )
    def test_any_k_subset_decodes(self, k, parity, length, pyrandom):
        """MDS round-trip: erase any n-k blocks, recover the natives."""
        n = k + parity
        coder = ReedSolomon(n, k)
        natives = [bytes(pyrandom.randrange(256) for _ in range(length)) for _ in range(k)]
        stripe = make_stripe(coder, natives)
        survivors = pyrandom.sample(range(n), k)
        recovered = coder.decode({index: stripe[index] for index in survivors})
        assert recovered == natives

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=3),
        st.randoms(use_true_random=False),
    )
    def test_every_block_reconstructible(self, k, parity, pyrandom):
        """Every single lost block is rebuildable from any k survivors."""
        n = k + parity
        coder = ReedSolomon(n, k)
        natives = [bytes(pyrandom.randrange(256) for _ in range(16)) for _ in range(k)]
        stripe = make_stripe(coder, natives)
        for lost in range(n):
            survivors = [index for index in range(n) if index != lost]
            chosen = pyrandom.sample(survivors, k)
            rebuilt = coder.reconstruct_block(lost, {index: stripe[index] for index in chosen})
            assert rebuilt == stripe[lost]

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=2, max_size=40))
    def test_encoding_is_deterministic(self, blob):
        coder = ReedSolomon(5, 2)
        half = len(blob) // 2
        natives = [blob[:half], blob[half : 2 * half]]
        assert coder.encode(natives) == coder.encode(natives)


class TestPlanCache:
    def test_counters_and_sharing(self):
        """Two losses with one survivor pattern share a single inversion."""
        coder = ReedSolomon(6, 4)
        natives = [bytes([i] * 32) for i in range(4)]
        stripe = make_stripe(coder, natives)
        available = {i: stripe[i] for i in (1, 2, 3, 4)}
        coder.reconstruct_block(0, available)
        coder.reconstruct_block(5, available)
        info = coder.plan_cache_info()
        assert info["plan_misses"] == 1  # one pattern, one inversion
        assert info["row_plans"] == 2
        assert info["row_misses"] == 2
        coder.reconstruct_block(0, available)
        assert coder.plan_cache_info()["row_hits"] == 1

    def test_lru_eviction_bounds_cache(self):
        from repro.ec.reed_solomon import PLAN_CACHE_SIZE

        coder = ReedSolomon(3, 1)
        native = [b"\x5a" * 8]
        stripe = make_stripe(coder, native)
        patterns = [(0,), (1,), (2,)]
        for _ in range(PLAN_CACHE_SIZE):
            for pattern in patterns:
                available = {index: stripe[index] for index in pattern}
                assert coder.decode(available) == native
        info = coder.plan_cache_info()
        assert info["plans"] == len(patterns) <= PLAN_CACHE_SIZE
        assert info["plan_hits"] > 0

    def test_reconstruct_available_block_is_verbatim(self):
        coder = ReedSolomon(4, 2)
        natives = [b"abcd", b"wxyz"]
        stripe = make_stripe(coder, natives)
        available = {i: stripe[i] for i in range(4)}
        assert coder.reconstruct_block(1, available) == b"wxyz"
        # No plan work happens for a block that is already present.
        assert coder.plan_cache_info()["plan_misses"] == 0


class TestEncodeStripes:
    def test_empty_input(self):
        assert ReedSolomon(4, 2).encode_stripes([]) == []

    def test_wrong_stripe_width(self):
        coder = ReedSolomon(4, 2)
        with pytest.raises(ValueError):
            coder.encode_stripes([[b"ab"]])

    def test_unequal_lengths_within_stripe(self):
        coder = ReedSolomon(4, 2)
        with pytest.raises(ValueError):
            coder.encode_stripes([[b"ab", b"abc"]])

    def test_zero_length_stripes(self):
        coder = ReedSolomon(4, 2)
        assert coder.encode_stripes([[b"", b""]]) == [coder.encode([b"", b""])]
