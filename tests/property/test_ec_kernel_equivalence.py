"""Batched GF(2^8) kernels held byte-identical to their scalar references.

The PR-4 reference-oracle idiom: the pre-kernel implementations survive as
``matvec_blocks_reference`` / ``matmul_reference`` / ``invert_reference``
and Hypothesis drives both sides across shapes, 0/1 coefficient edge cases,
zero-length blocks, and lengths straddling the packed-kernel threshold.
The decode-plan cache is held byte-identical to cold decodes the same way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import matrix as gfm
from repro.ec.codec import CodeParams, ErasureCodec
from repro.ec.matrix import PACKED_MIN_BLOCK, SingularMatrixError
from repro.ec.reed_solomon import ReedSolomon

#: Element strategy biased towards the 0/1 special cases the kernels route
#: through zero-row / unit-row / copy fast paths.
gf_elements = st.one_of(st.sampled_from([0, 1]), st.integers(min_value=0, max_value=255))

#: Block lengths spanning the small-gather path, the packed-path threshold,
#: odd lengths (pair padding), and the zero-length edge case.
block_lengths = st.sampled_from(
    [0, 1, 2, 3, 17, 64, PACKED_MIN_BLOCK - 1, PACKED_MIN_BLOCK, PACKED_MIN_BLOCK + 1]
)


@st.composite
def gf_matrix(draw, min_rows=0, max_rows=5, min_cols=1, max_cols=5, square=False):
    rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    cols = rows if square else draw(st.integers(min_value=min_cols, max_value=max_cols))
    data = draw(
        st.lists(
            st.lists(gf_elements, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(data, dtype=np.uint8).reshape(rows, cols)


def random_blocks(count: int, length: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(count)]


def fitted(blocks: list[np.ndarray], width: int) -> list[np.ndarray]:
    """Each block explicitly cut, or zero-padded, to ``width`` bytes."""
    return [
        np.concatenate([block[:width], np.zeros(width - len(block[:width]), np.uint8)])
        for block in blocks
    ]


class TestMatvecEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(gf_matrix(), block_lengths, st.integers(min_value=0, max_value=2**31))
    def test_matches_reference(self, matrix, length, seed):
        blocks = random_blocks(matrix.shape[1], length, seed)
        fast = gfm.BatchedMatvec(matrix).apply(blocks)
        slow = gfm.matvec_blocks_reference(matrix, blocks)
        assert len(fast) == len(slow)
        for fast_row, slow_row in zip(fast, slow):
            assert fast_row.dtype == np.uint8
            assert np.array_equal(fast_row, slow_row)

    @settings(max_examples=20, deadline=None)
    @given(gf_matrix(min_rows=1), st.integers(min_value=0, max_value=2**31))
    def test_compiled_plan_reusable(self, matrix, seed):
        """One compiled BatchedMatvec applied twice gives fresh, equal rows."""
        plan = gfm.BatchedMatvec(matrix)
        blocks = random_blocks(matrix.shape[1], PACKED_MIN_BLOCK + 3, seed)
        first = plan.apply(blocks)
        second = plan.apply(blocks)
        oracle = gfm.matvec_blocks_reference(matrix, blocks)
        for one, two, truth in zip(first, second, oracle):
            assert np.array_equal(one, truth)
            assert np.array_equal(two, truth)
            assert one is not two  # outputs are safe to mutate

    @settings(max_examples=80, deadline=None)
    @given(
        gf_matrix(),
        st.data(),
        st.one_of(st.none(), block_lengths),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_ragged_blocks_read_as_zero_extended(self, matrix, data, length, seed):
        """Ragged apply == the oracle on blocks explicitly padded or cut to length."""
        lengths = data.draw(
            st.lists(block_lengths, min_size=matrix.shape[1], max_size=matrix.shape[1])
        )
        rng = np.random.default_rng(seed)
        blocks = [rng.integers(0, 256, size=size, dtype=np.uint8) for size in lengths]
        width = max(lengths) if length is None else length
        fast = gfm.BatchedMatvec(matrix).apply(blocks, length)
        slow = gfm.matvec_blocks_reference(matrix, fitted(blocks, width))
        assert len(fast) == len(slow)
        for fast_row, slow_row in zip(fast, slow):
            assert fast_row.dtype == np.uint8
            assert np.array_equal(fast_row, slow_row)

    def test_ragged_cases_are_reached(self):
        """Fixed ragged shapes: both kernel paths, odd/even/empty, a cut output."""
        matrix = np.array([[1, 0, 0], [0, 0, 0], [2, 3, 4], [5, 6, 7]], dtype=np.uint8)
        for lengths, length in [
            ((0, 1, 2), None),
            ((3, 17, 0), 2),
            ((PACKED_MIN_BLOCK - 1, PACKED_MIN_BLOCK, PACKED_MIN_BLOCK + 1), None),
            ((PACKED_MIN_BLOCK + 1, 5, 0), PACKED_MIN_BLOCK),
            ((PACKED_MIN_BLOCK + 3, PACKED_MIN_BLOCK + 1, 64), PACKED_MIN_BLOCK + 2),
        ]:
            blocks = [random_blocks(1, size, seed=size)[0] for size in lengths]
            width = max(lengths) if length is None else length
            fast = gfm.BatchedMatvec(matrix).apply(blocks, length)
            slow = gfm.matvec_blocks_reference(matrix, fitted(blocks, width))
            assert all(np.array_equal(f, s) for f, s in zip(fast, slow)), (lengths, length)

    def test_outputs_not_aliased_to_inputs(self):
        """Unit rows return copies, never views of the caller's blocks."""
        matrix = np.array([[1, 0], [0, 1], [2, 3]], dtype=np.uint8)
        blocks = random_blocks(2, 32, seed=7)
        out = gfm.BatchedMatvec(matrix).apply(blocks)
        out[0][:] = 0
        assert not np.array_equal(out[0], blocks[0])


#: Block lengths around the packed threshold whose pair counts (2048 and
#: 2049 whole pairs, plus odd bytes) fall mid-chunk for every chunk size
#: below, beside short and empty blocks.
straddling_lengths = st.sampled_from(
    [0, 1, 5, 64, PACKED_MIN_BLOCK, PACKED_MIN_BLOCK + 1, PACKED_MIN_BLOCK + 3, 5 * 1021]
)


class TestSharedGather:
    @settings(max_examples=60, deadline=None)
    @given(
        gf_matrix(min_rows=1, max_rows=9),
        st.data(),
        st.sampled_from([3, 7, 64, 1000]),
        st.sampled_from([1, 2, 3]),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_small_chunks_match_reference(self, matrix, data, chunk, cpus, seed):
        """Ragged, odd and empty blocks straddling chunk edges, on 1-3 threads.

        Up to nine rows make up to three bands of different table widths,
        so one chunk gathers several bands through one converted index
        slice per column and one scratch row per thread.
        """
        lengths = data.draw(
            st.lists(straddling_lengths, min_size=matrix.shape[1], max_size=matrix.shape[1])
        )
        length = data.draw(st.one_of(st.none(), st.sampled_from([PACKED_MIN_BLOCK + 1, 5000])))
        rng = np.random.default_rng(seed)
        blocks = [rng.integers(0, 256, size=size, dtype=np.uint8) for size in lengths]
        width = max(lengths) if length is None else length
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gfm, "GATHER_CHUNK", chunk)
            patch.setattr(gfm, "_usable_cpus", lambda: cpus)
            fast = gfm.BatchedMatvec(matrix).apply(blocks, length)
        slow = gfm.matvec_blocks_reference(matrix, fitted(blocks, width))
        assert len(fast) == len(slow)
        for fast_row, slow_row in zip(fast, slow):
            assert np.array_equal(fast_row, slow_row)


class TestMatmulEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(gf_matrix(max_rows=5), st.integers(min_value=1, max_value=5), st.data())
    def test_matches_reference(self, a, cols_b, data):
        rows_b = a.shape[1]
        b = data.draw(gf_matrix(min_rows=rows_b, max_rows=rows_b, min_cols=cols_b, max_cols=cols_b))
        assert np.array_equal(gfm.matmul(a, b), gfm.matmul_reference(a, b))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            gfm.matmul(np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))


class TestInvertEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(gf_matrix(min_rows=1, max_rows=6, square=True))
    def test_matches_reference_including_singular_column(self, matrix):
        """Both sides invert identically or fail naming the same column."""
        try:
            slow = gfm.invert_reference(matrix)
        except SingularMatrixError as err:
            with pytest.raises(SingularMatrixError) as caught:
                gfm.invert(matrix)
            assert str(caught.value) == str(err)
        else:
            fast = gfm.invert(matrix)
            assert np.array_equal(fast, slow)
            assert np.array_equal(gfm.matmul(matrix, fast), gfm.identity(len(matrix)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=4))
    def test_systematic_submatrices_invert(self, k, parity):
        """Any k rows of the systematic generator stay invertible (MDS)."""
        generator = gfm.systematic_encoding_matrix(k + parity, k)
        sub = generator[parity : parity + k]
        assert np.array_equal(gfm.invert(sub), gfm.invert_reference(sub))


@st.composite
def coder_and_survivors(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    parity = draw(st.integers(min_value=1, max_value=3))
    n = k + parity
    survivors = tuple(
        sorted(draw(st.permutations(range(n)))[:k])
    )
    return ReedSolomon(n, k), survivors


class TestDecodePlanCache:
    @settings(max_examples=40, deadline=None)
    @given(coder_and_survivors(), st.integers(min_value=0, max_value=2**31), block_lengths)
    def test_cache_hit_byte_identical_to_cold_decode(self, coder_survivors, seed, length):
        coder, survivors = coder_survivors
        natives = [b.tobytes() for b in random_blocks(coder.k, length, seed)]
        stripe = natives + coder.encode(natives)
        available = {index: stripe[index] for index in survivors}
        cold = ReedSolomon(coder.n, coder.k).decode(available)
        warm_miss = coder.decode(available)
        warm_hit = coder.decode(available)
        assert cold == warm_miss == warm_hit == [bytes(native) for native in natives]
        info = coder.plan_cache_info()
        assert info["plan_misses"] == 1
        assert info["plan_hits"] == 1

    @settings(max_examples=30, deadline=None)
    @given(coder_and_survivors(), st.integers(min_value=0, max_value=2**31))
    def test_reconstruct_block_warm_equals_cold(self, coder_survivors, seed):
        coder, survivors = coder_survivors
        natives = [b.tobytes() for b in random_blocks(coder.k, 37, seed)]
        stripe = natives + coder.encode(natives)
        available = {index: stripe[index] for index in survivors}
        for lost in range(coder.n):
            if lost in available:
                continue
            cold = ReedSolomon(coder.n, coder.k).reconstruct_block(lost, available)
            warm = coder.reconstruct_block(lost, available)
            again = coder.reconstruct_block(lost, available)
            assert cold == warm == again == stripe[lost]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_encode_stripes_matches_per_stripe_encode(self, k, parity, lengths, seed):
        """Batched stacking + truncation == one encode call per stripe."""
        coder = ReedSolomon(k + parity, k)
        stripes = [
            [b.tobytes() for b in random_blocks(k, length, seed + i)]
            for i, length in enumerate(lengths)
        ]
        batched = coder.encode_stripes(stripes)
        assert batched == [coder.encode(stripe) for stripe in stripes]


def padded_encode_reference(
    codec: ErasureCodec, stripes: list[list[bytes]]
) -> list[list[bytes]]:
    """The pre-stack codec path: pad every stripe, then encode it alone.

    Each native is ``ljust``-padded to its stripe's longest and a short
    stripe gets all-zero blocks up to ``k``; the stored stripe keeps the
    unpadded natives and empty placeholders beside the parity.
    """
    k = codec.params.k
    out = []
    for natives in stripes:
        length = max(len(block) for block in natives)
        padded = [block.ljust(length, b"\0") for block in natives]
        padded += [b"\0" * length] * (k - len(natives))
        out.append(list(natives) + [b""] * (k - len(natives)) + codec.coder.encode(padded))
    return out


#: Native lengths for ragged stripes: empty blocks, small odd/even lengths
#: and the packed-kernel threshold.
ragged_lengths = st.sampled_from(
    [0, 0, 1, 2, 5, 17, 40, PACKED_MIN_BLOCK, PACKED_MIN_BLOCK + 1]
)


@st.composite
def ragged_stripes(draw):
    """A code and stripes of unequal natives, the last short."""
    k = draw(st.integers(min_value=1, max_value=5))
    parity = draw(st.integers(min_value=1, max_value=3))
    full = draw(st.integers(min_value=0, max_value=3))
    counts = [k] * full + [draw(st.integers(min_value=1, max_value=k))]
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    stripes = [
        [
            rng.integers(0, 256, size=draw(ragged_lengths), dtype=np.uint8).tobytes()
            for _ in range(count)
        ]
        for count in counts
    ]
    return ErasureCodec(CodeParams(k + parity, k)), stripes


class TestRaggedEncode:
    @settings(max_examples=60, deadline=None)
    @given(ragged_stripes())
    def test_codec_matches_padded_per_stripe_encode(self, codec_stripes):
        """Zero-extension in the kernel == padding each stripe, then encoding it."""
        codec, stripes = codec_stripes
        assert codec.encode_stripes(stripes) == padded_encode_reference(codec, stripes)


def padded_degraded_read_reference(
    codec: ErasureCodec, lost: int, available: dict[int, bytes], lost_length: int
) -> bytes:
    """The pre-kernel degraded read: pad every survivor, reconstruct, slice.

    Survivors are ``ljust``-padded to the longest one (the coding length),
    reconstructed from those equal-length copies, and the result is cut
    back to the lost block's true length.
    """
    length = max(len(block) for block in available.values())
    padded = {position: block.ljust(length, b"\0") for position, block in available.items()}
    return codec.coder.reconstruct_block(lost, padded)[:lost_length]


class TestRaggedDegradedRead:
    @settings(max_examples=60, deadline=None)
    @given(ragged_stripes(), st.data())
    def test_matches_pad_reconstruct_slice(self, codec_stripes, data):
        """Ragged survivors decode byte-identically to the padded path."""
        codec, stripes = codec_stripes
        n, k = codec.params.n, codec.params.k
        for stripe in codec.encode_stripes(stripes):
            lost = data.draw(st.integers(min_value=0, max_value=n - 1))
            others = [position for position in range(n) if position != lost]
            chosen = data.draw(st.permutations(others))[:k]
            available = {position: stripe[position] for position in chosen}
            rebuilt = codec.degraded_read(lost, available, lost_length=len(stripe[lost]))
            assert rebuilt == stripe[lost]
            assert rebuilt == padded_degraded_read_reference(
                codec, lost, available, len(stripe[lost])
            )
