"""Property-based tests of the erasure-coding stack's core invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.codec import CodeParams, ErasureCodec
from repro.ec.reed_solomon import ReedSolomon


@st.composite
def code_params(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    parity = draw(st.integers(min_value=1, max_value=4))
    return CodeParams(k + parity, k)


def encode_file(codec: ErasureCodec, data: bytes, block_size: int) -> list[list[bytes]]:
    """Split ``data`` into blocks and encode every stripe in one batch."""
    blocks = [data[offset : offset + block_size] for offset in range(0, len(data), block_size)]
    k = codec.params.k
    return codec.encode_stripes([blocks[start : start + k] for start in range(0, len(blocks), k)])


@settings(max_examples=30, deadline=None)
@given(code_params(), st.binary(min_size=1, max_size=512), st.integers(min_value=1, max_value=64))
def test_encode_file_roundtrips_original_bytes(params, data, block_size):
    """Concatenating the native blocks of every stripe returns the file."""
    codec = ErasureCodec(params)
    stripes = encode_file(codec, data, block_size)
    natives = []
    remaining = -(-len(data) // block_size)
    for stripe in stripes:
        take = min(params.k, remaining)
        natives.extend(stripe[:take])
        remaining -= take
    assert b"".join(natives) == data


@settings(max_examples=30, deadline=None)
@given(
    code_params(),
    st.binary(min_size=1, max_size=256),
    st.integers(min_value=1, max_value=48),
    st.randoms(use_true_random=False),
)
def test_degraded_read_survives_max_erasures(params, data, block_size, pyrandom):
    """Erase n-k random blocks of a stripe; every lost block reconstructs."""
    codec = ErasureCodec(params)
    stripes = encode_file(codec, data, block_size)
    stripe = stripes[0]
    erased = pyrandom.sample(range(params.n), params.parity)
    available = {
        index: stripe[index] for index in range(params.n) if index not in erased
    }
    for lost in erased:
        rebuilt = codec.degraded_read(lost, available, lost_length=len(stripe[lost]))
        assert rebuilt == stripe[lost]


@settings(max_examples=30, deadline=None)
@given(code_params(), st.binary(min_size=0, max_size=128))
def test_parity_blocks_all_same_length(params, data):
    codec = ErasureCodec(params)
    stripe = codec.encode_stripes([[data.ljust(1, b"\0")]])[0]
    parities = stripe[params.k:]
    assert len({len(parity) for parity in parities}) == 1


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=4),
    st.randoms(use_true_random=False),
)
def test_decode_is_invariant_to_survivor_choice(k, parity, pyrandom):
    """Any two valid survivor subsets decode to the same natives."""
    coder = ReedSolomon(k + parity, k)
    natives = [bytes(pyrandom.randrange(256) for _ in range(20)) for _ in range(k)]
    stripe = natives + coder.encode(natives)
    subset_a = pyrandom.sample(range(k + parity), k)
    subset_b = pyrandom.sample(range(k + parity), k)
    decoded_a = coder.decode({i: stripe[i] for i in subset_a})
    decoded_b = coder.decode({i: stripe[i] for i in subset_b})
    assert decoded_a == decoded_b == natives
