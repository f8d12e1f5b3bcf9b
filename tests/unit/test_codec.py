"""Unit tests for CodeParams and the ErasureCodec facade."""

from __future__ import annotations

import pytest

from repro.ec.codec import CodeParams, ErasureCodec


class TestCodeParams:
    def test_valid(self):
        params = CodeParams(16, 12)
        assert params.parity == 4
        assert str(params) == "(16,12)"

    def test_invalid(self):
        with pytest.raises(ValueError):
            CodeParams(2, 3)
        with pytest.raises(ValueError):
            CodeParams(4, 0)
        with pytest.raises(ValueError):
            CodeParams(300, 200)

    def test_frozen(self):
        params = CodeParams(4, 2)
        with pytest.raises(AttributeError):
            params.n = 5  # type: ignore[misc]


class TestEncodeStripe:
    def test_full_stripe_width(self):
        codec = ErasureCodec(CodeParams(4, 2))
        stripe = codec.encode_stripes([[b"aaaa", b"bbbb"]])[0]
        assert len(stripe) == 4
        assert stripe[0] == b"aaaa"
        assert stripe[1] == b"bbbb"

    def test_short_stripe_placeholders(self):
        codec = ErasureCodec(CodeParams(4, 2))
        stripe = codec.encode_stripes([[b"solo"]])[0]
        assert len(stripe) == 4
        assert stripe[0] == b"solo"
        assert stripe[1] == b""  # placeholder for the padded native

    def test_unequal_lengths_allowed(self):
        codec = ErasureCodec(CodeParams(4, 2))
        stripe = codec.encode_stripes([[b"longer-block", b"short"]])[0]
        assert stripe[1] == b"short"
        assert len(stripe[2]) == len(b"longer-block")  # parity at coding length

    def test_too_many_blocks(self):
        codec = ErasureCodec(CodeParams(4, 2))
        with pytest.raises(ValueError):
            codec.encode_stripes([[b"a", b"b", b"c"]])

    def test_empty_stripe_rejected(self):
        codec = ErasureCodec(CodeParams(4, 2))
        with pytest.raises(ValueError):
            codec.encode_stripes([[]])


class TestEncodeFile:
    def test_splits_into_stripes(self):
        codec = ErasureCodec(CodeParams(4, 2))
        data = bytes(range(100))
        blocks = [data[offset : offset + 16] for offset in range(0, len(data), 16)]
        stripes = codec.encode_stripes([blocks[i : i + 2] for i in range(0, len(blocks), 2)])
        # 100 bytes / 16 = 7 blocks -> ceil(7/2) = 4 stripes.
        assert len(stripes) == 4
        rebuilt = b"".join(stripes[i][j] for i in range(4) for j in range(2))
        assert rebuilt == data

    def test_empty_data(self):
        codec = ErasureCodec(CodeParams(4, 2))
        stripes = codec.encode_stripes([[b""]])
        assert stripes == [[b"", b"", b"", b""]]


class TestDegradedRead:
    def test_degraded_read_native(self):
        codec = ErasureCodec(CodeParams(4, 2))
        stripe = codec.encode_stripes([[b"AAAA", b"BBBB"]])[0]
        rebuilt = codec.degraded_read(0, {1: stripe[1], 2: stripe[2]})
        assert rebuilt == b"AAAA"

    def test_degraded_read_with_unpadded_survivor(self):
        codec = ErasureCodec(CodeParams(4, 2))
        stripe = codec.encode_stripes([[b"0123456789", b"abc"]])[0]
        rebuilt = codec.degraded_read(1, {0: stripe[0], 3: stripe[3]}, lost_length=3)
        assert rebuilt == b"abc"

    def test_lost_length_truncates(self):
        codec = ErasureCodec(CodeParams(4, 2))
        stripe = codec.encode_stripes([[b"0123456789", b"abc"]])[0]
        rebuilt = codec.degraded_read(1, {2: stripe[2], 3: stripe[3]}, lost_length=3)
        assert rebuilt == b"abc"

    def test_lost_length_too_large(self):
        codec = ErasureCodec(CodeParams(4, 2))
        stripe = codec.encode_stripes([[b"abcd", b"efgh"]])[0]
        with pytest.raises(ValueError):
            codec.degraded_read(0, {2: stripe[2], 3: stripe[3]}, lost_length=99)
