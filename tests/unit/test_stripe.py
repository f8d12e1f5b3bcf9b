"""Unit tests for stripe layout and block naming."""

from __future__ import annotations

import pytest

from repro.ec.stripe import BlockKind, StripeLayout, block_name


class TestBlockName:
    def test_native_name(self):
        assert block_name(0, 0, 2) == "B_{0,0}"
        assert block_name(3, 1, 2) == "B_{3,1}"

    def test_parity_name(self):
        assert block_name(0, 2, 2) == "P_{0,0}"
        assert block_name(5, 3, 2) == "P_{5,1}"

    def test_negative_position(self):
        with pytest.raises(ValueError):
            block_name(0, -1, 2)


class TestStripeLayout:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StripeLayout(n=2, k=3)

    def test_counts(self):
        layout = StripeLayout(n=4, k=2)
        assert layout.parity_per_stripe == 2
        assert layout.stripe_count(12) == 6
        assert layout.stripe_count(13) == 7
        assert layout.stripe_count(0) == 0
        assert layout.total_blocks(12) == 24

    def test_stripe_count_negative(self):
        layout = StripeLayout(n=4, k=2)
        with pytest.raises(ValueError):
            layout.stripe_count(-1)

    def test_locate_roundtrip(self):
        layout = StripeLayout(n=6, k=4)
        for native_index in range(20):
            stripe_id, position = divmod(native_index, layout.k)
            assert layout.native_index(stripe_id, position) == native_index
            assert layout.kind(position) is BlockKind.NATIVE

    def test_native_index_rejects_parity(self):
        layout = StripeLayout(n=4, k=2)
        with pytest.raises(ValueError):
            layout.native_index(0, 3)

    def test_kind_bounds(self):
        layout = StripeLayout(n=4, k=2)
        assert layout.kind(1) is BlockKind.NATIVE
        assert layout.kind(2) is BlockKind.PARITY
        with pytest.raises(ValueError):
            layout.kind(4)

    def test_positions_and_names(self):
        layout = StripeLayout(n=4, k=2)
        names = [layout.name(1, position) for position in range(layout.n)]
        assert names == ["B_{1,0}", "B_{1,1}", "P_{1,0}", "P_{1,1}"]
