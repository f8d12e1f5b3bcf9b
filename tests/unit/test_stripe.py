"""Unit tests for the paper's block naming."""

from __future__ import annotations

import pytest

from repro.ec.stripe import block_name


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
