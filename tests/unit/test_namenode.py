"""Unit tests for the BlockMap (namenode metadata)."""

from __future__ import annotations

import pytest

from repro.ec.codec import CodeParams
from repro.storage.block import BlockId
from repro.storage.namenode import BlockMap


def build_map():
    """Two (4,2) stripes over six nodes, hand-placed.

    Stripe 0: B00@0 B01@1 P00@3 P01@4
    Stripe 1: B10@2 B11@0 P10@4 P11@5
    Three real native blocks (the fourth native position is padding).
    """
    params = CodeParams(4, 2)
    k = params.k
    assignment = {
        BlockId(0, 0, k): 0,
        BlockId(0, 1, k): 1,
        BlockId(0, 2, k): 3,
        BlockId(0, 3, k): 4,
        BlockId(1, 0, k): 2,
        BlockId(1, 1, k): 0,
        BlockId(1, 2, k): 4,
        BlockId(1, 3, k): 5,
    }
    return BlockMap(params, assignment, num_native_blocks=3), params


class TestBasics:
    def test_stripe_count(self):
        block_map, _ = build_map()
        assert block_map.num_stripes == 2

    def test_missing_assignment_rejected(self):
        params = CodeParams(4, 2)
        with pytest.raises(ValueError):
            BlockMap(params, {}, num_native_blocks=1)

    def test_negative_natives_rejected(self):
        with pytest.raises(ValueError):
            BlockMap(CodeParams(4, 2), {}, num_native_blocks=-1)

    def test_node_of(self):
        block_map, params = build_map()
        assert block_map.node_of(BlockId(0, 0, params.k)) == 0
        with pytest.raises(KeyError):
            block_map.node_of(BlockId(9, 0, params.k))

    def test_blocks_on_node(self):
        block_map, params = build_map()
        on_zero = block_map.blocks_on_node(0)
        assert [str(b) for b in on_zero] == ["B_{0,0}", "B_{1,1}"]

    def test_native_blocks_respects_count(self):
        block_map, _ = build_map()
        natives = block_map.native_blocks()
        assert [str(b) for b in natives] == ["B_{0,0}", "B_{0,1}", "B_{1,0}"]

    def test_stripe_blocks(self):
        block_map, _ = build_map()
        stored = block_map.stripe_blocks(0)
        assert [s.node_id for s in stored] == [0, 1, 3, 4]

    def test_all_blocks(self):
        block_map, _ = build_map()
        assert len(block_map.all_blocks()) == 8


class TestFailureViews:
    def test_lost_native_blocks(self):
        block_map, _ = build_map()
        lost = block_map.lost_native_blocks({0})
        assert [str(b) for b in lost] == ["B_{0,0}"]
        # B_{1,1} also lives on node 0 but is beyond the real native count.

    def test_surviving_stripe_blocks(self):
        block_map, _ = build_map()
        survivors = block_map.surviving_stripe_blocks(0, {0, 1})
        assert [s.node_id for s in survivors] == [3, 4]

    def test_is_recoverable(self):
        block_map, _ = build_map()
        assert block_map.is_recoverable(0, {0, 1})
        assert not block_map.is_recoverable(0, {0, 1, 3})

    def test_check_recoverable_raises(self):
        block_map, _ = build_map()
        block_map.check_recoverable({0})
        with pytest.raises(RuntimeError):
            block_map.check_recoverable({0, 1, 3})
