"""Unit tests for named random streams."""

from __future__ import annotations

import pytest

from repro.sim.rng import RngStreams


class TestStreams:
    def test_same_name_same_stream(self):
        rng = RngStreams(1)
        assert rng.stream("a") is rng.stream("a")

    def test_streams_independent_of_creation_order(self):
        first = RngStreams(1)
        _ = first.stream("a").random()
        value_b_first = first.stream("b").random()

        second = RngStreams(1)
        value_b_second = second.stream("b").random()
        assert value_b_first == value_b_second

    def test_different_seeds_differ(self):
        assert RngStreams(1).stream("x").random() != RngStreams(2).stream("x").random()

    def test_different_names_differ(self):
        rng = RngStreams(1)
        assert rng.stream("x").random() != rng.stream("y").random()


class TestSpawn:
    def test_spawn_is_prefix_namespacing(self):
        rng = RngStreams(1)
        assert rng.spawn("a").stream("b") is rng.stream("a:b")

    def test_spawn_same_name_same_child(self):
        rng = RngStreams(1)
        assert rng.spawn("a") is rng.spawn("a")

    def test_spawn_nests(self):
        rng = RngStreams(1)
        assert rng.spawn("a").spawn("b").stream("c") is rng.stream("a:b:c")

    def test_spawned_streams_independent_of_access_path(self):
        direct = RngStreams(7)
        value_direct = direct.stream("model:exp:node:3").random()
        spawned = RngStreams(7)
        value_spawned = (
            spawned.spawn("model:exp").stream("node:3").random()
        )
        assert value_direct == value_spawned

    def test_sibling_children_differ(self):
        rng = RngStreams(1)
        assert rng.spawn("a").stream("x").random() != rng.spawn("b").stream("x").random()


class TestDraws:
    def test_normal_floor(self):
        rng = RngStreams(1)
        for _ in range(200):
            assert rng.normal("t", mean=0.0, std=5.0, minimum=0.5) >= 0.5

    def test_exponential_positive(self):
        rng = RngStreams(1)
        for _ in range(50):
            assert rng.exponential("e", 10.0) > 0

    def test_exponential_bad_mean(self):
        with pytest.raises(ValueError):
            RngStreams(1).exponential("e", 0.0)

    def test_exponential_mean_roughly_right(self):
        rng = RngStreams(3)
        samples = [rng.exponential("e", 120.0) for _ in range(4000)]
        assert 100 < sum(samples) / len(samples) < 140

    def test_choice_and_sample(self):
        rng = RngStreams(1)
        items = list(range(10))
        assert rng.choice("c", items) in items
        picked = rng.sample("s", items, 3)
        assert len(picked) == 3
        assert len(set(picked)) == 3

    def test_shuffle_in_place(self):
        rng = RngStreams(1)
        items = list(range(20))
        rng.shuffle("sh", items)
        assert sorted(items) == list(range(20))

    def test_randint_bounds(self):
        rng = RngStreams(1)
        for _ in range(100):
            assert 3 <= rng.randint("r", 3, 7) <= 7


class TestSpawnContract:
    """Pinned before the children stopped sharing one registry dict."""

    def test_nested_spawn_same_grandchild(self):
        rng = RngStreams(1)
        assert rng.spawn("a").spawn("b") is rng.spawn("a").spawn("b")

    def test_prefixes_compose(self):
        rng = RngStreams(5)
        grandchild = rng.spawn("a").spawn("b")
        assert (rng.prefix, rng.spawn("a").prefix, grandchild.prefix) == ("", "a:", "a:b:")
        assert grandchild.master_seed == 5

    def test_every_access_path_reaches_one_stream_object(self):
        rng = RngStreams(1)
        via_grandchild = rng.spawn("a").spawn("b").stream("c")
        assert via_grandchild is rng.spawn("a").stream("b:c")
        assert via_grandchild is rng.stream("a:b:c")
        assert via_grandchild is rng.spawn("a:b").stream("c")

    def test_a_stream_first_made_by_the_root_is_the_childs_too(self):
        rng = RngStreams(1)
        made_by_root = rng.stream("a:x")
        assert rng.spawn("a").stream("x") is made_by_root

    def test_draws_equal_hand_composed_names(self):
        composed, spawned = RngStreams(11), RngStreams(11)
        items = list(range(30))
        repair = spawned.spawn("repair")
        node = spawned.spawn("model").spawn("exp")
        for block in range(5):
            assert repair.sample(str(block), items, 3) == composed.sample(
                f"repair:{block}", items, 3
            )
            assert node.exponential(f"node:{block}", 40.0) == composed.exponential(
                f"model:exp:node:{block}", 40.0
            )
            assert repair.normal("t", 10.0, 2.0) == composed.normal("repair:t", 10.0, 2.0)
            assert repair.randint("r", 0, 99) == composed.randint("repair:r", 0, 99)
            assert repair.choice("c", items) == composed.choice("repair:c", items)

    def test_interleaved_paths_advance_one_sequence(self):
        reference = RngStreams(3).stream("a:b")
        expected = [reference.random() for _ in range(4)]
        rng = RngStreams(3)
        drawn = [
            rng.spawn("a").stream("b").random(),
            rng.stream("a:b").random(),
            rng.spawn("a").stream("b").random(),
            rng.stream("a:b").random(),
        ]
        assert drawn == expected
