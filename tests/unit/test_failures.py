"""Unit tests for failure injection."""

from __future__ import annotations

import pytest

from repro.cluster.failures import FailureInjector, FailurePattern
from repro.sim.rng import RngStreams


class TestChooseFailedNodes:
    def test_none(self, small_topology, rng):
        injector = FailureInjector(FailurePattern.NONE)
        assert injector.choose_failed_nodes(small_topology, rng) == frozenset()

    def test_single_node(self, small_topology, rng):
        injector = FailureInjector(FailurePattern.SINGLE_NODE)
        failed = injector.choose_failed_nodes(small_topology, rng)
        assert len(failed) == 1
        assert failed <= set(small_topology.node_ids())

    def test_double_node(self, small_topology, rng):
        injector = FailureInjector(FailurePattern.DOUBLE_NODE)
        failed = injector.choose_failed_nodes(small_topology, rng)
        assert len(failed) == 2

    def test_rack(self, small_topology, rng):
        injector = FailureInjector(FailurePattern.RACK)
        failed = injector.choose_failed_nodes(small_topology, rng)
        racks = {small_topology.rack_of(node) for node in failed}
        assert len(racks) == 1
        assert failed == set(small_topology.nodes_in_rack(racks.pop()))

    def test_eligible_restricts(self, small_topology, rng):
        injector = FailureInjector(FailurePattern.SINGLE_NODE)
        failed = injector.choose_failed_nodes(small_topology, rng, eligible=[5])
        assert failed == frozenset({5})

    def test_eligible_empty_raises(self, small_topology, rng):
        injector = FailureInjector(FailurePattern.SINGLE_NODE)
        with pytest.raises(ValueError):
            injector.choose_failed_nodes(small_topology, rng, eligible=[])

    def test_double_needs_two(self, small_topology, rng):
        injector = FailureInjector(FailurePattern.DOUBLE_NODE)
        with pytest.raises(ValueError):
            injector.choose_failed_nodes(small_topology, rng, eligible=[1])

    def test_deterministic_per_seed(self, small_topology):
        injector = FailureInjector(FailurePattern.SINGLE_NODE)
        first = injector.choose_failed_nodes(small_topology, RngStreams(9))
        second = injector.choose_failed_nodes(small_topology, RngStreams(9))
        assert first == second
