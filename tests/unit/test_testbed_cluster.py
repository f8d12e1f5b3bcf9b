"""Unit tests for TestbedCluster setup (not the job runtime)."""

from __future__ import annotations

import pytest

from repro.ec.codec import CodeParams
from repro.testbed.engine import TestbedCluster, TestbedConfig


@pytest.fixture(scope="module")
def cluster():
    config = TestbedConfig(num_blocks=12, block_size=32 * 1024, seed=5)
    return TestbedCluster(config)


class TestConfig:
    def test_defaults_match_paper_layout(self):
        config = TestbedConfig()
        assert config.num_nodes == 12
        assert config.num_racks == 3
        assert config.code == CodeParams(12, 10)
        assert config.num_reduce_tasks == 8
        assert config.placement == "round-robin"

    def test_corpus_bytes(self):
        config = TestbedConfig(num_blocks=10, block_size=1000)
        assert config.corpus_bytes == 10_000


class TestSetup:
    def test_corpus_written_and_recoverable(self, cluster):
        block_map = cluster.fs.block_map
        assert block_map is not None
        assert block_map.num_native_blocks >= 12

    def test_kill_node_picks_live_slave(self, cluster):
        failed = cluster.kill_node()
        assert len(failed) == 1
        assert failed < set(cluster.topology.node_ids())

    def test_kill_node_deterministic_per_stream(self):
        first = TestbedCluster(TestbedConfig(num_blocks=12, block_size=32 * 1024, seed=9))
        second = TestbedCluster(TestbedConfig(num_blocks=12, block_size=32 * 1024, seed=9))
        assert first.kill_node() == second.kill_node()

    def test_corpus_deterministic_per_seed(self):
        first = TestbedCluster(TestbedConfig(num_blocks=12, block_size=32 * 1024, seed=9))
        second = TestbedCluster(TestbedConfig(num_blocks=12, block_size=32 * 1024, seed=9))
        assert first.corpus == second.corpus
