"""Unit tests for the wall-clock emulated network."""

from __future__ import annotations

import threading

import pytest

from repro.cluster.network import NetworkSpec
from repro.testbed.netem import EmulatedNetwork


@pytest.fixture
def netem(small_topology):
    # 1 MB/s links, 1000x compressed time -> 1 KB transfers take ~1 ms real.
    return EmulatedNetwork(
        small_topology, NetworkSpec(rack_download_bw=1_000_000.0), time_scale=0.001
    )


class TestPaths:
    def test_same_node_no_links(self, netem):
        assert netem.path(0, 0) == []

    def test_intra_rack(self, netem):
        assert netem.path(0, 1) == ["node0:out", "node1:in"]

    def test_cross_rack(self, netem):
        assert netem.path(0, 4) == ["node0:out", "rack0:up", "rack1:down", "node4:in"]

    def test_bad_time_scale(self, small_topology):
        with pytest.raises(ValueError):
            EmulatedNetwork(
                small_topology, NetworkSpec(rack_download_bw=1.0), time_scale=0.0
            )


class TestTransfers:
    def test_duration_scales_with_size(self, small_topology):
        # A generous time scale keeps scheduler jitter small relative to
        # the transfer itself.
        netem = EmulatedNetwork(
            small_topology, NetworkSpec(rack_download_bw=1_000_000.0), time_scale=0.25
        )
        elapsed = netem.transfer(0, 4, 400_000)  # 0.4 simulated s
        assert 0.3 <= elapsed <= 0.8

    def test_same_node_instant(self, netem):
        assert netem.transfer(2, 2, 10_000_000) < 0.05

    def test_contention_serialises(self, small_topology):
        """Two transfers into the same rack share the downlink lock."""
        netem = EmulatedNetwork(
            small_topology, NetworkSpec(rack_download_bw=1_000_000.0), time_scale=0.25
        )
        results = []
        lock = threading.Lock()

        def worker():
            # 400 KB at 1 MB/s = 0.4 simulated s (0.1 s real at scale 0.25).
            elapsed = netem.transfer(0, 4, 400_000)
            with lock:
                results.append(elapsed)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # One finishes in ~0.4 simulated s; the other queued behind it and
        # reports ~0.8 simulated s including the wait.
        assert min(results) < 0.65
        assert max(results) >= 0.65

    def test_disjoint_paths_parallel(self, small_topology):
        netem = EmulatedNetwork(
            small_topology, NetworkSpec(rack_download_bw=1_000_000.0), time_scale=0.25
        )
        results = []
        lock = threading.Lock()

        def worker(src, dst):
            elapsed = netem.transfer(src, dst, 400_000)
            with lock:
                results.append(elapsed)

        threads = [
            threading.Thread(target=worker, args=(0, 1)),
            threading.Thread(target=worker, args=(2, 3)),  # rack 0 too but other NICs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Both ran concurrently: neither reports queueing delay.
        assert all(elapsed < 0.65 for elapsed in results)
        assert len(results) == 2
