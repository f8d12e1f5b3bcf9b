"""Unit tests for bandwidth specs and unit helpers."""

from __future__ import annotations

import pytest

from repro.cluster.network import GB, MB, NetworkSpec, gbps, mbps
from repro.cluster.nodetree import NodeTree


class TestUnits:
    def test_mb(self):
        assert MB == 1024 * 1024
        assert GB == 1024 * MB

    def test_mbps(self):
        assert mbps(8) == 1_000_000  # 8 Mbit/s = 1 MB/s (decimal)

    def test_gbps(self):
        assert gbps(1) == mbps(1000)


class TestNetworkSpec:
    def test_defaults_propagate(self):
        spec = NetworkSpec(rack_download_bw=100.0)
        assert spec.rack_upload_bw == 100.0
        assert spec.node_bandwidth == 100.0

    def test_explicit_overrides(self):
        spec = NetworkSpec(rack_download_bw=100.0, rack_upload_bw=50.0, node_bandwidth=25.0)
        assert spec.rack_upload_bw == 50.0
        assert spec.node_bandwidth == 25.0

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkSpec(rack_download_bw=0)

    def test_cross_rack_bottleneck_is_min(self, sim, small_topology):
        spec = NetworkSpec(rack_download_bw=10.0, rack_upload_bw=5.0)
        tree = NodeTree(sim, small_topology, spec)
        finished = []

        def transfer():
            yield tree.transfer(0, 4, 100.0)  # rack 0 -> rack 1
            finished.append(sim.now)

        sim.spawn(transfer())
        sim.run()
        assert finished == [pytest.approx(20.0)]
