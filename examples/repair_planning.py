#!/usr/bin/env python
"""Plan the storage-layer repair of a failed node.

Degraded-first scheduling covers the window *between* a node failure and
its reconstruction.  This example quantifies the other side of that
trade-off: how much data a full-node repair moves, which links carry it,
and a bandwidth-bound estimate of how long it takes -- numbers an operator
compares against the MapReduce slowdown to decide how urgently to repair.

Run:  python examples/repair_planning.py
"""

from repro.cluster.network import MB, NetworkSpec, gbps
from repro.cluster.topology import ClusterTopology
from repro.ec.codec import CodeParams
from repro.sim.rng import RngStreams
from repro.storage.hdfs import HdfsRaidCluster
from repro.storage.repair import RepairPlanner


def main() -> None:
    rng = RngStreams(21)
    topology = ClusterTopology.homogeneous(12, 3)
    block_size = 64 * MB
    network = NetworkSpec(rack_download_bw=gbps(1))

    for code in (CodeParams(6, 4), CodeParams(9, 6), CodeParams(12, 10)):
        # (12,10) stripes are wider than the rack rule permits on 3 racks,
        # exactly like the paper's testbed, so the cluster places them with
        # the rule off; node-failure tolerance only.
        cluster = HdfsRaidCluster(
            topology, code, num_native_blocks=240, placement="declustered", rng=rng
        )
        planner = RepairPlanner(cluster.block_map, topology)
        plan = planner.plan(frozenset({0}), rng)
        moved = plan.lost_block_count * code.k * block_size
        cross = plan.cross_rack_bytes(topology, block_size)
        duration = plan.estimated_duration(topology, network, block_size)
        print(
            f"code {str(code):>8}: lost blocks={plan.lost_block_count:3d}  "
            f"data moved={moved / (1024**3):5.1f} GiB "
            f"(cross-rack {cross / moved:4.0%})  "
            f"est. repair time={duration:6.1f} s"
        )

    print(
        "\nLarger k means cheaper storage but k-times amplified repair"
        "\ntraffic -- the reason degraded-first scheduling matters while"
        "\nthe (expensive) repair is deferred or in progress."
    )


if __name__ == "__main__":
    main()
