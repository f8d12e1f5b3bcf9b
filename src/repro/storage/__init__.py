"""HDFS-RAID-like storage substrate.

Models what the paper's middleware layer provides: files divided into
fixed-size blocks, blocks grouped into erasure-coded stripes, stripes placed
across nodes under rack-tolerance constraints, and a degraded-read planner
for failure mode.

* :mod:`repro.storage.block` -- block identities and metadata.
* :mod:`repro.storage.placement` -- placement policies (rack-constrained
  random, round-robin, parity-declustered).
* :mod:`repro.storage.namenode` -- the block map (file -> stripe -> node).
* :mod:`repro.storage.degraded` -- choosing ``k`` survivors per lost block.
* :mod:`repro.storage.hdfs` -- the :class:`~repro.storage.hdfs.HdfsRaidCluster`
  facade tying codec, placement and failure views together.
"""

from repro.storage.block import BlockId, StoredBlock
from repro.storage.degraded import DegradedReadPlan, DegradedReadPlanner, SourceSelection
from repro.storage.hdfs import HdfsRaidCluster
from repro.storage.namenode import BlockMap
from repro.storage.placement import (
    PlacementError,
    PlacementPolicy,
    ParityDeclusteredPlacement,
    RackConstrainedRandomPlacement,
    RoundRobinPlacement,
    make_placement_policy,
    rack_rule_feasible,
)
from repro.storage.repair import BlockRepair, RepairPlan, RepairPlanner

__all__ = [
    "BlockId",
    "BlockMap",
    "BlockRepair",
    "RepairPlan",
    "RepairPlanner",
    "DegradedReadPlan",
    "DegradedReadPlanner",
    "HdfsRaidCluster",
    "ParityDeclusteredPlacement",
    "PlacementError",
    "PlacementPolicy",
    "RackConstrainedRandomPlacement",
    "RoundRobinPlacement",
    "SourceSelection",
    "StoredBlock",
    "make_placement_policy",
    "rack_rule_feasible",
]
