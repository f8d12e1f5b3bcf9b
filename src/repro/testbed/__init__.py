"""The paper's testbed (Section VI): real job logic, real decode, modelled time.

Where a plain :mod:`repro.mapreduce` trial only *models* task work, the
testbed also does it: blocks hold real bytes, HDFS-RAID encoding uses the
real Reed-Solomon coder, degraded reads really decode, and WordCount / Grep
/ LineCount really tokenise, partition and reduce text.  The time those
jobs take comes from one simulation trial on the exclusive-hold network,
sized by what the real pass measured.  It substitutes for the paper's
13-node Hadoop 0.22 + HDFS-RAID cluster.

* :mod:`repro.testbed.textgen` -- seeded Gutenberg-like corpus generator.
* :mod:`repro.testbed.localfs` -- in-memory datanode stores + HDFS-RAID fs.
* :mod:`repro.testbed.netem` -- wall-clock network emulation (scaled), for
  filesystem users that want reads to take real time.
* :mod:`repro.testbed.jobs` -- the three I/O-heavy MapReduce jobs.
* :mod:`repro.testbed.engine` -- the runtime: a real pass over the bytes,
  then one simulation trial under LF / BDF / EDF.
"""

from repro.testbed.engine import TestbedCluster, TestbedConfig, TestbedJobResult
from repro.testbed.jobs import GrepJob, LineCountJob, MapReduceJob, WordCountJob
from repro.testbed.localfs import HdfsRaidFilesystem
from repro.testbed.netem import EmulatedNetwork
from repro.testbed.textgen import generate_corpus

__all__ = [
    "EmulatedNetwork",
    "GrepJob",
    "HdfsRaidFilesystem",
    "LineCountJob",
    "MapReduceJob",
    "TestbedCluster",
    "TestbedConfig",
    "TestbedJobResult",
    "WordCountJob",
    "generate_corpus",
]
