"""Pins of the testbed's observable contract.

The testbed exists to show that a scheduler changes *when* work runs,
never *what* is computed.  These tests pin what any runtime underneath
``TestbedCluster`` must keep:

* the SHA-256 of each job's output, as canonical JSON, for WordCount, Grep
  and LineCount under LF, BDF and EDF, with one datanode killed and
  without;
* the public surface: the ``run_job`` / ``run_jobs`` / ``kill_node``
  signatures, the ``TestbedJobResult`` fields and the cluster attributes
  callers read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json

import pytest

from repro.cluster.topology import ClusterTopology
from repro.testbed import (
    GrepJob,
    HdfsRaidFilesystem,
    LineCountJob,
    TestbedCluster,
    TestbedConfig,
    TestbedJobResult,
    WordCountJob,
)

#: SHA-256 of ``output_digest`` per job on :func:`small_config`.  The output
#: is a pure function of the corpus, so one digest covers every scheduler
#: and failure set.
OUTPUT_DIGESTS = {
    "WordCount": "e4e5dd7a3cc4f2164a84942195a31311f3a2af715b3e98730443c3be9e786eff",
    "Grep": "359a8d4f0cd203bd2bf2714a9cf248bc50a78a174eb2cdcfa234ed7159d7fcdb",
    "LineCount": "c8fa4289efececc17c06af5e37687e4b1f6a56bfafe14f3aa6e43562355de8bc",
}


def small_config() -> TestbedConfig:
    return TestbedConfig(
        num_blocks=36,
        block_size=64 * 1024,
        rack_bandwidth=16 * 1024 * 1024,
        map_processing_rate=2 * 1024 * 1024,
        heartbeat_interval=0.01,
        seed=4,
    )


def make_jobs():
    return [WordCountJob(), GrepJob("water"), LineCountJob()]


def output_digest(output: dict) -> str:
    """SHA-256 of a job output serialised as canonical JSON."""
    canonical = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.fixture(scope="module")
def cluster():
    return TestbedCluster(small_config())


@pytest.mark.parametrize("killed", [False, True], ids=["healthy", "killed"])
@pytest.mark.parametrize("scheduler", ["LF", "BDF", "EDF"])
def test_output_digests_pinned(cluster, scheduler, killed):
    failed = cluster.kill_node() if killed else frozenset()
    results = cluster.run_jobs(make_jobs(), scheduler=scheduler, failed_nodes=failed)
    digests = {result.job_name: output_digest(result.output) for result in results}
    assert digests == OUTPUT_DIGESTS


def _parameters(function) -> list[tuple[str, object]]:
    return [
        (parameter.name, parameter.default)
        for parameter in inspect.signature(function).parameters.values()
    ]


def test_public_surface_pinned(cluster):
    empty = inspect.Parameter.empty
    assert _parameters(TestbedCluster.run_job) == [
        ("self", empty), ("job", empty), ("scheduler", "EDF"),
        ("failed_nodes", frozenset()),
    ]
    assert _parameters(TestbedCluster.run_jobs) == [
        ("self", empty), ("jobs", empty), ("scheduler", "EDF"),
        ("failed_nodes", frozenset()),
    ]
    assert _parameters(TestbedCluster.kill_node) == [("self", empty)]
    assert [field.name for field in dataclasses.fields(TestbedJobResult)] == [
        "job_name", "scheduler", "runtime", "tasks", "output",
    ]
    assert isinstance(cluster.fs, HdfsRaidFilesystem)
    assert isinstance(cluster.corpus, bytes)
    assert isinstance(cluster.topology, ClusterTopology)
    assert isinstance(cluster.config, TestbedConfig)
