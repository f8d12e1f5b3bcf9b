"""The testbed's MapReduce runtime: real bytes on the simulator's clock.

A batch of jobs runs in two steps, on one thread and with no wall clock.

1. **Real pass.**  Every native block is read through
   :class:`~repro.testbed.localfs.HdfsRaidFilesystem`'s own read path -- a
   block on a failed node takes a genuine Reed-Solomon degraded read --
   and each job's ``map_fn`` and combiner run on the bytes.  The pairs are
   partitioned by a stable hash of the key and ``reduce_fn`` runs per
   partition.  This yields the job's output and the sizes the clock
   needs: block payload lengths and per-reducer partition bytes.
2. **Timing.**  One :func:`~repro.mapreduce.simulation.run_simulation`
   trial replays the batch on the same topology, code, placement and
   scheduler, over the exclusive-hold network (the link-hold semantic of
   the paper's NodeTree and of :mod:`repro.testbed.netem`).  Map time is
   the measured payload length over ``map_processing_rate``; reduce time
   and shuffle volume come from the measured partition bytes.

The bytes reach the clock only through those sizes, which is the paper's
point: a scheduler changes *when* work runs, never *what* is computed.
"""

from __future__ import annotations

import statistics
import zlib
from dataclasses import dataclass, field

from repro.cluster.failures import FailurePattern
from repro.cluster.topology import ClusterTopology
from repro.ec.codec import CodeParams
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.metrics import TaskRecord
from repro.mapreduce.simulation import run_simulation
from repro.sim.rng import RngStreams
from repro.storage.degraded import SourceSelection
from repro.testbed.jobs import MapReduceJob
from repro.testbed.localfs import HdfsRaidFilesystem
from repro.testbed.textgen import generate_corpus

#: At-start failure pattern for each killed-node count the testbed accepts.
_FAILURE_PATTERNS = (
    FailurePattern.NONE, FailurePattern.SINGLE_NODE, FailurePattern.DOUBLE_NODE
)


@dataclass(frozen=True)
class TestbedConfig:
    """Configuration of the testbed cluster.

    Defaults scale the paper's testbed down by 512x in block size (128 KB
    instead of 64 MB), keeping the paper's proportions: 12 slaves in 3
    racks, 4 map + 1 reduce slot each, a (12, 10) code, 8 reduce tasks,
    round-robin placement, and 240 blocks of synthetic Gutenberg-like text.

    Task processing is modelled time, charged as a simulator timeout: a map
    takes its block's payload bytes over ``map_processing_rate`` (~0.25 s
    at the defaults) and a reduce its partition bytes over
    ``reduce_processing_rate``, on top of the transfers the network
    charges.  The rack bandwidth makes an uncontended block transfer a
    small fraction of a map, as 64 MB at 1 Gbps is of the paper's ~31 s map
    tasks.  Degraded reads then hurt mainly through end-of-phase link
    contention -- the paper's central mechanism.
    """

    num_racks: int = 3
    nodes_per_rack: int = 4
    map_slots: int = 4
    reduce_slots: int = 1
    code: CodeParams = field(default_factory=lambda: CodeParams(12, 10))
    block_size: int = 128 * 1024
    num_blocks: int = 240
    num_reduce_tasks: int = 8
    placement: str = "round-robin"
    source_selection: SourceSelection = SourceSelection.RACK_LOCAL_FIRST
    rack_bandwidth: float = 5 * 1024 * 1024
    map_processing_rate: float = 512 * 1024
    vocabulary_size: int = 400
    reduce_processing_rate: float = 4 * 1024 * 1024
    heartbeat_interval: float = 0.025
    reduce_slowstart: float = 0.05
    seed: int = 0

    @property
    def num_nodes(self) -> int:
        """Total slave count."""
        return self.num_racks * self.nodes_per_rack

    @property
    def corpus_bytes(self) -> int:
        """Size of the stored input file."""
        return self.num_blocks * self.block_size


@dataclass
class TestbedJobResult:
    """Outcome of one testbed job run.

    ``runtime`` and ``tasks`` are the job's simulated metrics (runtime is
    first launch to last completion); ``output`` is what its reducers
    computed from the real bytes.
    """

    job_name: str
    scheduler: str
    runtime: float
    tasks: list[TaskRecord]
    output: dict[str, object]


class TestbedCluster:
    """A ready-to-run testbed: topology, filesystem and corpus.

    Parameters
    ----------
    config:
        The cluster configuration; the input corpus is generated from its
        seed.
    """

    def __init__(self, config: TestbedConfig) -> None:
        self.config = config
        self.topology = ClusterTopology.from_rack_sizes(
            [config.nodes_per_rack] * config.num_racks,
            map_slots=config.map_slots,
            reduce_slots=config.reduce_slots,
        )
        self.rng = RngStreams(config.seed)
        # No network: the simulator owns the clock, so reads move bytes only.
        self.fs = HdfsRaidFilesystem(
            self.topology,
            config.code,
            config.block_size,
            placement=config.placement,
            rng=self.rng,
            source_selection=config.source_selection,
        )
        self.corpus = generate_corpus(
            config.corpus_bytes,
            seed=config.seed,
            vocabulary_size=config.vocabulary_size,
        )
        self.fs.write_file(self.corpus)

    # -- public API ----------------------------------------------------------

    def run_job(
        self,
        job: MapReduceJob,
        scheduler: str = "EDF",
        failed_nodes: frozenset[int] = frozenset(),
    ) -> TestbedJobResult:
        """Run a single job to completion and return its result."""
        return self.run_jobs([job], scheduler, failed_nodes)[0]

    def run_jobs(
        self,
        jobs: list[MapReduceJob],
        scheduler: str = "EDF",
        failed_nodes: frozenset[int] = frozenset(),
    ) -> list[TestbedJobResult]:
        """Run several jobs submitted together, FIFO-scheduled.

        This is the paper's multi-job scenario: all jobs enter the queue in
        order at once and compete for slots under the chosen policy.  Each
        call draws its trial seed from the cluster's random streams, so
        repeated calls give distinct samples, deterministic per seed.
        """
        if not jobs:
            raise ValueError("need at least one job")
        if len(failed_nodes) >= len(_FAILURE_PATTERNS):
            raise ValueError(
                f"the testbed fails at most {len(_FAILURE_PATTERNS) - 1} nodes, "
                f"got {sorted(failed_nodes)}"
            )
        block_map = self.fs.block_map
        # The reader only anchors degraded-read source selection; the
        # trial below times every read.
        payloads = [
            self.fs.read_block(block, block_map.node_of(block), failed_nodes)[0]
            for block in block_map.native_blocks()
        ]
        outputs, job_configs = zip(*(self._real_pass(job, payloads) for job in jobs))
        trial = run_simulation(self._trial_config(job_configs, scheduler, failed_nodes))
        return [
            TestbedJobResult(
                job_name=job.name,
                scheduler=scheduler,
                runtime=trial.jobs[job_id].runtime,
                tasks=trial.jobs[job_id].tasks,
                output=output,
            )
            for job_id, (job, output) in enumerate(zip(jobs, outputs))
        ]

    def kill_node(self) -> frozenset[int]:
        """Pick one slave at random to fail (the paper kills one datanode)."""
        victim = self.rng.choice("testbed-failure", sorted(self.topology.node_ids()))
        return frozenset({victim})

    # -- the two steps ---------------------------------------------------------

    def _real_pass(
        self, job: MapReduceJob, payloads: list[bytes]
    ) -> tuple[dict[str, object], JobConfig]:
        """Run ``job`` over the block payloads.

        Returns the job's output and the simulated job whose task times and
        shuffle volume the measured sizes set.  Partitioning uses CRC-32 of
        the UTF-8 key, not ``hash()``: string hashing is salted per process,
        which would make each reducer's bytes (and so its simulated time)
        depend on ``PYTHONHASHSEED``.
        """
        config = self.config
        partitions: list[dict[str, list]] = [{} for _ in range(config.num_reduce_tasks)]
        partition_bytes = [0] * config.num_reduce_tasks
        for payload in payloads:
            for key, value in job.combine(job.map_fn(payload)):
                index = zlib.crc32(key.encode()) % config.num_reduce_tasks
                partitions[index].setdefault(key, []).append(value)
                partition_bytes[index] += len(key) + 8
        output: dict[str, object] = {}
        for partition in partitions:
            for key, values in partition.items():
                output.update(job.reduce_fn(key, values))
        map_seconds = [len(payload) / config.map_processing_rate for payload in payloads]
        reduce_seconds = [size / config.reduce_processing_rate for size in partition_bytes]
        return output, JobConfig(
            num_blocks=len(payloads),
            map_time_mean=statistics.fmean(map_seconds),
            map_time_std=statistics.pstdev(map_seconds),
            reduce_time_mean=statistics.fmean(reduce_seconds),
            reduce_time_std=statistics.pstdev(reduce_seconds),
            num_reduce_tasks=config.num_reduce_tasks,
            shuffle_ratio=sum(partition_bytes) / (len(payloads) * config.block_size),
        )

    def _trial_config(
        self, jobs: tuple[JobConfig, ...], scheduler: str, failed_nodes: frozenset[int]
    ) -> SimulationConfig:
        """One simulation trial of this cluster running ``jobs``."""
        config = self.config
        return SimulationConfig(
            num_nodes=config.num_nodes,
            num_racks=config.num_racks,
            map_slots=config.map_slots,
            reduce_slots=config.reduce_slots,
            rack_bandwidth=config.rack_bandwidth,
            network_model="exclusive",
            code=config.code,
            block_size=config.block_size,
            placement=config.placement,
            source_selection=config.source_selection,
            jobs=jobs,
            failure=_FAILURE_PATTERNS[len(failed_nodes)],
            failure_eligible=tuple(sorted(failed_nodes)),
            scheduler=scheduler,
            heartbeat_interval=config.heartbeat_interval,
            reduce_slowstart=config.reduce_slowstart,
            # Reducers poll for shuffle data once per heartbeat.
            shuffle_drain_interval=config.heartbeat_interval,
            seed=self.rng.randint("testbed-trial", 0, 2**31 - 1),
        )
