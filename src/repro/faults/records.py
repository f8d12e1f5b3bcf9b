"""What the fault-tolerance machinery measured during one trial.

The paper's simulator knows about failures omnisciently, so it has nothing
to measure about *detection*.  Once failures are detected from heartbeat
expiry (:mod:`repro.faults.driver`), detection latency, blacklist events,
recoveries and slowdowns all become observable quantities; they are
collected here and attached to the trial's
:class:`~repro.mapreduce.metrics.SimulationResult` as ``result.faults``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DetectionRecord:
    """The master declared a node dead after its heartbeats stopped."""

    node: int
    #: Ground-truth instant the node actually died (from the schedule).
    failed_at: float
    #: Instant the master declared it dead.
    detected_at: float

    @property
    def latency(self) -> float:
        """How long the master believed a dead node was alive."""
        return self.detected_at - self.failed_at


@dataclass(frozen=True)
class BlacklistRecord:
    """A node crossed the consecutive-failure threshold and was blacklisted."""

    node: int
    at: float
    consecutive_failures: int


@dataclass(frozen=True)
class RecoveryRecord:
    """A failed node rejoined the cluster."""

    node: int
    at: float
    #: Pending degraded tasks reclassified back to normal because their
    #: blocks became readable again.
    reclaimed_tasks: int


@dataclass(frozen=True)
class RepairRecord:
    """The online repair driver rebuilt one lost (or corrupt) block."""

    #: ``str(BlockId)`` of the rebuilt block.
    block: str
    #: Node the rebuilt block now lives on.
    destination: int
    started_at: float
    finished_at: float
    #: Bytes downloaded by the destination (``k`` source blocks).
    bytes_fetched: float
    #: Pending degraded map tasks reclassified to normal locality because
    #: this block came back.
    reclaimed_tasks: int
    #: Plan/execution attempts (``> 1`` when a source died mid-repair).
    attempts: int = 1


@dataclass(frozen=True)
class CorruptionRecord:
    """A checksum-bad block was discovered on a live node."""

    #: ``str(BlockId)`` of the corrupt block.
    block: str
    #: Node holding the corrupt copy.
    node: int
    #: Instant the corruption was noticed.
    detected_at: float
    #: ``"read"`` (a task tripped over it) or ``"scrub"`` (proactive scan).
    via: str


@dataclass(frozen=True)
class SlowdownRecord:
    """A node ran at reduced speed for a while."""

    node: int
    at: float
    factor: float
    duration: float


@dataclass
class FaultTimeline:
    """Every fault-related observation of one trial, in event order."""

    detections: list[DetectionRecord] = field(default_factory=list)
    blacklistings: list[BlacklistRecord] = field(default_factory=list)
    recoveries: list[RecoveryRecord] = field(default_factory=list)
    slowdowns: list[SlowdownRecord] = field(default_factory=list)
    repairs: list[RepairRecord] = field(default_factory=list)
    corruptions: list[CorruptionRecord] = field(default_factory=list)

    @property
    def repaired_bytes(self) -> float:
        """Total bytes the repair driver moved during the trial."""
        return sum(record.bytes_fetched for record in self.repairs)

    @property
    def detection_latencies(self) -> list[float]:
        """Detection latency of every declared failure, in declare order."""
        return [record.latency for record in self.detections]
