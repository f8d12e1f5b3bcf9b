"""Job and task descriptions for the simulated MapReduce engine.

A *job* is split into map tasks (one per native block of its input file) and
a fixed number of reduce tasks.  Map tasks are classified at assignment time
relative to the slave they run on, following Section II-A of the paper:

* ``NODE_LOCAL`` -- the block is stored on the slave itself;
* ``RACK_LOCAL`` -- the block is on another node of the slave's rack
  (the paper folds this into "local");
* ``REMOTE`` -- the block is in a different rack and must be downloaded;
* ``DEGRADED`` -- the block is lost and must be reconstructed via a
  degraded read of ``k`` surviving blocks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

from repro.storage.block import BlockId


class TaskKind(enum.Enum):
    """Map or reduce."""

    MAP = "map"
    REDUCE = "reduce"


class MapTaskCategory(enum.Enum):
    """Locality class of a map task, fixed at assignment time."""

    NODE_LOCAL = "node-local"
    RACK_LOCAL = "rack-local"
    REMOTE = "remote"
    DEGRADED = "degraded"


@dataclass(frozen=True)
class MapAssignment:
    """A map task handed to a slave in a heartbeat response.

    ``speculative`` marks a backup attempt of a task that is already
    running elsewhere; the first finisher wins and the other attempt is
    interrupted.
    """

    job_id: int
    block: BlockId
    category: MapTaskCategory
    slave_id: int
    speculative: bool = False

    kind: ClassVar[str] = "map"

    @property
    def task(self) -> BlockId:
        """What names the task within its job: the block it maps."""
        return self.block

    @property
    def label(self) -> str:
        """How a failure reason names the task."""
        return f"map task for block {self.block}"

    def event_fields(self, category: bool = False) -> dict:
        """The fields naming the task in a ``task.*`` event.

        ``category`` adds the locality class, which ``task.launch`` and
        ``task.finish`` carry.
        """
        if category:
            return {"block": str(self.block), "category": self.category.value}
        return {"block": str(self.block)}


@dataclass(frozen=True)
class ReduceAssignment:
    """A reduce task handed to a slave in a heartbeat response."""

    job_id: int
    reduce_index: int
    slave_id: int

    kind: ClassVar[str] = "reduce"
    #: Reduces have no locality class and no backup attempts.
    category: ClassVar[None] = None
    speculative: ClassVar[bool] = False

    @property
    def task(self) -> int:
        """What names the task within its job: its partition index."""
        return self.reduce_index

    @property
    def label(self) -> str:
        """How a failure reason names the task."""
        return f"reduce task {self.reduce_index}"

    def event_fields(self, category: bool = False) -> dict:
        """The fields naming the task in a ``task.*`` event."""
        return {"reduce_index": self.reduce_index}
