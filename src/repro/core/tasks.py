"""Per-job bookkeeping of unassigned tasks and launch counters.

A :class:`JobTaskState` holds the two pools every scheduler draws from --
*normal* map tasks (each with a home node where its block lives) and
*degraded* map tasks (whose block is lost) -- plus the counters the paper's
pacing rule needs:

* ``M``   -- total map tasks of the job,
* ``M_d`` -- total degraded tasks,
* ``m``   -- map tasks launched so far,
* ``m_d`` -- degraded tasks launched so far.

The pools support the exact queries Algorithms 1-3 make: "an unassigned
local task (for slave *s*)", "an unassigned remote task (for *s*)", and "an
unassigned degraded task".
"""

from __future__ import annotations

from collections import deque

from repro.cluster.topology import ClusterTopology
from repro.mapreduce.config import JobConfig
from repro.storage.block import BlockId
from repro.storage.hdfs import FailureView
from repro.storage.namenode import BlockMap


class JobTaskState:
    """Scheduling state of one job.

    Parameters
    ----------
    job_id:
        Identifier (FIFO order follows submit order).
    config:
        The job's workload parameters.
    view:
        The storage failure view: which blocks are lost vs available.
    block_map:
        Placement metadata (home node of every available block).
    topology:
        Cluster layout, for rack-level queries.
    """

    def __init__(
        self,
        job_id: int,
        config: JobConfig,
        view: FailureView,
        block_map: BlockMap,
        topology: ClusterTopology,
    ) -> None:
        self.job_id = job_id
        self.config = config
        self.topology = topology
        self.block_map = block_map

        self.total_map_tasks = len(view.available_blocks) + len(view.lost_blocks)
        self.total_degraded_tasks = len(view.lost_blocks)
        self.launched_map_tasks = 0
        self.launched_degraded_tasks = 0
        self.completed_map_tasks = 0

        self._pending_by_node: dict[int, deque[BlockId]] = {}
        self._pending_per_rack: dict[int, int] = {}
        self._pending_normal = 0
        for block in view.available_blocks:
            self._add_normal(block, block_map.node_of(block))
        self._pending_degraded: deque[BlockId] = deque(view.lost_blocks)

        self.pending_reduce_tasks: deque[int] = deque(range(config.num_reduce_tasks))
        self.completed_reduce_tasks = 0

    # -- aliases matching the paper's notation -------------------------------

    @property
    def M(self) -> int:  # noqa: N802 - paper notation
        """Total map tasks."""
        return self.total_map_tasks

    @property
    def M_d(self) -> int:  # noqa: N802 - paper notation
        """Total degraded tasks."""
        return self.total_degraded_tasks

    @property
    def m(self) -> int:
        """Map tasks launched so far."""
        return self.launched_map_tasks

    @property
    def m_d(self) -> int:  # noqa: N802 - paper notation
        """Degraded tasks launched so far."""
        return self.launched_degraded_tasks

    # -- pool queries ---------------------------------------------------------

    def has_unassigned_degraded(self) -> bool:
        """Whether any degraded task awaits launch."""
        return bool(self._pending_degraded)

    def has_unassigned_normal(self) -> bool:
        """Whether any normal (non-degraded) map task awaits launch."""
        return self._pending_normal > 0

    def has_unassigned_maps(self) -> bool:
        """Whether any map task at all awaits launch."""
        return self.has_unassigned_normal() or self.has_unassigned_degraded()

    def maps_all_completed(self) -> bool:
        """Whether every map task of the job has finished."""
        return self.completed_map_tasks >= self.total_map_tasks

    def job_completed(self) -> bool:
        """Whether the job (maps and reduces) has fully finished."""
        if not self.maps_all_completed():
            return False
        return self.completed_reduce_tasks >= self.config.num_reduce_tasks

    def pending_node_local_count(self, node_id: int) -> int:
        """Unassigned map tasks whose block is stored on ``node_id``.

        This is the backlog the EDF locality-preservation guard estimates
        ``t_s`` from.
        """
        queue = self._pending_by_node.get(node_id)
        return len(queue) if queue else 0

    def pending_degraded_count(self) -> int:
        """Unassigned degraded map tasks awaiting launch."""
        return len(self._pending_degraded)

    # -- pool pops (assignment) ----------------------------------------------

    def pop_local(self, slave_id: int) -> tuple[BlockId, bool] | None:
        """Take an unassigned *local* task for ``slave_id``.

        Prefers node-local over rack-local (as Hadoop does); returns the
        block and a flag that is True when the pick was node-local, or None
        when the slave's rack has no pending blocks.
        """
        queue = self._pending_by_node.get(slave_id)
        if queue:
            return self._take(slave_id, queue), True
        rack = self.topology.rack_of(slave_id)
        if self._pending_per_rack.get(rack, 0) == 0:
            return None
        for node_id in self.topology.nodes_in_rack(rack):
            queue = self._pending_by_node.get(node_id)
            if queue:
                return self._take(node_id, queue), False
        return None

    def pop_remote(self, slave_id: int) -> BlockId | None:
        """Take an unassigned *remote* task for ``slave_id``.

        Remote means the block lives in a different rack.  Racks are scanned
        in id order for determinism.
        """
        my_rack = self.topology.rack_of(slave_id)
        for rack in self.topology.racks:
            if rack.rack_id == my_rack:
                continue
            if self._pending_per_rack.get(rack.rack_id, 0) == 0:
                continue
            for node_id in rack.node_ids:
                queue = self._pending_by_node.get(node_id)
                if queue:
                    return self._take(node_id, queue)
        return None

    def pop_from_node(self, node_id: int) -> BlockId | None:
        """Take an unassigned normal task stored on ``node_id``, or None.

        Unlike :meth:`pop_local`/:meth:`pop_remote` this names the *home*
        node directly, so policies that pick a source node globally (FIFO
        scan order, work-stealing victims) share the same counter-updating
        path as the locality-driven pops.
        """
        queue = self._pending_by_node.get(node_id)
        if not queue:
            return None
        return self._take(node_id, queue)

    def pop_degraded(self) -> BlockId | None:
        """Take an unassigned degraded task (file order)."""
        if not self._pending_degraded:
            return None
        block = self._pending_degraded.popleft()
        self.launched_map_tasks += 1
        self.launched_degraded_tasks += 1
        return block

    def pop_reduce(self) -> int | None:
        """Take an unassigned reduce task index."""
        if not self.pending_reduce_tasks:
            return None
        return self.pending_reduce_tasks.popleft()

    def reduce_ready(self, slowstart: float) -> bool:
        """Whether reduce tasks may launch (the Hadoop slow-start rule).

        Reducers launch once the completed-map fraction reaches
        ``slowstart``; map-only jobs never launch reducers.
        """
        if self.config.num_reduce_tasks == 0:
            return False
        if self.total_map_tasks == 0:
            return True
        return self.completed_map_tasks >= slowstart * self.total_map_tasks

    # -- completion callbacks ---------------------------------------------------

    def on_map_complete(self) -> None:
        """Record one map completion."""
        self.completed_map_tasks += 1
        if self.completed_map_tasks > self.total_map_tasks:
            raise RuntimeError(f"job {self.job_id} completed more maps than it has")

    def on_reduce_complete(self) -> None:
        """Record one reduce completion."""
        self.completed_reduce_tasks += 1
        if self.completed_reduce_tasks > self.config.num_reduce_tasks:
            raise RuntimeError(f"job {self.job_id} completed more reduces than it has")

    # -- mid-run failure support ------------------------------------------------

    def on_node_failure(self, failed_node: int) -> int:
        """Convert the failed node's pending local tasks into degraded tasks.

        When a node dies *during* the job, the blocks stored on it that had
        not been assigned yet can no longer be read directly; each becomes a
        degraded task.  Returns how many tasks were converted.  ``M`` is
        unchanged (the work still exists); ``M_d`` grows.
        """
        queue = self._pending_by_node.pop(failed_node, None)
        if not queue:
            return 0
        rack = self.topology.rack_of(failed_node)
        converted = len(queue)
        self._pending_per_rack[rack] -= converted
        self._pending_normal -= converted
        self.total_degraded_tasks += converted
        self._pending_degraded.extend(queue)
        return converted

    def on_node_recovery(self, recovered_node: int) -> int:
        """Reclassify pending degraded tasks whose blocks just came back.

        When a failed node rejoins, the blocks stored on it are readable
        again, so pending degraded tasks whose lost block lives there go
        back into the normal pool (``M_d`` shrinks; ``M`` is unchanged).
        Returns how many tasks were reclaimed.  Degraded tasks already
        *running* keep reconstructing -- interrupting them would waste more
        work than the reclassification saves.
        """
        kept: deque[BlockId] = deque()
        reclaimed: list[BlockId] = []
        for block in self._pending_degraded:
            if self.block_map.node_of(block) == recovered_node:
                reclaimed.append(block)
            else:
                kept.append(block)
        if not reclaimed:
            return 0
        self._pending_degraded = kept
        for block in reclaimed:
            self._add_normal(block, recovered_node)
        self.total_degraded_tasks -= len(reclaimed)
        return len(reclaimed)

    def on_block_repaired(self, block: BlockId, new_home: int) -> int:
        """Reclassify one pending degraded task whose block was just rebuilt.

        The online repair driver re-created ``block`` on ``new_home``; if a
        pending degraded task was waiting on it, the task returns to the
        normal pool with its new home (``M_d`` shrinks, ``M`` unchanged).
        Parity blocks and already-running tasks are unaffected.  Returns
        the number of reclaimed tasks (0 or 1).
        """
        if block not in self._pending_degraded:
            return 0
        self._pending_degraded.remove(block)
        self._add_normal(block, new_home)
        self.total_degraded_tasks -= 1
        return 1

    def requeue_killed_map(self, block: BlockId, was_degraded: bool, lost: bool) -> None:
        """Put a killed running map task back into the right pool.

        ``was_degraded`` is the task's category when it was launched;
        ``lost`` says whether the block's home node is (now) failed.  Launch
        counters roll back so the pacing rule keeps its meaning.
        """
        self.launched_map_tasks -= 1
        if was_degraded:
            self.launched_degraded_tasks -= 1
            self._pending_degraded.append(block)
            return
        if lost:
            # A normal task whose input died with the node: now degraded.
            self.total_degraded_tasks += 1
            self._pending_degraded.append(block)
            return
        self._add_normal(block, self.block_map.node_of(block))

    def requeue_killed_reduce(self, reduce_index: int) -> None:
        """Put a killed running reduce task back into the pending queue."""
        self.pending_reduce_tasks.appendleft(reduce_index)

    # -- internals ----------------------------------------------------------------

    def _add_normal(self, block: BlockId, home: int) -> None:
        """Put ``block`` at the back of the normal pool under its ``home`` node."""
        self._pending_by_node.setdefault(home, deque()).append(block)
        rack = self.topology.rack_of(home)
        self._pending_per_rack[rack] = self._pending_per_rack.get(rack, 0) + 1
        self._pending_normal += 1

    def _take(self, home_node: int, queue: deque[BlockId]) -> BlockId:
        block = queue.popleft()
        rack = self.topology.rack_of(home_node)
        self._pending_per_rack[rack] -= 1
        self._pending_normal -= 1
        self.launched_map_tasks += 1
        return block
