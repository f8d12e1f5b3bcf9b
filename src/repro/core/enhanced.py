"""Algorithm 3: enhanced degraded-first scheduling (EDF).

EDF is BDF plus two topology-aware admission guards applied before a
degraded launch:

**Locality preservation** (``ASSIGNTOSLAVE``).  Estimate the local-map
backlog of each slave, ``t_s = pending_node_local(s) * T / (L_s * speed_s)``,
and the mean ``E[t_s]`` over live slaves.  A slave whose backlog exceeds the
mean has no spare capacity: giving it a degraded task would push its own
local blocks onto other nodes as remote tasks.  So degraded tasks are only
admitted on slaves with ``t_s <= E[t_s]``.

.. note::
   The paper's prose (Section IV-C) says a slave with ``t_s > E[t_s]`` "does
   not have spare resources ... so we do not assign a degraded task to it",
   and its evaluation explains EDF's win as "assigning degraded tasks to the
   nodes that have low processing time for local tasks".  The pseudocode of
   Algorithm 3 prints the comparison the other way round
   (``if t_s < E[t_s] then return false``); we follow the prose, which is
   the only reading consistent with the reported remote-task reductions.

**Rack awareness** (``ASSIGNTORACK``).  Track, per rack ``r``, the time
``t_r`` since the rack last launched a degraded task and the mean ``E[t_r]``
over racks.  A rack is skipped when ``t_r < min(E[t_r], threshold)`` where
the threshold is the expected degraded-read time ``(R-1) k S / (R W)``:
the rack is then still busy downloading for its previous degraded task.

The backlog estimate divides by the slave's slot count and speed factor, so
the guard also handles heterogeneous clusters, as Section IV-C describes:
fast slaves are allowed to take a degraded task even while holding more
local work.
"""

from __future__ import annotations

import math

from repro.core.degraded_first import BasicDegradedFirstScheduler
from repro.core.scheduler import SchedulerContext
from repro.core.tasks import JobTaskState


class EnhancedDegradedFirstScheduler(BasicDegradedFirstScheduler):
    """The paper's EDF (Algorithm 3)."""

    name = "EDF"

    def __init__(self, context: SchedulerContext) -> None:
        super().__init__(context)
        self._last_degraded_at: dict[int, float] = {}

    # -- the two guard functions of Algorithm 3 -------------------------------

    def assign_to_slave(self, job: JobTaskState, slave_id: int) -> bool:
        """``ASSIGNTOSLAVE``: admit only slaves with at-most-average backlog."""
        return self._slave_guard(job, slave_id)[0]

    def assign_to_rack(self, rack_id: int, now: float) -> bool:
        """``ASSIGNTORACK``: skip racks mid-way through a degraded read."""
        return self._rack_guard(rack_id, now)[0]

    def _slave_guard(self, job: JobTaskState, slave_id: int) -> tuple[bool, dict]:
        """``ASSIGNTOSLAVE``'s verdict and the quantities behind it."""
        t_s = self._local_backlog_time(job, slave_id)
        expected = self._mean_backlog_time(job)
        return t_s <= expected + 1e-12, {"t_s": t_s, "mean_t_s": expected}

    def _rack_guard(self, rack_id: int, now: float) -> tuple[bool, dict]:
        """``ASSIGNTORACK``'s verdict and the quantities behind it."""
        t_r = self._time_since_degraded(rack_id, now)
        expected = self._mean_time_since_degraded(now)
        threshold = self.context.expected_degraded_read_time
        quantities = {"t_r": t_r, "mean_t_r": expected, "rack_threshold": threshold}
        return t_r >= min(expected, threshold), quantities

    # -- hooks into the BDF main loop ------------------------------------------

    def _degraded_guards(self, job: JobTaskState, slave_id: int, now: float) -> bool:
        rack_id = self.context.topology.rack_of(slave_id)
        if self.bus is None:
            return self.assign_to_slave(job, slave_id) and self.assign_to_rack(rack_id, now)
        # Tracing path: evaluate both guards (they are pure, so the verdict
        # is unchanged) and record every quantity behind the decision.
        slave_ok, slave_quantities = self._slave_guard(job, slave_id)
        rack_ok, rack_quantities = self._rack_guard(rack_id, now)
        self.last_guard_trace = {
            **slave_quantities,
            "slave_ok": slave_ok,
            "rack": rack_id,
            **rack_quantities,
            "rack_ok": rack_ok,
            "rejected_by": None if slave_ok and rack_ok
            else ("slave" if not slave_ok else "rack"),
        }
        return slave_ok and rack_ok

    def _on_degraded_assigned(self, slave_id: int, now: float) -> None:
        rack_id = self.context.topology.rack_of(slave_id)
        self._last_degraded_at[rack_id] = now

    # -- estimates ---------------------------------------------------------------

    def _local_backlog_time(self, job: JobTaskState, slave_id: int) -> float:
        """Estimated time for ``slave_id`` to drain its local maps plus one more.

        The candidate degraded task itself is counted (the ``+ 1``): the
        paper's computing-power provision says slow slaves must not absorb
        degraded work, and without the extra term a slow slave with an empty
        backlog would have ``t_s = 0`` and always pass the guard, defeating
        that intent.  On a homogeneous cluster the term shifts every slave's
        estimate equally and the comparison is unchanged.
        """
        node = self.context.topology.node(slave_id)
        backlog = job.pending_node_local_count(slave_id)
        slots = max(node.map_slots, 1)
        return (backlog + 1) * job.config.map_time_mean / (slots * node.speed_factor)

    def _mean_backlog_time(self, job: JobTaskState) -> float:
        """``E[t_s]`` over live slaves."""
        live = self.context.live_nodes
        if not live:
            return 0.0
        total = sum(self._local_backlog_time(job, node_id) for node_id in live)
        return total / len(live)

    def _time_since_degraded(self, rack_id: int, now: float) -> float:
        """``t_r``: +inf until the rack's first degraded launch."""
        last = self._last_degraded_at.get(rack_id)
        if last is None:
            return math.inf
        return now - last

    def _mean_time_since_degraded(self, now: float) -> float:
        """``E[t_r]`` over *all* racks.

        Racks that have never launched a degraded task contribute an
        infinite ``t_r``, making the mean infinite; the
        ``min(E[t_r], threshold)`` in :meth:`assign_to_rack` then falls back
        to the expected-degraded-read-time threshold.
        """
        values = [
            self._time_since_degraded(rack.rack_id, now)
            for rack in self.context.topology.racks
        ]
        if not values:
            return math.inf
        if any(math.isinf(value) for value in values):
            return math.inf
        return sum(values) / len(values)
