"""Algorithm 2: basic degraded-first scheduling (BDF).

The pacing rule: launch a degraded task ahead of local work whenever the
launched-degraded fraction is no more than the launched-map fraction,

    m / M  >=  m_d / M_d,

which spreads degraded launches evenly through the map phase.  At most one
degraded task is assigned per heartbeat (Line 4 of Algorithm 2) so that a
slave never runs two simultaneous degraded reads.  The remaining free slots
are filled with local then remote tasks exactly as in Algorithm 1 -- note
that the fallback deliberately excludes degraded tasks.
"""

from __future__ import annotations

from repro.core.scheduler import Scheduler
from repro.core.tasks import JobTaskState
from repro.mapreduce.job import MapAssignment


def pacing_allows_degraded(job: JobTaskState) -> bool:
    """The paper's launch condition ``m/M >= m_d/M_d``.

    Evaluated in cross-multiplied form to avoid dividing by zero when a job
    has no degraded tasks (then the condition is irrelevant anyway).
    """
    if job.M_d == 0:
        return False
    return job.m * job.M_d >= job.m_d * job.M


class BasicDegradedFirstScheduler(Scheduler):
    """The paper's BDF (Algorithm 2)."""

    name = "BDF"

    def assign_maps(
        self,
        slave_id: int,
        free_map_slots: int,
        jobs: list[JobTaskState],
        now: float,
    ) -> list[MapAssignment]:
        tracing = self.bus is not None
        assignments: list[MapAssignment] = []
        degraded_task_assigned = False
        for job in jobs:
            if (
                not degraded_task_assigned
                and free_map_slots > 0
                and job.has_unassigned_degraded()
            ):
                # Pacing state is captured before any pop mutates m/m_d.
                pacing = self.pacing_fields(job) if tracing else None
                if not pacing_allows_degraded(job):
                    if tracing:
                        self.trace_decision(
                            now, slave_id, job_id=job.job_id,
                            action="skip-degraded", reason="pacing", **pacing,
                        )
                elif not self._degraded_guards(job, slave_id, now):
                    if tracing:
                        guards = self.last_guard_trace or {}
                        reason = guards.get("rejected_by", "guard")
                        self.trace_decision(
                            now, slave_id, job_id=job.job_id,
                            action="skip-degraded", reason=f"{reason}-guard",
                            **pacing, **guards,
                        )
                else:
                    assignment = self._try_degraded(job, slave_id)
                    if assignment is not None:
                        assignments.append(assignment)
                        free_map_slots -= 1
                        degraded_task_assigned = True
                        self._on_degraded_assigned(slave_id, now)
                        if tracing:
                            guards = self.last_guard_trace or {}
                            self.trace_decision(
                                now, slave_id, job_id=job.job_id,
                                action="assign", reason="degraded-first",
                                category=assignment.category.value,
                                block=str(assignment.block),
                                **pacing, **guards,
                            )
            free_map_slots = self._fill_from(job, slave_id, free_map_slots, now, assignments)
            if free_map_slots == 0:
                break
        return assignments

    def pick_map(self, job, slave_id, now):
        """The locality fallback: Algorithm 1's order without degraded tasks."""
        assignment = self._try_local(job, slave_id) or self._try_remote(job, slave_id)
        return assignment, "locality-fallback", None

    # -- hooks overridden by the enhanced scheduler ---------------------------

    def _degraded_guards(self, job: JobTaskState, slave_id: int, now: float) -> bool:
        """Extra admission checks before a degraded launch; BDF has none."""
        del job, slave_id, now
        return True

    def _on_degraded_assigned(self, slave_id: int, now: float) -> None:
        """Bookkeeping after a degraded launch; BDF keeps none."""
        del slave_id, now
