"""Algorithm 1: Hadoop's default locality-first scheduling on HDFS-RAID.

For every free map slot of the heartbeating slave, iterate jobs in FIFO
order and assign the first of: an unassigned local task, an unassigned
remote task, an unassigned degraded task.  Degraded tasks therefore launch
only after all of a job's normal tasks are assigned -- the behaviour the
paper shows causes end-of-phase network competition.
"""

from __future__ import annotations

from repro.core.scheduler import Scheduler


class LocalityFirstScheduler(Scheduler):
    """The paper's LF baseline (Hadoop 0.22 default)."""

    name = "LF"

    def pick_map(self, job, slave_id, now):
        # LF never *uses* the pacing state, but the decision trace records
        # the ratio the paper's condition would have seen at this instant.
        assignment = (
            self._try_local(job, slave_id)
            or self._try_remote(job, slave_id)
            or self._try_degraded(job, slave_id)
        )
        return assignment, "lf-order", None
