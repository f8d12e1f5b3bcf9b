"""Ablation scheduler variants.

These isolate the design choices of degraded-first scheduling so the
benchmark suite can measure what each one buys:

* :class:`EagerDegradedScheduler` (``EAGER``) -- strict degraded priority
  with no pacing: the naive alternative the pacing rule improves on.
* :class:`UncappedDegradedFirstScheduler` (``BDF-UNCAPPED``) -- BDF without
  the one-degraded-task-per-heartbeat cap, so one slave can start several
  degraded reads at once.
* :class:`SlaveGuardOnlyScheduler` (``EDF-SLAVE``) -- EDF with only
  locality preservation (no rack awareness).
* :class:`RackGuardOnlyScheduler` (``EDF-RACK``) -- EDF with only rack
  awareness (no locality preservation).
"""

from __future__ import annotations

from repro.core.degraded_first import pacing_allows_degraded
from repro.core.enhanced import EnhancedDegradedFirstScheduler
from repro.core.scheduler import Scheduler
from repro.core.tasks import JobTaskState


class EagerDegradedScheduler(Scheduler):
    """Launch every degraded task as soon as any slot frees.

    The opposite extreme from locality-first: degraded tasks get strict
    priority with no pacing and no per-heartbeat cap, so all degraded reads
    start together at the *beginning* of the map phase and congest the rack
    links there instead of at the end.
    """

    name = "EAGER"
    _trace_pacing = False

    def pick_map(self, job, slave_id, now):
        assignment = (
            self._try_degraded(job, slave_id)
            or self._try_local(job, slave_id)
            or self._try_remote(job, slave_id)
        )
        return assignment, "eager", None


class UncappedDegradedFirstScheduler(Scheduler):
    """BDF's pacing rule without the one-per-heartbeat cap.

    Whenever the pacing condition holds, a degraded task is admitted --
    even several in the same heartbeat on the same slave, which makes
    that slave's simultaneous degraded reads compete with each other
    (the situation Line 4 of Algorithm 2 exists to prevent).
    """

    name = "BDF-UNCAPPED"

    def pick_map(self, job, slave_id, now):
        assignment = None
        if job.has_unassigned_degraded() and pacing_allows_degraded(job):
            assignment = self._try_degraded(job, slave_id)
        if assignment is None:
            assignment = self._try_local(job, slave_id) or self._try_remote(job, slave_id)
        return assignment, "uncapped", None


class SlaveGuardOnlyScheduler(EnhancedDegradedFirstScheduler):
    """EDF with locality preservation only (rack awareness disabled).

    The disabled guard admits every rack and reports no quantities, so the
    decision trace holds its verdict with nothing claiming to justify it
    (the sanitizer cross-checks verdicts against quantities).
    """

    name = "EDF-SLAVE"

    def _rack_guard(self, rack_id: int, now: float) -> tuple[bool, dict]:
        del rack_id, now
        return True, {}


class RackGuardOnlyScheduler(EnhancedDegradedFirstScheduler):
    """EDF with rack awareness only (locality preservation disabled)."""

    name = "EDF-RACK"

    def _slave_guard(self, job: JobTaskState, slave_id: int) -> tuple[bool, dict]:
        del job, slave_id
        return True, {}


class DelayScheduler(Scheduler):
    """Locality-first with delay scheduling (Zaharia et al., EuroSys'10).

    The paper cites delay scheduling as the locality technique for
    multi-user clusters: a job with no local task for the heartbeating
    slave *waits* (skips the slot) for up to ``max_delay`` seconds of
    skipped opportunities before accepting a non-local task.  Degraded
    tasks keep LF's lowest priority.  Included as a stronger locality
    baseline: delaying improves locality but does nothing about the
    end-of-phase degraded-read competition, so degraded-first scheduling
    still wins in failure mode.
    """

    name = "LF-DELAY"
    _trace_pacing = False

    #: Seconds of skipped heartbeats a job tolerates before going remote.
    max_delay = 9.0

    def __init__(self, context) -> None:
        super().__init__(context)
        self._first_skip_at: dict[int, float] = {}

    def pick_map(self, job, slave_id, now):
        assignment = self._try_local(job, slave_id)
        if assignment is not None:
            self._first_skip_at.pop(job.job_id, None)
            return assignment, "local", None
        if self._delay_expired(job, now):
            assignment = self._try_remote(job, slave_id) or self._try_degraded(job, slave_id)
        return assignment, "delay-expired", None

    def _delay_expired(self, job: JobTaskState, now: float) -> bool:
        if not job.has_unassigned_maps():
            return False
        first_skip = self._first_skip_at.setdefault(job.job_id, now)
        return now - first_skip >= self.max_delay


#: All ablation variants, for registration.
ABLATION_SCHEDULERS = (
    EagerDegradedScheduler,
    UncappedDegradedFirstScheduler,
    SlaveGuardOnlyScheduler,
    RackGuardOnlyScheduler,
    DelayScheduler,
)
