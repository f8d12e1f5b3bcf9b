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


class _DisabledGuardTrace:
    """Scrub a disabled guard's quantities from the decision trace.

    The single-guard ablations force one guard verdict to ``True`` without
    evaluating it, but EDF's tracing path records the raw quantities behind
    both guards.  The sanitizer cross-checks verdicts against quantities
    (``edf-guard``), so a forced verdict next to never-consulted numbers
    would read as a lying trace.  Dropping the disabled guard's quantities
    keeps the trace honest: verdict present, nothing claiming to justify it.
    """

    #: Trace fields of the guard this ablation disables.
    _disabled_quantities: tuple[str, ...] = ()

    def _degraded_guards(self, job: JobTaskState, slave_id: int, now: float) -> bool:
        verdict = super()._degraded_guards(job, slave_id, now)
        if self.last_guard_trace:
            for name in self._disabled_quantities:
                self.last_guard_trace.pop(name, None)
        return verdict


class SlaveGuardOnlyScheduler(_DisabledGuardTrace, EnhancedDegradedFirstScheduler):
    """EDF with locality preservation only (rack awareness disabled)."""

    name = "EDF-SLAVE"
    _disabled_quantities = ("t_r", "mean_t_r", "rack_threshold")

    def assign_to_rack(self, rack_id: int, now: float) -> bool:
        del rack_id, now
        return True


class RackGuardOnlyScheduler(_DisabledGuardTrace, EnhancedDegradedFirstScheduler):
    """EDF with rack awareness only (locality preservation disabled)."""

    name = "EDF-RACK"
    _disabled_quantities = ("t_s", "mean_t_s")

    def assign_to_slave(self, job: JobTaskState, slave_id: int) -> bool:
        del job, slave_id
        return True


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
