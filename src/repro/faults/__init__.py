"""Fault tolerance: scripted failure schedules, detection, retries, speculation.

This package is the simulator's fault-tolerance subsystem.  The paper's
experiments inject failures only at trial start; real erasure-coded clusters
fail *during* jobs, recover, and limp.  The pieces here close that gap:

* :mod:`repro.faults.schedule` -- a declarative, reproducible timeline of
  :class:`FailEvent` / :class:`RecoverEvent` / :class:`SlowdownEvent` /
  :class:`CorruptEvent` entries, buildable programmatically or from a JSON
  trace;
* :mod:`repro.faults.models` -- stochastic generators of such timelines
  (exponential/Weibull lifetimes, correlated bursts, latent sector errors)
  for long-horizon reliability campaigns;
* :mod:`repro.faults.driver` -- the simulator processes that replay a
  schedule against a running cluster and detect dead trackers from
  heartbeat expiry (the master is *not* told about failures omnisciently);
* :mod:`repro.faults.records` -- what the fault machinery measured:
  detection latencies, blacklist events, recoveries, slowdowns, repairs,
  corruption discoveries;
* :mod:`repro.faults.errors` -- :class:`JobFailedError`, raised when a
  task exhausts its retry budget and the job is abandoned cleanly, and
  :class:`DataUnavailableError`, its subclass for stripes that dropped
  below ``k`` readable blocks.
"""

from repro.faults.errors import DataUnavailableError, JobFailedError
from repro.faults.models import (
    CompositeModel,
    CorrelatedBursts,
    ExponentialLifetimes,
    FailureModel,
    LatentSectorErrors,
    WeibullLifetimes,
    check_alternation,
    slice_window,
)
from repro.faults.records import (
    BlacklistRecord,
    CorruptionRecord,
    DetectionRecord,
    FaultTimeline,
    RecoveryRecord,
    RepairRecord,
    SlowdownRecord,
)
from repro.faults.schedule import (
    CorruptEvent,
    FailEvent,
    FailureSchedule,
    RecoverEvent,
    SlowdownEvent,
)

__all__ = [
    "BlacklistRecord",
    "CompositeModel",
    "CorrelatedBursts",
    "CorruptEvent",
    "CorruptionRecord",
    "DataUnavailableError",
    "DetectionRecord",
    "ExponentialLifetimes",
    "FailEvent",
    "FailureModel",
    "FailureSchedule",
    "FaultTimeline",
    "JobFailedError",
    "LatentSectorErrors",
    "RecoverEvent",
    "RecoveryRecord",
    "RepairRecord",
    "SlowdownEvent",
    "SlowdownRecord",
    "WeibullLifetimes",
    "check_alternation",
    "slice_window",
]
