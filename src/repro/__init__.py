"""Degraded-first scheduling for MapReduce in erasure-coded storage clusters.

A full reproduction of Li, Lee & Hu (DSN 2014): the LF / BDF / EDF
schedulers (:mod:`repro.core`), the erasure-coding and HDFS-RAID storage
substrates (:mod:`repro.ec`, :mod:`repro.storage`), a discrete-event
MapReduce simulator (:mod:`repro.sim`, :mod:`repro.mapreduce`), the
closed-form analysis (:mod:`repro.analysis`), a testbed that runs real job
logic on the simulator's clock (:mod:`repro.testbed`), and per-figure
experiment harnesses (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import SimulationConfig, run_simulation
>>> result = run_simulation(SimulationConfig(scheduler="EDF", seed=1))
>>> result.job(0).runtime  # doctest: +SKIP
270.9

``import repro``, ``import repro.cli`` and a whole ``run_simulation`` stay
numpy-free: of :mod:`repro.ec` they load only ``CodeParams`` and the stripe
layout.  The coders, the GF(2^8) tables and numpy load when the first
:class:`~repro.ec.ErasureCodec` is built (the testbed, ``repro.ec`` users).
"""

from repro.cluster.failures import FailurePattern
from repro.ec.codec import CodeParams
from repro.faults import (
    CorruptEvent,
    DataUnavailableError,
    FailEvent,
    FailureSchedule,
    JobFailedError,
    RecoverEvent,
    SlowdownEvent,
)
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.storage.repair_driver import RepairConfig

__version__ = "1.0.0"

__all__ = [
    "CodeParams",
    "CorruptEvent",
    "DataUnavailableError",
    "FailEvent",
    "FailurePattern",
    "FailureSchedule",
    "JobConfig",
    "JobFailedError",
    "InvariantMonitor",
    "InvariantViolation",
    "InvariantViolationError",
    "RecoverEvent",
    "RepairConfig",
    "SimulationConfig",
    "SlowdownEvent",
    "run_simulation",
    "__version__",
]

#: Names resolved on first touch to keep ``import repro`` light.
_LAZY = {
    "run_simulation": ("repro.mapreduce.simulation", "run_simulation"),
    "InvariantMonitor": ("repro.check", "InvariantMonitor"),
    "InvariantViolation": ("repro.check", "InvariantViolation"),
    "InvariantViolationError": ("repro.check", "InvariantViolationError"),
}


def __getattr__(name: str):
    """Lazily expose the simulation entry point and the sanitizer types."""
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
