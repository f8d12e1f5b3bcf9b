"""Determinism checks for stochastic generators.

The failure models (:mod:`repro.faults.models`) and arrival processes
(:mod:`repro.mapreduce.workload`) promise that a ``(config, seed)`` pair
always produces the same event stream -- the property every reliability
result in this repo leans on for reproducibility and resumability.  The
checks here *regenerate and compare*: run the generator twice from fresh
:class:`~repro.sim.rng.RngStreams` and raise an
:class:`~repro.check.invariants.InvariantViolationError` on any divergence
(a generator that reads global randomness, draw-order-dependent streams, or
mutable shared state fails here long before it corrupts a campaign).
"""

from __future__ import annotations

import json

from repro.check.invariants import InvariantViolation, InvariantViolationError
from repro.cluster.topology import ClusterTopology
from repro.sim.rng import RngStreams


def _diverged(message: str, seed: int, horizon: float) -> InvariantViolationError:
    violation = InvariantViolation(
        time=0.0,
        invariant="generator-determinism",
        message=f"{message} on regeneration 2 from seed {seed}",
        details={"seed": seed, "horizon": horizon},
    )
    return InvariantViolationError([violation])


def check_generator_determinism(
    model,
    topology: ClusterTopology,
    seed: int,
    horizon: float,
) -> dict:
    """Generate twice from ``seed``; raise if the two streams differ.

    Returns the canonical schedule dict of the (verified) generation so
    callers can reuse it without generating a third time.
    """
    first, second = (
        model.generate(topology, RngStreams(seed), horizon).to_dict() for _ in range(2)
    )
    if json.dumps(first, sort_keys=True) != json.dumps(second, sort_keys=True):
        raise _diverged(
            f"{type(model).__name__} produced a different event stream", seed, horizon
        )
    return second


def check_arrivals_determinism(process, seed: int, horizon: float) -> tuple:
    """Same contract as :func:`check_generator_determinism`, for arrivals.

    Returns the (verified) job tuple.
    """
    first, second = (process.generate(RngStreams(seed), horizon) for _ in range(2))
    if first != second:
        raise _diverged(
            f"{type(process).__name__} produced a different arrival stream", seed, horizon
        )
    return second
