"""Open-loop workload generation: continuous job arrival streams.

The paper's experiments submit jobs in a closed burst; reliability campaigns
need the opposite regime -- an **open loop**, where jobs keep arriving at
externally fixed times regardless of how the cluster is coping.  Open-loop
traffic is what makes saturation observable: a scheduler whose service rate
falls below the arrival rate accumulates an ever-growing queue (sojourn
times trend upward) instead of silently stretching the burst's makespan.

An :class:`ArrivalProcess` turns an RNG and a horizon into a tuple of
:class:`~repro.mapreduce.config.JobConfig` entries with ``submit_time`` set;
the existing FIFO multi-job plumbing in the master does the rest.  The
process provided is:

* :class:`PoissonArrivals` -- memoryless arrivals with mean spacing
  ``mean_interarrival``; each arrival draws a job template from the
  (optionally weighted) multi-tenant ``templates`` tuple.  This is the
  M/G/- regime the MDS-queue analysis of degraded reads assumes.

Draws come from named :class:`~repro.sim.rng.RngStreams` substreams, so a
``(process, seed)`` pair always yields the same arrival stream, and a
process describes itself through a ``kind``-tagged ``to_dict()`` like the
failure models it rides alongside.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

from repro.mapreduce.config import JobConfig
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class ArrivalProcess:
    """Base class: a deterministic ``(rng, horizon) -> jobs`` map."""

    kind: ClassVar[str] = ""

    def generate(self, rng: RngStreams, horizon: float) -> tuple[JobConfig, ...]:
        """Jobs with ``submit_time < horizon``, in submission order."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """The process's parameters, tagged with its ``kind``."""
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Poisson job arrivals over multi-tenant templates.

    Parameters
    ----------
    mean_interarrival:
        Mean spacing between consecutive submissions, seconds.
    templates:
        The tenant job mix; each arrival picks one template (its
        ``submit_time`` is overridden).
    weights:
        Relative tenant probabilities; None means uniform.
    """

    kind: ClassVar[str] = "poisson"

    mean_interarrival: float = 600.0
    templates: tuple[JobConfig, ...] = (JobConfig(),)
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.mean_interarrival <= 0:
            raise ValueError(
                f"mean_interarrival must be positive, got {self.mean_interarrival}"
            )
        if not self.templates:
            raise ValueError("need at least one job template")
        if self.weights is not None:
            if len(self.weights) != len(self.templates):
                raise ValueError(
                    f"{len(self.weights)} weights for {len(self.templates)} templates"
                )
            if any(weight < 0 for weight in self.weights) or sum(self.weights) <= 0:
                raise ValueError(f"weights must be non-negative and sum > 0: {self.weights}")

    def generate(self, rng: RngStreams, horizon: float) -> tuple[JobConfig, ...]:
        streams = rng.spawn(f"workload:{self.kind}")
        arrivals = streams.stream("arrivals")
        tenants = streams.stream("tenant")
        weights = self.weights or (1.0,) * len(self.templates)
        total = sum(weights)
        jobs: list[JobConfig] = []
        at = arrivals.expovariate(1.0 / self.mean_interarrival)
        while at < horizon:
            mark, template = tenants.random() * total, self.templates[-1]
            for candidate, weight in zip(self.templates, weights):
                mark -= weight
                if mark < 0:
                    template = candidate
                    break
            jobs.append(dataclasses.replace(template, submit_time=at))
            at += arrivals.expovariate(1.0 / self.mean_interarrival)
        return tuple(jobs)

    def to_dict(self) -> dict:
        payload: dict = {
            "kind": self.kind,
            "mean_interarrival": self.mean_interarrival,
            "templates": [dataclasses.asdict(job) for job in self.templates],
        }
        if self.weights is not None:
            payload["weights"] = list(self.weights)
        return payload
