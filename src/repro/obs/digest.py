"""Deterministic, mergeable percentile digests for campaign telemetry.

Campaigns (:func:`repro.experiments.common.run_many` sweeps, the
reliability driver) produce thousands of latency samples -- degraded-read
times, job sojourns, makespans -- whose tails (p95/p99) the MDS-queue and
latency-optimization analyses in PAPERS.md care about.  Holding every
sample in memory defeats process-pool fan-out, so each worker folds its
trial's samples into a :class:`LatencyDigest`: a fixed-bin, log-bucketed
histogram with **exact merge semantics**.

Design constraints, enforced by construction:

* **Fixed bins.**  Bucket edges are a pure function of the class constants
  (geometric spacing, :data:`GROWTH` per bin anchored at :data:`BASE`), so
  two digests built anywhere -- different workers, different machines,
  different runs -- always share the same bin grid and merge exactly.
* **Deterministic merge.**  Merging adds integer bin counts (exact and
  order-independent) and combines ``total``/``min``/``max``.  Float
  ``total`` addition is *order-dependent*, so aggregation contracts to a
  canonical order: fold per-trial digests **in trial order** (the order
  ``run_many`` returns results).  Serial and process-pool campaigns then
  produce bit-identical digests, which
  ``tests/integration/test_obs_analysis.py`` asserts.
* **O(1) memory.**  A digest is a sparse ``{bin: count}`` dict bounded by
  the bin-grid size, independent of the sample count.

Quantiles are deterministic: walk the bins in index order to the target
rank and report the bin's geometric midpoint, clamped to the observed
``[min, max]`` (so ``p50`` of a single sample is that sample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Left edge of bin 0, in the sample's own unit (seconds here): 1 us of
#: simulated time, far below any latency the simulator can produce.
BASE = 1e-6

#: Geometric bin width: 2^(1/16) per bin, ~4.4% relative quantile error.
GROWTH = 2.0 ** (1.0 / 16.0)

#: Reciprocal of ``log(GROWTH)``, precomputed for the hot ``add`` path.
_INV_LOG_GROWTH = 16.0 / math.log(2.0)

_LOG_BASE = math.log(BASE)


def _bin_of(value: float) -> int:
    """Fixed bin index of a positive finite value."""
    return math.floor((math.log(value) - _LOG_BASE) * _INV_LOG_GROWTH)


@dataclass
class LatencyDigest:
    """A mergeable log-bucketed histogram over non-negative samples.

    ``zeros`` counts samples at or below 0 (a duration of exactly ``0.0``
    is legitimate -- e.g. a node-local read); non-finite samples are
    rejected.  ``total`` is the exact running sum, so ``mean`` is exact
    even though quantiles are bucketed.
    """

    counts: dict[int, int] = field(default_factory=dict)
    zeros: int = 0
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample in."""
        if not math.isfinite(value):
            raise ValueError(f"digest samples must be finite, got {value!r}")
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= 0.0:
            self.zeros += 1
            return
        index = _bin_of(value)
        self.counts[index] = self.counts.get(index, 0) + 1

    def merge(self, other: "LatencyDigest") -> None:
        """Fold ``other`` into this digest (exact on counts).

        ``total`` is a float sum, so callers aggregating many digests must
        merge in a canonical order (trial order) for bit-identical results.
        """
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.zeros += other.zeros
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def mean(self) -> float | None:
        """Exact mean of every sample folded in (None when empty)."""
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Deterministic quantile estimate in ``[min, max]`` (None if empty).

        The sample at rank ``ceil(q * count)`` (1-based, nearest-rank) is
        located by walking bins in index order; the estimate is its bin's
        geometric midpoint clamped to the observed extremes.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zeros:
            return max(self.minimum, 0.0) if self.minimum <= 0.0 else 0.0
        seen = self.zeros
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                midpoint = math.exp(_LOG_BASE + (index + 0.5) / _INV_LOG_GROWTH)
                return min(max(midpoint, self.minimum), self.maximum)
        return self.maximum

    def percentiles(self) -> dict:
        """The campaign-report summary block: count + p50/p95/p99."""
        return {
            "count": self.count,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def to_dict(self) -> dict:
        """JSON-friendly canonical form (bin keys as sorted strings)."""
        return {
            "bins": {str(index): self.counts[index] for index in sorted(self.counts)},
            "zeros": self.zeros,
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LatencyDigest":
        """Rebuild a digest from :meth:`to_dict` output."""
        count = payload.get("count", 0)
        return cls(
            counts={int(index): n for index, n in payload.get("bins", {}).items()},
            zeros=payload.get("zeros", 0),
            count=count,
            total=payload.get("total", 0.0),
            minimum=payload["min"] if count else math.inf,
            maximum=payload["max"] if count else -math.inf,
        )


def digest_result(result) -> dict[str, LatencyDigest]:
    """Fold one trial's telemetry samples into the standard digest triple.

    ``degraded_read`` holds per-task degraded-read durations, ``sojourn``
    per-job submit-to-finish times, ``makespan`` per-job first-launch to
    finish runtimes.  Jobs abandoned mid-flight (NaN finish times) are
    skipped entirely -- their latencies are undefined, not zero -- matching
    the reliability campaign's completed-jobs-only accounting.
    """
    from repro.mapreduce.job import MapTaskCategory, TaskKind

    digests = {
        "degraded_read": LatencyDigest(),
        "sojourn": LatencyDigest(),
        "makespan": LatencyDigest(),
    }
    for job_id in sorted(result.jobs):
        job = result.jobs[job_id]
        if job.failed or math.isnan(job.finish_time):
            continue
        digests["sojourn"].add(job.makespan)
        digests["makespan"].add(job.runtime)
        for task in job.tasks:
            if task.kind is TaskKind.MAP and task.category is MapTaskCategory.DEGRADED:
                digests["degraded_read"].add(task.download_time)
    return digests
