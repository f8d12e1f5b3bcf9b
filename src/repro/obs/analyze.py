"""Post-hoc trace analytics: timelines, critical paths, attribution.

PR 2's instrumentation is write-only: it records what happened but nothing
reads it back.  This module is the read side -- a pure post-hoc analysis
layer that answers the paper's central question (*where did a run's
makespan go?*) from either a finished :class:`SimulationResult` or an
exported JSONL event log, never touching the engine.

Three analyses come out of a :class:`Timeline`:

* **Critical path** -- the longest dependency chain gating makespan,
  walked backwards from the last-finishing task over slot-handoff edges
  (a task launched the instant another finished on the same node),
  shuffle-wait edges (a reduce whose finish was gated by the last map it
  drained), and submit edges (the chain's root).
* **Map-time attribution** -- the paper's Table-1 decomposition of map
  time into read (local/remote/degraded download) and compute components,
  per locality category; component sums reproduce each category's total
  measured task time to float precision by construction.
* **Decision audit** -- per-scheduler locality/degraded assignment rates,
  EDF guard hit/miss counts and BDF pacing deferrals, folded from the
  ``sched.decision`` event stream when one is available.

``analyze_run`` bundles the three into a :class:`RunAnalysis` whose
:meth:`~RunAnalysis.to_dict` is the versioned run-summary document
(:data:`RUN_SUMMARY_SCHEMA`) consumed by ``repro obs report`` /
``repro obs diff``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.mapreduce.job import TaskKind
from repro.mapreduce.metrics import SimulationResult
from repro.obs.digest import LatencyDigest
from repro.obs.events import ObsEvent

#: Schema tag stamped on every run-summary document.
RUN_SUMMARY_SCHEMA = "repro.run-summary/v1"

#: Two spans closer than this (simulated seconds) are causally adjacent.
_EPS = 1e-6

#: Map categories in report order.
_CATEGORIES = ("node-local", "rack-local", "remote", "degraded")


@dataclass
class TaskSpan:
    """One task attempt's closed execution interval, with its phase split.

    ``read`` is the download phase: degraded-read or remote-fetch time for
    maps, total shuffle-outstanding time for reduces.  ``compute`` is the
    remainder, so ``read + compute == finish - launch`` exactly.
    """

    job_id: int
    kind: str  # "map" | "reduce"
    category: str | None
    node: int
    launch: float
    finish: float
    read: float = 0.0
    attempt: int = 1
    speculative: bool = False

    @property
    def runtime(self) -> float:
        return self.finish - self.launch

    @property
    def compute(self) -> float:
        return self.runtime - self.read


@dataclass
class JobWindow:
    """One job's submit/launch/finish envelope."""

    job_id: int
    submit: float
    first_launch: float
    finish: float

    @property
    def queue_wait(self) -> float:
        """Submit-to-first-launch delay (FIFO queueing in multi-job runs)."""
        return self.first_launch - self.submit

    @property
    def runtime(self) -> float:
        return self.finish - self.first_launch

    @property
    def makespan(self) -> float:
        return self.finish - self.submit


@dataclass
class Timeline:
    """Per-task and per-job spans reconstructed from a completed run."""

    spans: list[TaskSpan] = field(default_factory=list)
    jobs: dict[int, JobWindow] = field(default_factory=dict)
    scheduler: str = "?"
    seed: int | None = None
    failed_nodes: tuple[int, ...] = ()
    #: ``sched.decision`` payload dicts, in emission order (may be empty:
    #: a Timeline built from a bare ``SimulationResult`` has no decisions).
    decisions: list[dict] = field(default_factory=list)
    event_counts: dict[str, int] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """Last finish over every span (the makespan's right edge)."""
        return max((span.finish for span in self.spans), default=0.0)

    @property
    def start(self) -> float:
        """Earliest job submission (the makespan's left edge)."""
        return min((window.submit for window in self.jobs.values()), default=0.0)

    @property
    def makespan(self) -> float:
        return self.end - self.start

    @classmethod
    def from_result(cls, result: SimulationResult) -> "Timeline":
        """Build a timeline from a trial's metrics (no event log needed)."""
        timeline = cls(
            scheduler=result.scheduler,
            seed=result.seed,
            failed_nodes=tuple(sorted(result.failed_nodes)),
        )
        for job_id in sorted(result.jobs):
            job = result.jobs[job_id]
            timeline.jobs[job_id] = JobWindow(
                job_id=job_id,
                submit=job.submit_time,
                first_launch=job.first_launch_time,
                finish=job.finish_time,
            )
            for task in job.tasks:
                if not math.isfinite(task.finish_time):
                    continue  # killed mid-flight; no closed interval
                timeline.spans.append(
                    TaskSpan(
                        job_id=job_id,
                        kind="reduce" if task.kind is TaskKind.REDUCE else "map",
                        category=task.category.value if task.category else None,
                        node=task.slave_id,
                        launch=task.launch_time,
                        finish=task.finish_time,
                        read=task.download_time,
                        attempt=task.attempt,
                        speculative=task.speculative,
                    )
                )
        timeline.spans.sort(key=lambda span: (span.launch, span.finish, span.node))
        return timeline

    @classmethod
    def from_events(cls, events: list[ObsEvent]) -> "Timeline":
        """Rebuild the timeline from an exported event log.

        ``task.launch`` / ``task.finish`` pairs are matched on
        ``(job, kind, node, block-or-reducer)`` in FIFO order; unmatched
        launches (killed attempts) leave no closed span, exactly like
        :meth:`from_result`.  Decision payloads and per-kind counts ride
        along.
        """
        timeline = cls()
        submits: dict[int, float] = {}
        finishes: dict[int, float] = {}
        first_launches: dict[int, float] = {}
        open_launches: dict[tuple, list[ObsEvent]] = {}
        for event in events:
            kind = event.kind
            timeline.event_counts[kind] = timeline.event_counts.get(kind, 0) + 1
            fields = event.fields
            if kind == "job.submit":
                submits[fields["job_id"]] = event.time
            elif kind == "job.finish":
                finishes[fields["job_id"]] = event.time
            elif kind == "task.launch":
                job_id = fields["job_id"]
                first_launches.setdefault(job_id, event.time)
                open_launches.setdefault(_task_key(fields), []).append(event)
            elif kind == "task.kill":
                queue = open_launches.get(_task_key(fields))
                if queue:
                    queue.pop(0)
            elif kind == "task.finish":
                queue = open_launches.get(_task_key(fields))
                if not queue:
                    continue  # finish without a recorded launch (truncated log)
                # ``task.finish`` carries the measured runtime, so the
                # matching launch is the one at finish - runtime; with
                # concurrent speculative attempts FIFO order can lie.
                expected = event.time - fields.get("runtime", 0.0)
                launch = min(queue, key=lambda entry: abs(entry.time - expected))
                queue.remove(launch)
                timeline.spans.append(
                    TaskSpan(
                        job_id=fields["job_id"],
                        kind=fields["task"],
                        category=fields.get("category"),
                        node=fields["node"],
                        launch=launch.time,
                        finish=event.time,
                        read=fields.get("download", 0.0),
                        attempt=launch.fields.get("attempt", 1),
                        speculative=launch.fields.get("speculative", False),
                    )
                )
            elif kind == "sched.decision":
                timeline.decisions.append(dict(fields, t=event.time))
                timeline.scheduler = fields.get("scheduler", timeline.scheduler)
        for job_id, submit in sorted(submits.items()):
            finish = finishes.get(job_id, math.nan)
            timeline.jobs[job_id] = JobWindow(
                job_id=job_id,
                submit=submit,
                first_launch=first_launches.get(job_id, math.nan),
                finish=finish,
            )
        timeline.spans.sort(key=lambda span: (span.launch, span.finish, span.node))
        return timeline


def _task_key(fields: dict) -> tuple:
    """Launch/finish/kill correlation key for one task identity."""
    which = fields.get("block", fields.get("reduce_index"))
    return (fields["job_id"], fields["task"], fields["node"], which)


# -- critical path -------------------------------------------------------------


@dataclass
class CriticalStep:
    """One link of the critical path: a span plus how it was gated.

    ``edge`` names the dependency that made the span start (or, for
    shuffle-gated reduces, finish) when it did: ``"slot-wait"`` (a task
    freed this node's slot at the launch instant), ``"shuffle-wait"``
    (a reduce drained the predecessor map's output), or ``"submit"``
    (nothing earlier gated it -- the chain's root).
    """

    span: TaskSpan
    edge: str

    def to_dict(self) -> dict:
        return {
            "job": self.span.job_id,
            "kind": self.span.kind,
            "category": self.span.category,
            "node": self.span.node,
            "launch": self.span.launch,
            "finish": self.span.finish,
            "read_s": self.span.read,
            "compute_s": self.span.compute,
            "edge": self.edge,
        }


def critical_path(timeline: Timeline) -> list[CriticalStep]:
    """The longest dependency chain ending at the run's last completion.

    Walks backwards from the last-finishing span.  Each hop prefers the
    strongest explanation of the current span's start: a slot handoff on
    the same node (predecessor finish within :data:`_EPS` of this launch),
    else -- for reduces that spent time waiting on shuffle -- the
    last-finishing map of the same job, else the job submission (root).
    Returned in execution order (root first).
    """
    if not timeline.spans:
        return []
    last = max(timeline.spans, key=lambda span: (span.finish, span.launch, span.node))
    by_node: dict[int, list[TaskSpan]] = {}
    maps_by_job: dict[int, list[TaskSpan]] = {}
    for span in timeline.spans:
        by_node.setdefault(span.node, []).append(span)
        if span.kind == "map":
            maps_by_job.setdefault(span.job_id, []).append(span)

    chain: list[CriticalStep] = []
    current = last
    visited: set[int] = set()
    while True:
        if id(current) in visited:
            break  # defensive: malformed timestamps must not loop forever
        visited.add(id(current))
        predecessor = None
        edge = "submit"
        # Slot handoff: a span on this node finished at our launch instant.
        for candidate in by_node[current.node]:
            if candidate is current:
                continue
            if abs(candidate.finish - current.launch) <= _EPS:
                predecessor, edge = candidate, "slot-wait"
                break
        if predecessor is None and current.kind == "reduce" and current.read > 0:
            # Shuffle-gated: this reduce idled on outstanding map output, so
            # the last map of its job finishing is what let it complete.
            candidates = [
                span
                for span in maps_by_job.get(current.job_id, ())
                if span.finish <= current.finish + _EPS and span is not current
            ]
            if candidates:
                predecessor = max(
                    candidates, key=lambda span: (span.finish, span.launch, span.node)
                )
                edge = "shuffle-wait"
        chain.append(CriticalStep(span=current, edge=edge))
        if predecessor is None:
            break
        current = predecessor
    chain.reverse()
    return chain


def path_coverage(timeline: Timeline, chain: list[CriticalStep]) -> float:
    """Fraction of the makespan the chain's spans cover (gaps excluded)."""
    if not chain or timeline.makespan <= 0:
        return 0.0
    covered = sum(step.span.runtime for step in chain)
    return min(covered / timeline.makespan, 1.0)


# -- map-time attribution ------------------------------------------------------


def map_time_breakdown(timeline: Timeline) -> dict:
    """The Table-1 decomposition: read/compute seconds per task category.

    Every map category row satisfies ``read_s + compute_s == total_s``
    exactly (compute is defined as the measured remainder), so summing the
    components reproduces the run's measured map time to float precision.
    The ``reduce`` row's read component is shuffle-outstanding time.
    """
    rows: dict[str, dict] = {}
    for label in (*_CATEGORIES, "reduce"):
        rows[label] = {"tasks": 0, "read_s": 0.0, "compute_s": 0.0, "total_s": 0.0}
    for span in timeline.spans:
        label = "reduce" if span.kind == "reduce" else (span.category or "node-local")
        row = rows.setdefault(
            label, {"tasks": 0, "read_s": 0.0, "compute_s": 0.0, "total_s": 0.0}
        )
        row["tasks"] += 1
        row["read_s"] += span.read
        row["compute_s"] += span.compute
        row["total_s"] += span.runtime
    for row in rows.values():
        row["mean_s"] = row["total_s"] / row["tasks"] if row["tasks"] else None
    return rows


# -- scheduler decision audit --------------------------------------------------


def decision_audit(decisions: list[dict]) -> dict | None:
    """Fold a ``sched.decision`` stream into per-policy counters.

    Reports assignment mix (local / rack-local / remote / degraded, with
    locality and degraded rates), EDF guard verdicts (degraded launches
    admitted vs rejected per guard), and BDF/EDF pacing deferrals.  Returns
    ``None`` when the run carried no decision trace.
    """
    if not decisions:
        return None
    audit = {
        "scheduler": decisions[0].get("scheduler", "?"),
        "decisions": len(decisions),
        "assigned": {label: 0 for label in _CATEGORIES},
        "skipped": {},
        "guard": {"admitted": 0, "slave_rejected": 0, "rack_rejected": 0},
        "pacing_deferrals": 0,
    }
    for decision in decisions:
        action = decision.get("action")
        if action == "assign":
            category = decision.get("category", "node-local")
            audit["assigned"][category] = audit["assigned"].get(category, 0) + 1
            if decision.get("reason") == "degraded-first":
                audit["guard"]["admitted"] += 1
        elif action == "skip-degraded":
            reason = decision.get("reason", "?")
            audit["skipped"][reason] = audit["skipped"].get(reason, 0) + 1
            if reason == "pacing":
                audit["pacing_deferrals"] += 1
            elif reason == "slave-guard":
                audit["guard"]["slave_rejected"] += 1
            elif reason == "rack-guard":
                audit["guard"]["rack_rejected"] += 1
    assigned = audit["assigned"]
    total = sum(assigned.values())
    audit["assignments"] = total
    local = assigned.get("node-local", 0) + assigned.get("rack-local", 0)
    audit["locality_rate"] = local / total if total else None
    audit["degraded_rate"] = assigned.get("degraded", 0) / total if total else None
    return audit


# -- the bundled analysis ------------------------------------------------------


@dataclass
class RunAnalysis:
    """Everything ``repro obs analyze`` derives from one run."""

    timeline: Timeline
    chain: list[CriticalStep]
    breakdown: dict
    audit: dict | None
    digests: dict[str, LatencyDigest]

    def to_dict(self) -> dict:
        """The versioned run-summary document (pure simulated-time data)."""
        timeline = self.timeline
        return {
            "schema": RUN_SUMMARY_SCHEMA,
            "scheduler": timeline.scheduler,
            "seed": timeline.seed,
            "failed_nodes": list(timeline.failed_nodes),
            "makespan_s": timeline.makespan,
            "tasks": len(timeline.spans),
            "jobs": {
                str(job_id): {
                    "submit": window.submit,
                    "first_launch": window.first_launch,
                    "finish": window.finish,
                    "queue_wait_s": window.queue_wait,
                    "runtime_s": window.runtime,
                }
                for job_id, window in sorted(timeline.jobs.items())
            },
            "breakdown": self.breakdown,
            "critical_path": {
                "steps": [step.to_dict() for step in self.chain],
                "coverage": path_coverage(timeline, self.chain),
            },
            "audit": self.audit,
            "digests": {
                name: digest.to_dict() for name, digest in sorted(self.digests.items())
            },
            "event_counts": dict(sorted(timeline.event_counts.items())),
        }

    # -- rendering ------------------------------------------------------------

    def summary_paragraph(self) -> str:
        """The one-paragraph makespan + breakdown line (``--summary``)."""
        timeline = self.timeline
        rows = self.breakdown
        map_total = sum(rows[label]["total_s"] for label in _CATEGORIES if label in rows)
        parts = []
        for label in _CATEGORIES:
            row = rows.get(label)
            if not row or not row["tasks"]:
                continue
            share = 100.0 * row["total_s"] / map_total if map_total else 0.0
            parts.append(
                f"{label} {row['total_s']:.1f}s ({row['tasks']} tasks, {share:.0f}%)"
            )
        degraded = rows.get("degraded", {})
        read = degraded.get("read_s", 0.0)
        sentences = [
            f"{timeline.scheduler} run"
            + (f" (seed {timeline.seed})" if timeline.seed is not None else "")
            + f": makespan {timeline.makespan:.1f} s over "
            f"{len(timeline.jobs)} job(s), {len(timeline.spans)} task(s).",
            f"Map time {map_total:.1f} s = " + " + ".join(parts)
            + (f"; degraded reads cost {read:.1f} s." if read else "."),
        ]
        if self.chain:
            dominant = max(
                self.chain, key=lambda step: step.span.runtime
            )
            sentences.append(
                f"Critical path: {len(self.chain)} step(s) covering "
                f"{100.0 * path_coverage(timeline, self.chain):.0f}% of the "
                f"makespan, longest step a {dominant.span.category or dominant.span.kind} "
                f"{dominant.span.kind} task ({dominant.span.runtime:.1f} s)."
            )
        if self.audit:
            guard = self.audit["guard"]
            sentences.append(
                f"Decisions: {self.audit['assignments']} assignment(s), "
                f"locality rate {_rate(self.audit['locality_rate'])}, degraded rate "
                f"{_rate(self.audit['degraded_rate'])}, EDF guard "
                f"{guard['admitted']} admitted / {guard['slave_rejected']} slave- "
                f"/ {guard['rack_rejected']} rack-rejected, "
                f"{self.audit['pacing_deferrals']} pacing deferral(s)."
            )
        return " ".join(sentences)

    def render_text(self) -> str:
        """The full plain-text analysis report (``repro obs analyze``)."""
        timeline = self.timeline
        lines = [
            "== run analysis ==",
            self.summary_paragraph(),
            "",
            "map-time breakdown (read + compute = total, per category):",
        ]
        for label, row in self.breakdown.items():
            if not row["tasks"]:
                continue
            mean = row["mean_s"] if row["mean_s"] is not None else float("nan")
            lines.append(
                f"  {label:<12} {row['tasks']:>5} tasks  read {row['read_s']:>9.1f}s"
                f"  compute {row['compute_s']:>9.1f}s  total {row['total_s']:>9.1f}s"
                f"  mean {mean:>7.2f}s"
            )
        lines.append("")
        lines.append(
            f"critical path ({len(self.chain)} steps, "
            f"{100.0 * path_coverage(timeline, self.chain):.1f}% coverage):"
        )
        for step in self.chain:
            span = step.span
            lines.append(
                f"  [{step.edge:<12}] t={span.launch:>8.1f}..{span.finish:>8.1f}"
                f"  job {span.job_id} {span.kind:<6} "
                f"{span.category or '-':<11} node {span.node:<3}"
                f" read {span.read:>6.1f}s compute {span.compute:>6.1f}s"
            )
        if self.audit:
            lines.append("")
            lines.append(f"decision audit ({self.audit['scheduler']}):")
            for category, count in self.audit["assigned"].items():
                if count:
                    lines.append(f"  assign {category:<12} {count}")
            for reason, count in sorted(self.audit["skipped"].items()):
                lines.append(f"  skip   {reason:<12} {count}")
        degraded = self.digests.get("degraded_read")
        if degraded is not None and degraded.count:
            p = degraded.percentiles()
            lines.append("")
            lines.append(
                f"degraded-read latency: n={p['count']} p50={p['p50']:.2f}s "
                f"p95={p['p95']:.2f}s p99={p['p99']:.2f}s"
            )
        return "\n".join(lines)


def _rate(value: float | None) -> str:
    return f"{100.0 * value:.0f}%" if value is not None else "n/a"


def analyze_timeline(timeline: Timeline) -> RunAnalysis:
    """Run the full analysis bundle over a prepared timeline."""
    digests = {
        "degraded_read": LatencyDigest(),
        "map_runtime": LatencyDigest(),
        "reduce_runtime": LatencyDigest(),
    }
    for span in timeline.spans:
        if span.kind == "map":
            digests["map_runtime"].add(span.runtime)
            if span.category == "degraded":
                digests["degraded_read"].add(span.read)
        else:
            digests["reduce_runtime"].add(span.runtime)
    return RunAnalysis(
        timeline=timeline,
        chain=critical_path(timeline),
        breakdown=map_time_breakdown(timeline),
        audit=decision_audit(timeline.decisions),
        digests=digests,
    )


def analyze_run(source) -> RunAnalysis:
    """Analyze a run from a :class:`SimulationResult` or an event list."""
    if isinstance(source, SimulationResult):
        timeline = Timeline.from_result(source)
    elif isinstance(source, Timeline):
        timeline = source
    else:
        timeline = Timeline.from_events(list(source))
    return analyze_timeline(timeline)
