"""Task-timeline export and rendering.

The paper communicates its scheduling ideas through map-slot activity
charts (Figures 3 and 4).  This module turns a
:class:`~repro.mapreduce.metrics.SimulationResult` into the same artifact:

* :func:`to_records` / :func:`to_json` -- flat task records for external
  tooling;
* :func:`render_timeline` -- an ASCII map-slot activity chart, one row per
  node, download phases drawn differently from processing.
"""

from __future__ import annotations

import json
import math

from repro.mapreduce.job import TaskKind
from repro.mapreduce.metrics import SimulationResult

#: Characters used by the ASCII chart.
_PROCESS_CHAR = "#"
_DOWNLOAD_CHAR = "~"

#: Columns of the chart's time axis.
TIMELINE_WIDTH = 72


def _rounded(value: float) -> float | None:
    """Round for export; ``None`` for NaN/inf (an unfinished task's time).

    JSON has no NaN token -- ``json.dumps`` would emit the non-standard
    ``NaN``, which strict parsers reject -- so non-finite times serialise
    as ``null``.
    """
    if not math.isfinite(value):
        return None
    return round(value, 6)


def to_records(result: SimulationResult) -> list[dict]:
    """Flatten a result into one dict per task, JSON/CSV-friendly.

    Non-finite times (a killed or still-running attempt in a failed trial's
    partial result) become ``None``/empty rather than NaN.
    """
    records = []
    for job_id, job in sorted(result.jobs.items()):
        for task in job.tasks:
            records.append(
                {
                    "job_id": job_id,
                    "kind": task.kind.value,
                    "category": task.category.value if task.category else "",
                    "slave_id": task.slave_id,
                    "launch_time": _rounded(task.launch_time),
                    "download_time": _rounded(task.download_time),
                    "finish_time": _rounded(task.finish_time),
                    "runtime": _rounded(task.runtime),
                    "attempt": task.attempt,
                    "speculative": task.speculative,
                }
            )
    records.sort(key=lambda r: (r["launch_time"] or 0.0, r["slave_id"]))
    return records


def to_json(result: SimulationResult, indent: int | None = None) -> str:
    """Serialise the task timeline (plus trial metadata) as JSON."""
    payload = {
        "scheduler": result.scheduler,
        "seed": result.seed,
        "failed_nodes": sorted(result.failed_nodes),
        "jobs": {
            str(job_id): {
                "submit_time": job.submit_time,
                "first_launch_time": job.first_launch_time,
                "finish_time": job.finish_time,
                "runtime": job.runtime,
                "failed": job.failed,
                "failure_kind": job.failure_kind,
                "killed_attempts": job.killed_attempts,
                "speculative_launched": job.speculative_launched,
                "speculative_killed": job.speculative_killed,
            }
            for job_id, job in sorted(result.jobs.items())
        },
        "faults": {
            "detections": [
                {
                    "node": record.node,
                    "failed_at": record.failed_at,
                    "detected_at": record.detected_at,
                    "latency": record.latency,
                }
                for record in result.faults.detections
            ],
            "blacklistings": [
                {"node": record.node, "at": record.at}
                for record in result.faults.blacklistings
            ],
            "recoveries": [
                {
                    "node": record.node,
                    "at": record.at,
                    "reclaimed_tasks": record.reclaimed_tasks,
                }
                for record in result.faults.recoveries
            ],
            "repairs": [
                {
                    "block": record.block,
                    "destination": record.destination,
                    "started_at": record.started_at,
                    "finished_at": record.finished_at,
                    "bytes_fetched": record.bytes_fetched,
                    "reclaimed_tasks": record.reclaimed_tasks,
                    "attempts": record.attempts,
                }
                for record in result.faults.repairs
            ],
            "corruptions": [
                {
                    "block": record.block,
                    "node": record.node,
                    "detected_at": record.detected_at,
                    "via": record.via,
                }
                for record in result.faults.corruptions
            ],
        },
        "tasks": to_records(result),
    }
    from repro.obs.export import sanitize

    return json.dumps(sanitize(payload), indent=indent, allow_nan=False)


def render_timeline(result: SimulationResult) -> str:
    """Render an ASCII map-slot activity chart (the paper's Figure 3 view).

    One row per (node, slot-lane) over every job's map tasks; ``~`` marks
    download/degraded-read time, ``#`` processing.  Lanes are assigned
    greedily per node, so the row count equals each node's peak concurrency.
    """
    width = TIMELINE_WIDTH
    tasks = [
        task
        for _, job in sorted(result.jobs.items())
        for task in job.tasks
        if task.kind is TaskKind.MAP
    ]
    if not tasks:
        return "(no tasks)"
    horizon = max(task.finish_time for task in tasks)
    start = min(task.launch_time for task in tasks)
    span = max(horizon - start, 1e-9)
    scale = (width - 1) / span

    def column(time: float) -> int:
        return min(width - 1, max(0, int((time - start) * scale)))

    lanes: dict[tuple[int, int], list[str]] = {}
    lane_busy_until: dict[int, list[float]] = {}
    for task in sorted(tasks, key=lambda t: (t.slave_id, t.launch_time)):
        node = task.slave_id
        busy = lane_busy_until.setdefault(node, [])
        for lane_index, busy_until in enumerate(busy):
            if task.launch_time >= busy_until - 1e-9:
                busy[lane_index] = task.finish_time
                break
        else:
            lane_index = len(busy)
            busy.append(task.finish_time)
        row = lanes.setdefault((node, lane_index), [" "] * width)
        begin = column(task.launch_time)
        split = column(task.launch_time + task.download_time)
        end = column(task.finish_time)
        for position in range(begin, max(begin, split)):
            row[position] = _DOWNLOAD_CHAR
        for position in range(split, end + 1):
            row[position] = _PROCESS_CHAR
    lines = [f"timeline [{start:.1f}s .. {horizon:.1f}s]  (~ download, # map)"]
    for (node, lane_index) in sorted(lanes):
        label = f"node {node}.{lane_index}"
        lines.append(f"{label:>10} |{''.join(lanes[(node, lane_index)])}|")
    return "\n".join(lines)
