"""Exporters: JSONL event log, Chrome trace-event JSON, file helpers.

Three artifact formats come out of an instrumented trial:

* :func:`events_jsonl` -- one spec-valid JSON object per line, one line per
  :class:`~repro.obs.events.ObsEvent` (``NaN``/``Inf`` are emitted as
  ``null``, never as the non-standard tokens ``json.dumps`` produces by
  default);
* :func:`chrome_trace` -- the Chrome trace-event format (the JSON Object
  Format with a ``traceEvents`` array), loadable in Perfetto / DevTools:
  one process row per node, one thread lane per concurrent slot, download
  and process phases as separate duration events, a dedicated repair-driver
  row for block rebuilds, and failure detections / corruptions / recoveries
  as instant events;
* :func:`read_events_jsonl` / :func:`load_events_jsonl` -- the JSONL
  reader, round-tripping exporter output back into ``ObsEvent`` objects
  for post-hoc analysis (:mod:`repro.obs.analyze`);
* :func:`write_text` -- shared file-writing helper that creates missing
  parent directories (used by the CLI for every export path).
"""

from __future__ import annotations

import json
import math
import os

from repro.mapreduce.job import TaskKind
from repro.mapreduce.metrics import SimulationResult
from repro.obs.events import ObsEvent

#: Microseconds per simulated second (trace-event timestamps are in us).
_US = 1e6

#: Synthetic process row holding repair-driver duration events in the
#: Chrome trace (node pids are non-negative, so -1 can never collide).
REPAIR_PID = -1


def _sanitize_key(key) -> str:
    """A dict key as strict JSON would spell it, without ever raising.

    ``json.dumps`` silently coerces int/bool/None keys but *raises* on
    NaN/Infinity keys (``allow_nan=False``) and on tuples or other objects.
    Payloads keyed by e.g. rack id or block coordinate must survive export,
    so every key becomes the string strict JSON would use -- non-finite
    floats map to ``"null"`` like non-finite values do, and anything
    exotic falls back to ``str``.
    """
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, float):
        if not math.isfinite(key):
            return "null"
        return repr(key)
    if isinstance(key, int):
        return str(key)
    return str(key)


def sanitize(value):
    """Recursively make a payload strict-JSON safe.

    Non-finite floats become ``None`` at *any* depth -- values, list and
    tuple items, dict values, and dict keys alike -- and every dict key is
    coerced to the string strict JSON would use (:func:`_sanitize_key`),
    so ``json.dumps(sanitize(x), allow_nan=False)`` never raises on
    simulator payloads.  Sets are sorted into lists for determinism.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {_sanitize_key(key): sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return [sanitize(item) for item in sorted(value, key=repr)]
    return value


def events_jsonl(events: list[ObsEvent]) -> str:
    """Serialise an event log as JSON Lines (one strict-JSON object each)."""
    lines = [
        json.dumps(sanitize(event.to_dict()), allow_nan=False) for event in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def read_events_jsonl(text: str) -> list[ObsEvent]:
    """Parse :func:`events_jsonl` output back into :class:`ObsEvent`\\ s.

    The inverse of the JSONL exporter up to sanitisation: payload fields
    come back exactly as serialised (NaN/Infinity as ``None``, dict keys as
    strings), and a payload field that was shadowed by the reserved ``t`` /
    ``kind`` names stays shadowed.  Blank lines are skipped, so trailing
    newlines and concatenated logs both parse.
    """
    events: list[ObsEvent] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {number} is not valid JSON: {error}") from None
        if not isinstance(record, dict) or "t" not in record or "kind" not in record:
            raise ValueError(
                f"line {number} is not an event record (needs 't' and 'kind')"
            )
        time = record.pop("t")
        kind = record.pop("kind")
        events.append(ObsEvent(time=float(time), kind=kind, fields=record))
    return events


def load_events_jsonl(path: str) -> list[ObsEvent]:
    """Read a JSONL event-log file back into :class:`ObsEvent`\\ s."""
    with open(path) as handle:
        return read_events_jsonl(handle.read())


def chrome_trace(result: SimulationResult) -> dict:
    """Build a Chrome trace-event document from a finished trial.

    Layout mirrors the paper's Figure 3/4 slot charts: ``pid`` is the node,
    ``tid`` is a greedily assigned slot lane (so the lane count equals the
    node's peak concurrency), and each task contributes a ``download`` and a
    ``process`` duration event.  Times are simulated seconds scaled to
    microseconds.
    """
    trace_events: list[dict] = []
    lane_busy_until: dict[int, list[float]] = {}
    seen_nodes: set[int] = set()

    tasks = []
    for job_id, job in sorted(result.jobs.items()):
        tasks.extend((job_id, task) for task in job.tasks)
    tasks.sort(key=lambda item: (item[1].slave_id, item[1].launch_time))

    for job_id, task in tasks:
        if not math.isfinite(task.finish_time):
            continue  # killed mid-flight; no closed interval to draw
        node = task.slave_id
        busy = lane_busy_until.setdefault(node, [])
        for lane, busy_until in enumerate(busy):
            if task.launch_time >= busy_until - 1e-9:
                busy[lane] = task.finish_time
                break
        else:
            lane = len(busy)
            busy.append(task.finish_time)
        if node not in seen_nodes:
            seen_nodes.add(node)
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": node,
                    "args": {"name": f"node {node}"},
                }
            )
        kind = "reduce" if task.kind is TaskKind.REDUCE else "map"
        category = task.category.value if task.category else kind
        common = {"pid": node, "tid": lane, "ph": "X"}
        if task.download_time > 0:
            trace_events.append(
                {
                    **common,
                    "name": f"download ({category})",
                    "cat": "download",
                    "ts": task.launch_time * _US,
                    "dur": task.download_time * _US,
                    "args": {"job": job_id, "category": category},
                }
            )
        process_start = task.launch_time + task.download_time
        trace_events.append(
            {
                **common,
                "name": f"{kind} ({category})",
                "cat": "process",
                "ts": process_start * _US,
                "dur": max(task.finish_time - process_start, 0.0) * _US,
                "args": {
                    "job": job_id,
                    "category": category,
                    "attempt": task.attempt,
                    "speculative": task.speculative,
                },
            }
        )

    for record in result.faults.detections:
        trace_events.append(
            {
                "name": f"failure detected: node {record.node}",
                "ph": "i",
                "s": "g",
                "pid": record.node if record.node in seen_nodes else 0,
                "tid": 0,
                "ts": record.detected_at * _US,
                "args": {"failed_at": record.failed_at, "latency": record.latency},
            }
        )

    # Repair and corruption activity (PR 3/6 event kinds) gets its own
    # process row so rebuild waves read alongside the task lanes.
    if result.faults.repairs:
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": REPAIR_PID,
                "args": {"name": "repair driver"},
            }
        )
        repair_busy: list[float] = []
        for record in sorted(
            result.faults.repairs, key=lambda r: (r.started_at, r.block)
        ):
            for lane, busy_until in enumerate(repair_busy):
                if record.started_at >= busy_until - 1e-9:
                    repair_busy[lane] = record.finished_at
                    break
            else:
                lane = len(repair_busy)
                repair_busy.append(record.finished_at)
            trace_events.append(
                {
                    "pid": REPAIR_PID,
                    "tid": lane,
                    "ph": "X",
                    "name": f"repair {record.block}",
                    "cat": "repair",
                    "ts": record.started_at * _US,
                    "dur": max(record.finished_at - record.started_at, 0.0) * _US,
                    "args": {
                        "destination": record.destination,
                        "bytes_fetched": record.bytes_fetched,
                        "reclaimed_tasks": record.reclaimed_tasks,
                        "attempts": record.attempts,
                    },
                }
            )
    for record in result.faults.corruptions:
        trace_events.append(
            {
                "name": f"block corrupt: {record.block}",
                "ph": "i",
                "s": "g",
                "pid": record.node if record.node in seen_nodes else 0,
                "tid": 0,
                "ts": record.detected_at * _US,
                "args": {"block": record.block, "via": record.via},
            }
        )
    for record in result.faults.recoveries:
        trace_events.append(
            {
                "name": f"node {record.node} recovered",
                "ph": "i",
                "s": "g",
                "pid": record.node if record.node in seen_nodes else 0,
                "tid": 0,
                "ts": record.at * _US,
                "args": {"reclaimed_tasks": record.reclaimed_tasks},
            }
        )

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "scheduler": result.scheduler,
            "seed": result.seed,
            "failed_nodes": sorted(result.failed_nodes),
        },
    }


def chrome_trace_json(result: SimulationResult) -> str:
    """:func:`chrome_trace` serialised as strict, compact JSON text."""
    return json.dumps(sanitize(chrome_trace(result)), allow_nan=False)


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, creating missing parent directories.

    Raises :class:`OSError` on unwritable targets; callers (the CLI) turn
    that into a clean exit instead of a traceback.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text)
