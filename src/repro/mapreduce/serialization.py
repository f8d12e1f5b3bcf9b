"""JSON (de)serialisation of simulation configurations and results.

Lets experiment definitions live in version-controlled files:

.. code-block:: json

    {
      "num_nodes": 40, "num_racks": 4, "code": [20, 15],
      "scheduler": "EDF", "failure": "single-node",
      "jobs": [{"num_blocks": 1440, "num_reduce_tasks": 30}]
    }

run with ``repro simulate --config experiment.json``.

:func:`result_to_dict` / :func:`result_to_json` do the reverse direction
for trial outputs: a :class:`~repro.mapreduce.metrics.SimulationResult`
becomes a stable, canonically ordered JSON document.  Every float is kept
at full ``repr`` precision (NaN encoded as the string ``"NaN"`` so the
document stays strict JSON), which makes the output suitable for
golden-equivalence testing: two trials are bit-identical iff their
serialized results compare equal.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import Any

from repro.cluster.failures import FailurePattern
from repro.ec.codec import CodeParams
from repro.faults.schedule import FailureSchedule
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.metrics import SimulationResult
from repro.storage.degraded import SourceSelection
from repro.storage.repair_driver import RepairConfig


def config_to_dict(config: SimulationConfig) -> dict[str, Any]:
    """Turn a :class:`SimulationConfig` into JSON-serialisable primitives."""
    payload = dataclasses.asdict(config)
    payload["code"] = [config.code.n, config.code.k]
    payload["failure"] = config.failure.value
    payload["source_selection"] = config.source_selection.value
    payload["jobs"] = [dataclasses.asdict(job) for job in config.jobs]
    if config.speed_factors is not None:
        payload["speed_factors"] = list(config.speed_factors)
    if config.failure_schedule is not None:
        payload["failure_schedule"] = config.failure_schedule.to_dict()
    if config.repair is not None:
        payload["repair"] = dataclasses.asdict(config.repair)
    return payload


def config_from_dict(payload: dict[str, Any]) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from :func:`config_to_dict` output.

    Missing keys fall back to the defaults, so sparse hand-written files
    work; unknown keys raise, so typos do not silently vanish.
    """
    known = {field.name for field in dataclasses.fields(SimulationConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = dict(payload)
    if "code" in kwargs:
        n, k = kwargs["code"]
        kwargs["code"] = CodeParams(int(n), int(k))
    if "failure" in kwargs and not isinstance(kwargs["failure"], FailurePattern):
        kwargs["failure"] = FailurePattern(kwargs["failure"])
    if "source_selection" in kwargs and not isinstance(
        kwargs["source_selection"], SourceSelection
    ):
        kwargs["source_selection"] = SourceSelection(kwargs["source_selection"])
    if "jobs" in kwargs:
        kwargs["jobs"] = tuple(
            job if isinstance(job, JobConfig) else JobConfig(**job)
            for job in kwargs["jobs"]
        )
    if kwargs.get("speed_factors") is not None:
        kwargs["speed_factors"] = tuple(kwargs["speed_factors"])
    if kwargs.get("failure_eligible") is not None:
        kwargs["failure_eligible"] = tuple(kwargs["failure_eligible"])
    schedule = kwargs.get("failure_schedule")
    if schedule is not None and not isinstance(schedule, FailureSchedule):
        kwargs["failure_schedule"] = FailureSchedule.from_dict(schedule)
    repair = kwargs.get("repair")
    if repair is not None and not isinstance(repair, RepairConfig):
        kwargs["repair"] = RepairConfig(**repair)
    return SimulationConfig(**kwargs)


def config_from_json(text: str) -> SimulationConfig:
    """Parse a configuration from a JSON string."""
    return config_from_dict(json.loads(text))


def load_config(path: str) -> SimulationConfig:
    """Load a configuration from a JSON file."""
    with open(path) as handle:
        return config_from_json(handle.read())


def _jsonify(value: Any) -> Any:
    """Recursively convert a value tree into strict-JSON primitives.

    Enums become their values, frozensets become sorted lists, mapping keys
    become strings, and NaN floats become the string ``"NaN"`` (strict JSON
    has no NaN literal, and ``NaN != NaN`` would defeat equality checks).
    """
    if isinstance(value, enum.Enum):
        return _jsonify(value.value)
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonify(item) for item in value)
    return value


def result_to_dict(result: SimulationResult) -> dict[str, Any]:
    """Turn a :class:`SimulationResult` into JSON-serialisable primitives.

    The conversion is lossless for everything the simulator computes
    deterministically, so equal dictionaries imply bit-identical trials.
    """
    return _jsonify(dataclasses.asdict(result))


def result_to_json(result: SimulationResult) -> str:
    """Serialise a result to canonical JSON (sorted keys, full precision, indent 2)."""
    return json.dumps(result_to_dict(result), indent=2, sort_keys=True, allow_nan=False)
