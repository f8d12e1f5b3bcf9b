"""Regenerate the golden trajectories, reports and observability exports.

Usage (from the repository root)::

    PYTHONPATH=src:. python tests/golden/regenerate.py

Only run this after an *intentional* change -- the point of the goldens is
that performance work never moves a ``result`` block; the ``dispatched``
pin moves only when the core's own event schedule is changed on purpose
(see ``tests/integration/test_golden_equivalence.py``), and no refactor of
the campaign layers moves a byte under ``reports/``
(see ``tests/integration/test_golden_reports.py``), and no work on the
event bus or the collector moves a byte under ``obs/``
(see ``tests/integration/test_golden_obs.py``).  The testbed trajectory
(``testbed-edf-wordcount.json``) moves only with the simulator's or the
testbed runtime's semantics (see
``tests/integration/test_testbed_runtime.py``).

Set ``GOLDEN_OUT=<dir>`` to write somewhere other than ``tests/golden/``;
CI's golden-freshness check uses this to regenerate into a scratch tree
and diff it against the committed files.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))

from tests.integration.test_golden_equivalence import capture, golden_cases  # noqa: E402
from tests.integration.test_golden_obs import OBS_CASES, golden_obs  # noqa: E402
from tests.integration.test_golden_reports import golden_reports  # noqa: E402
from tests.integration.test_policy_differential import capture_steal_trace  # noqa: E402
from tests.integration.test_testbed_runtime import golden_testbed  # noqa: E402


def _write(out_dir: str, name: str, payload: dict) -> str:
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return path


def _write_texts(directory: str, documents: dict[str, str]) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, text in sorted(documents.items()):
        path = os.path.join(directory, name)
        with open(path, "w", newline="") as handle:
            handle.write(text)
        print(f"wrote {path} ({len(text)} bytes)")


def main() -> None:
    out_dir = os.environ.get("GOLDEN_OUT") or os.path.dirname(os.path.abspath(__file__))
    os.makedirs(out_dir, exist_ok=True)
    for name, config in sorted(golden_cases().items()):
        payload = capture(config)
        path = _write(out_dir, name, payload)
        print(f"wrote {path} (dispatched={payload['dispatched']})")
    trace = capture_steal_trace()
    path = _write(out_dir, "steal-decisions", trace)
    print(f"wrote {path} (decisions={len(trace['decisions'])})")
    _write_texts(out_dir, golden_testbed())
    _write_texts(os.path.join(out_dir, "reports"), golden_reports())
    for name in OBS_CASES:
        _write_texts(os.path.join(out_dir, "obs"), golden_obs(name))


if __name__ == "__main__":
    main()
