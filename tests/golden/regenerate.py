"""Regenerate the golden trajectory files and the golden reports.

Usage (from the repository root)::

    PYTHONPATH=src:. python tests/golden/regenerate.py

Only run this after an *intentional* change -- the point of the goldens is
that performance work never moves a ``result`` block; the ``dispatched``
pin moves only when the core's own event schedule is changed on purpose
(see ``tests/integration/test_golden_equivalence.py``), and no refactor of
the campaign layers moves a byte under ``reports/``
(see ``tests/integration/test_golden_reports.py``).

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
from tests.integration.test_golden_reports import golden_reports  # noqa: E402
from tests.integration.test_policy_differential import capture_steal_trace  # noqa: E402


def _write(out_dir: str, name: str, payload: dict) -> str:
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return path


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
    reports_dir = os.path.join(out_dir, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    for name, text in sorted(golden_reports().items()):
        path = os.path.join(reports_dir, name)
        with open(path, "w", newline="") as handle:
            handle.write(text)
        print(f"wrote {path} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
