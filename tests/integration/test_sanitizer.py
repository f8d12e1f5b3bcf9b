"""Integration tests for the sanitizer (``repro.check``).

Three contracts:

1. **Zero perturbation** -- running every golden scenario under
   :class:`InvariantMonitor` records no violations AND reproduces the
   committed golden bit for bit -- the byte-pinned ``result`` and the
   ``dispatched`` pin alike (the monitor is a pure observer).
2. **Detection power** -- a deliberately broken BDF pacing gate
   (``degraded_first.pacing_allows_degraded`` monkeypatched to always allow)
   is caught and named by the sanitizer (mutation smoke test).
3. **Regression corpus** -- every shrunk repro under ``tests/corpus/``,
   each the fingerprint of a once-real bug, now replays clean.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.check import (
    InvariantMonitor,
    InvariantViolationError,
    load_repro,
    run_checked_trial,
)
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.serialization import result_to_dict
from repro.mapreduce.simulation import run_simulation

from tests.integration.test_golden_equivalence import GOLDEN_DIR, golden_cases

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_goldens_run_clean_and_unperturbed_under_monitor(name: str) -> None:
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(path) as handle:
        golden = json.load(handle)
    monitor = InvariantMonitor()
    result = run_simulation(golden_cases()[name], observer=monitor)
    assert monitor.violations == [], monitor.report()
    actual = json.loads(
        json.dumps(
            {
                "result": result_to_dict(result),
                "dispatched": monitor.profiler.events_dispatched,
            },
            allow_nan=False,
        )
    )
    assert actual["dispatched"] == golden["dispatched"], (
        f"{name}: engine dispatched {actual['dispatched']} events under the "
        f"monitor, golden pins {golden['dispatched']} -- the monitor perturbed "
        "the event schedule"
    )
    assert actual["result"] == golden["result"]


def test_check_env_var_enables_monitoring(monkeypatch):
    """``REPRO_CHECK=1`` wraps a plain run without changing its result."""
    from repro.cluster.network import MB
    from repro.ec.codec import CodeParams

    config = SimulationConfig(
        scheduler="BDF", seed=2, num_nodes=6, num_racks=2,
        code=CodeParams(4, 2), block_size=16 * MB,
        jobs=(JobConfig(num_blocks=24),),
    )
    plain = result_to_dict(run_simulation(config))
    monkeypatch.setenv("REPRO_CHECK", "1")
    checked = result_to_dict(run_simulation(config))
    assert checked == plain


class TestMutationSmoke:
    """Break the BDF pacing gate; the sanitizer must name the invariant."""

    CONFIG = SimulationConfig(
        scheduler="BDF", seed=7, jobs=(JobConfig(num_blocks=192),)
    )

    def test_broken_pacing_is_caught(self, monkeypatch):
        from repro.core import degraded_first

        monkeypatch.setattr(degraded_first, "pacing_allows_degraded", lambda job: True)
        with pytest.raises(InvariantViolationError) as excinfo:
            run_simulation(self.CONFIG, check=True)
        assert any(
            violation.invariant == "bdf-pacing"
            for violation in excinfo.value.violations
        ), excinfo.value.report()
        assert "bdf-pacing" in excinfo.value.report()

    def test_intact_pacing_is_clean(self):
        run_simulation(self.CONFIG, check=True)  # must not raise


def corpus_entries() -> list[str]:
    return sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_is_seeded() -> None:
    assert corpus_entries(), "tests/corpus/ must hold at least one repro"


@pytest.mark.parametrize(
    "path", corpus_entries(), ids=[os.path.basename(p) for p in corpus_entries()]
)
def test_corpus_replays_clean(path: str) -> None:
    config, scheduler = load_repro(path)
    report = run_checked_trial(config.with_scheduler(scheduler))
    assert not report.failed, (
        f"{os.path.basename(path)} regressed ({report.status}):\n{report.message}"
    )
