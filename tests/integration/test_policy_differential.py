"""Differential tests between policies, plus the STEAL decision-trace golden.

Three layers of cross-policy checks on pinned seeds:

1. **Paper ordering** -- on the paper's Figure-7 default scenario the
   makespans order ``EDF <= BDF <= LF``: each refinement of
   degraded-first scheduling pays for itself.
2. **Baseline sanity** -- the RANDOM baseline destroys map locality
   relative to LF, which is the whole reason locality-aware scheduling
   exists.  (If RANDOM ever matches LF here, the LF implementation has
   stopped preferring local tasks.)
3. **Golden decision trace** -- STEAL's full ``sched.decision`` stream on
   a small fixed-seed scenario matches the committed golden
   (``tests/golden/steal-decisions.json``), the same regression idiom as
   the trajectory goldens; ``tests/golden/regenerate.py`` rewrites it
   after an intentional semantic change.

Plus the tournament determinism contract: one spec run serial and
parallel emits byte-identical report JSON.
"""

from __future__ import annotations

import functools
import json
import os

import pytest

from repro.ec import CodeParams
from repro.experiments.campaign import CampaignPolicy
from repro.experiments.tournament import TournamentSpec, report_to_json, run_tournament
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.job import MapTaskCategory
from repro.mapreduce.metrics import TaskKind
from repro.mapreduce.simulation import run_simulation
from tests.helpers import traced_decisions

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")

#: Pinned seeds for the differential assertions.  The orderings below are
#: stable properties of the fig-7 scenario, but any single seed is one
#: sample -- three keep the test honest without slowing the suite.
FIG7_SEEDS = (0, 1, 2)


@functools.lru_cache(maxsize=None)
def fig7_result(scheduler: str, seed: int):
    """One fig-7 default trial (the paper's cluster, single node failure)."""
    return run_simulation(SimulationConfig(scheduler=scheduler, seed=seed))


def makespan(scheduler: str, seed: int) -> float:
    return fig7_result(scheduler, seed).jobs[0].runtime


def node_local_maps(scheduler: str, seed: int) -> int:
    return sum(
        1
        for task in fig7_result(scheduler, seed).jobs[0].tasks
        if task.kind is TaskKind.MAP
        and task.category is MapTaskCategory.NODE_LOCAL
    )


@pytest.mark.parametrize("seed", FIG7_SEEDS)
def test_fig7_makespan_ordering_edf_bdf_lf(seed):
    edf, bdf, lf = (makespan(name, seed) for name in ("EDF", "BDF", "LF"))
    assert edf <= bdf <= lf, (
        f"seed {seed}: expected EDF <= BDF <= LF, got "
        f"EDF={edf:.1f}s BDF={bdf:.1f}s LF={lf:.1f}s"
    )


@pytest.mark.parametrize("seed", FIG7_SEEDS)
def test_random_baseline_destroys_locality(seed):
    random_local = node_local_maps("RANDOM", seed)
    lf_local = node_local_maps("LF", seed)
    assert random_local < lf_local, (
        f"seed {seed}: RANDOM matched LF on node-local maps "
        f"({random_local} vs {lf_local}) -- is LF still locality-aware?"
    )


# -- STEAL decision-trace golden ----------------------------------------------


def steal_trace_config() -> SimulationConfig:
    """The fixed-seed scenario behind ``tests/golden/steal-decisions.json``."""
    return SimulationConfig(
        scheduler="STEAL", seed=5, num_nodes=12, num_racks=3,
        code=CodeParams(6, 4),
        jobs=(JobConfig(num_blocks=48, num_reduce_tasks=4),),
    )


def capture_steal_trace() -> dict:
    """The golden payload: the full decision stream of one STEAL trial."""
    return {"decisions": traced_decisions(steal_trace_config())}


def test_steal_decision_trace_matches_golden():
    path = os.path.join(GOLDEN_DIR, "steal-decisions.json")
    assert os.path.exists(path), (
        f"golden file {path} missing -- run tests/golden/regenerate.py"
    )
    with open(path) as handle:
        golden = json.load(handle)
    actual = json.loads(json.dumps(capture_steal_trace(), allow_nan=False))
    assert len(actual["decisions"]) == len(golden["decisions"]), (
        f"STEAL made {len(actual['decisions'])} decisions, golden recorded "
        f"{len(golden['decisions'])} -- the decision stream moved"
    )
    assert actual["decisions"] == golden["decisions"]


# -- tournament determinism ---------------------------------------------------


def test_tournament_report_identical_serial_vs_parallel():
    base = SimulationConfig(
        num_nodes=12, num_racks=3, code=CodeParams(6, 4),
        jobs=(JobConfig(num_blocks=48),),
    )
    spec = TournamentSpec(
        scenarios=(("fig7-small", base),),
        policies=("LF", "EDF", "STEAL"),
        seeds=(0,),
    )
    serial, _ = run_tournament(spec, CampaignPolicy(workers=1, on_error="collect"))
    parallel, _ = run_tournament(spec, CampaignPolicy(workers=2, on_error="collect"))
    assert report_to_json(serial) == report_to_json(parallel)
