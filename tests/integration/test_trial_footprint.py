"""What one trial leaves behind in its process: nothing, and no numpy.

While it runs, a trial holds only live state: a random generator only for a
stream that is drawn from again, and a task process only until it ends.

A finished trial is **acyclic**: every object it built is freed by
reference counting the moment :func:`run_simulation` returns, with no help
from the cyclic collector.  These tests run with the collector disabled
and assert exactly that for each trial shape the end-to-end benchmark
uses, and that the simulator's and the CLI's import closure stays free of
numpy and the GF(2^8) tables (only ``CodeParams`` is needed from
``repro.ec``).

The five back-references this guards against are listed in DESIGN.md
section 10; an idle repair worker still parked when the heap drains is the
one known exception (a process parked on an event its own frame reaches is
a cycle by construction), and no shape here ends that way.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import weakref
from collections import Counter

import pytest

from repro.check import InvariantMonitor
from repro.cluster.network import mbps
from repro.faults.schedule import FailEvent, FailureSchedule, RecoverEvent, SlowdownEvent
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.simulation import run_simulation
from repro.obs import ObservabilityCollector
from repro.sim.engine import Process
from repro.sim.rng import RngStreams
from repro.storage.repair_driver import RepairConfig

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

#: Packages whose instances make up a trial (as opposed to its observers).
TRIAL_PACKAGES = (
    "repro.sim", "repro.mapreduce", "repro.storage", "repro.cluster", "repro.core",
)


def churn_config() -> SimulationConfig:
    """The end-to-end benchmark's ``churn_repair`` trial (seed 1, EDF)."""
    return SimulationConfig(
        scheduler="EDF",
        seed=1,
        speed_factors=tuple(1.0 if node % 2 == 0 else 0.5 for node in range(40)),
        jobs=tuple(JobConfig(num_blocks=480, submit_time=60.0 * job) for job in range(3)),
        failure_schedule=FailureSchedule(
            (
                FailEvent(at=0.0, node=1),
                FailEvent(at=60.0, node=17),
                SlowdownEvent(at=40.0, node=25, factor=3.0, duration=120.0),
                RecoverEvent(at=200.0, node=17),
            )
        ),
        speculative=True,
        repair=RepairConfig(bandwidth_cap=mbps(400), concurrent_repairs=2),
    )


SHAPES = {
    "fig7-fluid": SimulationConfig(scheduler="EDF", seed=1),
    "fig7-exclusive": SimulationConfig(scheduler="EDF", seed=1, network_model="exclusive"),
    "churn-repair": churn_config(),
    "midrun-failure": SimulationConfig(
        scheduler="EDF", seed=3, failure_time=50.0, jobs=(JobConfig(num_blocks=480),)
    ),
    "multi-job": SimulationConfig(
        scheduler="BDF",
        seed=3,
        jobs=tuple(JobConfig(num_blocks=240, submit_time=30.0 * job) for job in range(3)),
    ),
}


@pytest.fixture
def no_collector():
    """Run the test with the cyclic collector off, starting from a clean heap."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def unreachable_instances() -> list:
    """Collect once, keeping what was found (the caller's fixture clears it)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    gc.set_debug(0)
    return list(gc.garbage)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_plain_trial_leaves_no_cyclic_garbage(shape, no_collector):
    result = run_simulation(SHAPES[shape])
    assert gc.collect() == 0
    assert result.jobs  # still alive: the result itself holds no cycle either


class _TrialRefs:
    """Mixin: weak references to the trial internals, taken as it is built."""

    def on_trial_built(self, *, sim, tracker, runtime, hdfs, config) -> None:
        self.refs = {
            "sim": weakref.ref(sim),
            "tracker": weakref.ref(tracker),
            "runtime": weakref.ref(runtime),
        }
        inherited = getattr(super(), "on_trial_built", None)
        if inherited is not None:
            inherited(sim=sim, tracker=tracker, runtime=runtime, hdfs=hdfs, config=config)


class SpyCollector(_TrialRefs, ObservabilityCollector):
    pass


class SpyMonitor(_TrialRefs, InvariantMonitor):
    pass


@pytest.mark.parametrize("shape", ["fig7-fluid", "churn-repair", "midrun-failure"])
@pytest.mark.parametrize("spy_class", [SpyCollector, SpyMonitor])
def test_trial_internals_die_when_run_simulation_returns(shape, spy_class, no_collector):
    spy = spy_class()
    result = run_simulation(SHAPES[shape], observer=spy)
    # No collection ran: reference counting alone freed them, although the
    # caller still holds the observer and the result.
    assert {name: ref() for name, ref in spy.refs.items()} == {
        "sim": None, "tracker": None, "runtime": None,
    }
    assert result.jobs


@pytest.mark.parametrize("mode", ["observed", "checked"])
@pytest.mark.parametrize("shape", ["fig7-fluid", "churn-repair"])
def test_an_observers_garbage_holds_no_trial_object(shape, mode, no_collector):
    if mode == "observed":
        collector = ObservabilityCollector()
        run_simulation(SHAPES[shape], observer=collector)
        del collector
    else:
        run_simulation(SHAPES[shape], check=True)
    # The collector <-> bus-handler cycle is the observer's own and may
    # wait for the collector; nothing of the trial may be caught in it.
    leaked = sorted(
        {
            f"{type(instance).__module__}.{type(instance).__qualname__}"
            for instance in unreachable_instances()
            if type(instance).__module__.startswith(TRIAL_PACKAGES)
        }
    )
    assert leaked == []


class _RuntimeKeeper(ObservabilityCollector):
    """Keeps the slave runtime alive past the end of its trial."""

    def on_trial_built(self, *, sim, tracker, runtime, hdfs, config) -> None:
        self.runtime = runtime


#: The convenience draws; a trial fetches a generator only through ``stream``.
DRAW_METHODS = ("normal", "exponential", "uniform", "choice", "sample", "shuffle", "randint")


def _log_stream_use(monkeypatch) -> tuple[Counter, set]:
    """Count draws per ``(stream cache, full name)`` and note ``stream`` fetches.

    A ``stream`` call made inside a convenience draw is the draw's own
    business, not a fetch.
    """
    draws: Counter = Counter()
    fetched: set = set()
    depth = [0]

    def counting(method):
        def draw(self, name, *args, **kwargs):
            draws[id(self._streams), self.prefix + name] += 1
            depth[0] += 1
            try:
                return method(self, name, *args, **kwargs)
            finally:
                depth[0] -= 1

        return draw

    stream = RngStreams.stream

    def fetch(self, name):
        if not depth[0]:
            fetched.add((id(self._streams), self.prefix + name))
        return stream(self, name)

    for name in DRAW_METHODS:
        monkeypatch.setattr(RngStreams, name, counting(getattr(RngStreams, name)))
    monkeypatch.setattr(RngStreams, "stream", fetch)
    return draws, fetched


def test_a_trial_holds_only_live_state(monkeypatch):
    """After a crash, a recovery and speculation: no dead process, no spent stream.

    Node 4 crashes mid-run with maps on it and rejoins, so its heartbeat
    stream is drawn from twice; a third of the nodes are slow, so backups
    launch and the losers are killed.
    """
    draws, fetched = _log_stream_use(monkeypatch)
    keeper = _RuntimeKeeper()
    config = SimulationConfig(
        scheduler="EDF",
        seed=2,
        speed_factors=tuple(1.0 if node % 3 else 0.4 for node in range(40)),
        jobs=(JobConfig(num_blocks=240),),
        failure_schedule=FailureSchedule(
            (FailEvent(at=20.0, node=4), RecoverEvent(at=60.0, node=4))
        ),
        speculative=True,
    )
    metrics = run_simulation(config, observer=keeper).jobs[0]
    assert metrics.killed_attempts > 0 and metrics.speculative_killed > 0

    runtime = keeper.runtime
    held = [
        item
        for registry in runtime._running.values()
        for entry in registry.items()
        for item in entry
        if isinstance(item, Process)
    ]
    assert [process.name for process in held if process.finished.fired] == []

    cache = id(runtime.rng._streams)
    names = {name for key, name in draws if key == cache}
    drawn_again = {name for name in names if draws[cache, name] > 1}
    streamed = {name for key, name in fetched if key == cache}
    assert "heartbeat:4" in drawn_again
    assert len(names - drawn_again - streamed) > 240  # one-shot task streams
    assert set(runtime.rng._streams) == drawn_again | streamed


def _run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return done.stdout


HEAVY = ("numpy", "repro.ec.reed_solomon", "repro.ec.matrix", "repro.ec.galois")

IMPORT_CLOSURE_SCRIPT = f"""
import contextlib, io, sys
heavy = {HEAVY!r}
def loaded():
    return [name for name in heavy if name in sys.modules]
import repro
print("import repro", loaded())
import repro.cli
print("import repro.cli", loaded())
with contextlib.redirect_stdout(io.StringIO()):
    status = repro.cli.main(
        ["simulate", "--nodes", "8", "--racks", "2", "--code", "4,2",
         "--blocks", "32", "--block-size-mb", "32", "--seed", "7"]
    )
print("repro simulate", status, loaded())
from repro import JobConfig, SimulationConfig, run_simulation
run_simulation(SimulationConfig(jobs=(JobConfig(num_blocks=60),)))
print("run_simulation", loaded())
from repro.ec import CodeParams, ErasureCodec
print("import codec", loaded())
ErasureCodec(CodeParams(4, 3))
print("ErasureCodec", loaded())
"""


def test_numpy_stays_outside_the_simulator_and_cli_import_closure():
    lines = _run_python(IMPORT_CLOSURE_SCRIPT).splitlines()
    assert lines == [
        "import repro []",
        "import repro.cli []",
        "repro simulate 0 []",
        "run_simulation []",
        "import codec []",
        f"ErasureCodec {list(HEAVY)!r}",
    ]
