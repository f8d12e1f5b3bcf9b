"""Fixed workloads for the simulation-core performance suite.

Six workloads probe the hot paths the core optimisation targeted:

* :func:`engine_churn` -- raw event-loop throughput: processes that sleep,
  signal events and join each other, measured as dispatched callbacks per
  wall-second.
* :func:`fluid_churn` -- FluidNetwork reallocation pressure: hundreds of
  staggered multi-link flows over a two-tier rack/NIC topology, with a
  fraction cancelled mid-flight, measured as rate reallocations per
  wall-second.
* :func:`exclusive_churn` -- the same topology and flow script through
  ExclusivePathNetwork: a hold queue hundreds deep with cancels of queued
  and in-flight holds, measured as holds per wall-second.
* :func:`fig7_single_trial` -- one end-to-end paper trial (the unit of work
  every figure's sweep repeats thousands of times).
* :func:`observe_overhead` -- that trial plain, under an
  ``ObservabilityCollector`` and under ``check=True``, interleaved in one
  process, measured as what observing adds per emitted bus event and what
  checking adds per dispatched heap entry (the cost of the obs bus, the
  collector and the sanitizer), with the two wall-clock ratios over the
  plain trial beside them.
* :func:`footprint` -- what a simulator *process* costs, measured in fresh
  interpreters: wall and resident memory of the import closure
  ``run_simulation`` needs, peak resident memory after six fig7 trials and
  after one ``scale_200``-shaped trial, and the objects a final
  ``gc.collect()`` finds (a finished trial is acyclic, so: none).

The workloads are deterministic (fixed LCG streams, no wall-clock
dependence inside the simulated world) so before/after timings compare the
implementation, not the workload.  ``benchmarks/test_perf_core.py`` runs
them, writes ``BENCH_sim.json`` and enforces the regression floor;
``python benchmarks/perf_core.py`` prints one sample per workload.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import repro
from repro.mapreduce.config import SimulationConfig
from repro.mapreduce.serialization import result_to_json
from repro.mapreduce.simulation import run_simulation
from repro.obs import ObservabilityCollector
from repro.sim.engine import Simulator, Timeout
from repro.sim.resources import ExclusivePathNetwork, FluidNetwork


def _lcg(seed: int):
    """A tiny deterministic integer stream (workload shaping only)."""
    state = seed & 0x7FFFFFFF
    while True:
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        yield state


def engine_churn(num_processes: int = 300, rounds: int = 400) -> dict:
    """Timeout/event/join churn through the engine's dispatch loop.

    Each process alternates sleeping and signalling a partner event, so the
    run exercises timeout scheduling, event waiter management and process
    joins in roughly the mix the MapReduce simulator produces.
    """
    sim = Simulator()
    gates = [sim.event(name=f"gate{i}") for i in range(num_processes)]

    def worker(index: int):
        stream = _lcg(index + 1)
        for round_no in range(rounds):
            yield Timeout((next(stream) % 97 + 1) * 0.001)
            if round_no == rounds // 2:
                gates[index].succeed(index)
            if round_no == rounds - 1 and index + 1 < num_processes:
                yield gates[index + 1]

    for index in range(num_processes):
        sim.spawn(worker(index), name=f"worker{index}")
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "dispatched": sim.dispatched,
        "seconds": elapsed,
        "events_per_sec": sim.dispatched / elapsed,
    }


def _churn(network_class, num_racks, nodes_per_rack, num_flows, cancel_every):
    """The shared churn script: returns ``(sim, tally, seconds)``.

    Most flows cross four links (source NIC, source rack uplink, destination
    rack downlink, destination NIC), start within 20 simulated seconds, and
    every ``cancel_every``-th flow is aborted a little later.
    ``tally["peak_queue"]`` is the longest hold queue seen right after a
    ``transfer`` (always 0 on a network without one).
    """
    sim = Simulator()
    network = network_class(sim)
    capacity = 125e6  # 1 Gbps in bytes/s
    for rack in range(num_racks):
        network.add_link(f"rack{rack}:up", capacity)
        network.add_link(f"rack{rack}:down", capacity)
    num_nodes = num_racks * nodes_per_rack
    for node in range(num_nodes):
        network.add_link(f"node{node}:in", capacity)
        network.add_link(f"node{node}:out", capacity)

    stream = _lcg(42)
    tally = {"done": 0, "cancelled": 0, "peak_queue": 0}
    queue = getattr(network, "_queue", ())

    def launch(flow_id: int):
        src = next(stream) % num_nodes
        dst = (src + 1 + next(stream) % (num_nodes - 1)) % num_nodes
        src_rack, dst_rack = src // nodes_per_rack, dst // nodes_per_rack
        links = [f"node{src}:out"]
        if src_rack != dst_rack:
            links += [f"rack{src_rack}:up", f"rack{dst_rack}:down"]
        links.append(f"node{dst}:in")
        size = (8 + next(stream) % 56) * 1e6
        start_delay = (next(stream) % 2000) * 0.01

        def flow_process():
            yield Timeout(start_delay)
            done = network.transfer(links, size)
            tally["peak_queue"] = max(tally["peak_queue"], len(queue))
            if flow_id % cancel_every == 0:
                cancel_after = (next(stream) % 100 + 1) * 0.05

                def canceller():
                    yield Timeout(cancel_after)
                    if network.cancel(done):
                        tally["cancelled"] += 1

                sim.spawn(canceller())
            yield done
            tally["done"] += 1

        sim.spawn(flow_process())

    for flow_id in range(num_flows):
        launch(flow_id)
    start = time.perf_counter()
    sim.run(until=1e7)
    return sim, tally, time.perf_counter() - start


def fluid_churn(
    num_racks: int = 4,
    nodes_per_rack: int = 10,
    num_flows: int = 800,
    cancel_every: int = 5,
) -> dict:
    """Concurrent multi-link flows with mid-flight cancels.

    Mirrors a degraded-read storm: hundreds of flows are concurrently
    active and a fraction is aborted mid-flight -- the workload the
    paper's multi-run sweeps hammer hardest.
    """
    sim, tally, elapsed = _churn(
        FluidNetwork, num_racks, nodes_per_rack, num_flows, cancel_every
    )
    reallocations = tally["done"] + tally["cancelled"] + num_flows
    return {
        "flows": num_flows,
        "completed": tally["done"],
        "cancelled": tally["cancelled"],
        "dispatched": sim.dispatched,
        "seconds": elapsed,
        "reallocations_per_sec": reallocations / elapsed,
    }


def exclusive_churn(
    num_racks: int = 4,
    nodes_per_rack: int = 10,
    num_flows: int = 800,
    cancel_every: int = 5,
) -> dict:
    """The :func:`fluid_churn` script through :class:`ExclusivePathNetwork`.

    Every cross-rack hold takes a rack uplink and a downlink exclusively, so
    the same 800 starts pile up in the hold queue (cancels hit queued and
    in-flight holds alike); the cost under test is the first-fit drain.
    """
    sim, tally, elapsed = _churn(
        ExclusivePathNetwork, num_racks, nodes_per_rack, num_flows, cancel_every
    )
    return {
        "holds": num_flows,
        "completed": tally["done"],
        "cancelled": tally["cancelled"],
        "peak_queue": tally["peak_queue"],
        "dispatched": sim.dispatched,
        "seconds": elapsed,
        "holds_per_sec": num_flows / elapsed,
    }


def _fig7_config(scheduler: str, seed: int, num_blocks: int) -> SimulationConfig:
    """The paper-default trial (single-node failure) with resized jobs."""
    config = SimulationConfig(scheduler=scheduler, seed=seed)
    return replace(
        config, jobs=tuple(replace(job, num_blocks=num_blocks) for job in config.jobs)
    )


def fig7_single_trial(num_blocks: int = 1440) -> dict:
    """One end-to-end fig7-style trial (EDF, single-node failure)."""
    config = _fig7_config("EDF", 1, num_blocks)
    start = time.perf_counter()
    result = run_simulation(config)
    elapsed = time.perf_counter() - start
    return {
        "num_blocks": num_blocks,
        "simulated_runtime": result.total_runtime,
        "seconds": elapsed,
    }


def observe_overhead(num_blocks: int = 1440, rounds: int = 3) -> dict:
    """The fig7 trial plain, observed and checked, interleaved in one process.

    Each round runs LF and EDF on one trial seed three ways back to back, so
    machine drift lands on all three alike; observing and checking must
    leave the result untouched (``identical``).  Two per-unit costs are the
    guarded figures, medians over the trials: what the collector adds per
    event emitted on its bus (``observe_us_per_event``) and what the
    sanitizer adds per heap entry the engine dispatched
    (``check_us_per_dispatch``), each against the plain run of the same
    trial.  Their denominators are counts of the trial, so a cheaper plain
    trial does not move them.  The overhead fractions ``median(mode walls)
    / median(plain walls) - 1``, the definition ``benchmarks/e2e`` uses for
    its ``fig7_observed`` workload, are reported too.
    """
    modes = ("plain", "observed", "checked")
    walls: dict[str, list[float]] = {mode: [] for mode in modes}
    per_event: list[float] = []
    per_dispatch: list[float] = []
    emitted: list[int] = []
    dispatched: list[int] = []
    identical = True

    def run(mode: str, config: SimulationConfig, collector: ObservabilityCollector):
        if mode == "observed":
            return run_simulation(config, observer=collector)
        return run_simulation(config, check=mode == "checked")

    for mode in modes:  # untimed warm-up
        run(mode, _fig7_config("EDF", 0, num_blocks), ObservabilityCollector())
    for seed in range(rounds):
        for scheduler in ("LF", "EDF"):
            config = _fig7_config(scheduler, seed, num_blocks)
            collector = ObservabilityCollector()
            trial: dict[str, float] = {}
            results = set()
            for mode in modes:
                start = time.perf_counter()
                result = run(mode, config, collector)
                trial[mode] = time.perf_counter() - start
                walls[mode].append(trial[mode])
                results.add(result_to_json(result))
            identical = identical and len(results) == 1
            # One trajectory in all three modes: the observed run's counts.
            emitted.append(collector.profiler.events_emitted)
            dispatched.append(collector.profiler.events_dispatched)
            per_event.append((trial["observed"] - trial["plain"]) / emitted[-1])
            per_dispatch.append((trial["checked"] - trial["plain"]) / dispatched[-1])
    medians = {mode: statistics.median(values) for mode, values in walls.items()}
    return {
        "num_blocks": num_blocks,
        "trials_per_mode": len(walls["plain"]),
        "identical": identical,
        "plain_seconds": medians["plain"],
        "observed_seconds": medians["observed"],
        "checked_seconds": medians["checked"],
        "events_emitted": statistics.median(emitted),
        "events_dispatched": statistics.median(dispatched),
        "observe_us_per_event": statistics.median(per_event) * 1e6,
        "check_us_per_dispatch": statistics.median(per_dispatch) * 1e6,
        "observe_overhead_frac": medians["observed"] / medians["plain"] - 1.0,
        "check_overhead_frac": medians["checked"] / medians["plain"] - 1.0,
    }


#: Peak resident size from VmHWM, which starts at zero with the new
#: program; ``ru_maxrss`` starts at the size of the process that forked it.
_PROBE_PRELUDE = """
import gc, json, sys, time
def peak_rss_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
"""

#: Runs in a fresh interpreter: the import closure a simulator process pays
#: for before its first trial (``run_simulation`` resolves lazily).
_IMPORT_PROBE = _PROBE_PRELUDE + """
start = time.perf_counter()
import repro
repro.run_simulation
seconds = time.perf_counter() - start
print(json.dumps({
    "import_seconds": seconds,
    "import_rss_mb": peak_rss_mb(),
    "numpy_imported": "numpy" in sys.modules,
}))
"""

#: Runs in a fresh interpreter, collector left as the interpreter sets it:
#: two seeds of LF / BDF / EDF, the group the end-to-end benchmark repeats.
_TRIALS_PROBE = _PROBE_PRELUDE + """
from dataclasses import replace
from repro import SimulationConfig, run_simulation
for seed in (0, 1):
    for scheduler in ("LF", "BDF", "EDF"):
        config = SimulationConfig(scheduler=scheduler, seed=seed)
        run_simulation(replace(config, jobs=tuple(
            replace(job, num_blocks={num_blocks}) for job in config.jobs)))
print(json.dumps({{
    "trials": 6,
    "peak_rss_mb": peak_rss_mb(),
    "final_collect_objects": gc.collect(),
    "numpy_imported": "numpy" in sys.modules,
}}))
"""


#: Runs in a fresh interpreter: one LF trial shaped like the end-to-end
#: benchmark's ``scale_200`` workload (200 nodes, 10 racks, 7 200 blocks),
#: the most task streams and task processes any workload's trial holds.
_SCALE_PROBE = _PROBE_PRELUDE + """
from repro import JobConfig, SimulationConfig, run_simulation
run_simulation(SimulationConfig(
    scheduler="LF", seed=0, num_nodes=200, num_racks=10,
    jobs=(JobConfig(num_blocks=7200),)))
print(json.dumps({"peak_rss_mb": peak_rss_mb()}))
"""


def _probe(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line is one JSON object."""
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([source_root, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def footprint(num_blocks: int = 1440, starts: int = 5) -> dict:
    """What one simulator process costs: start-up, resident memory, garbage.

    Everything is read in fresh interpreters, because this process has
    already imported numpy-free and numpy-laden modules alike.  The import
    figures are medians over ``starts`` interpreter starts; the six trials
    run once (their peak repeats to 0.1-0.3 MiB), and so does the
    ``scale_200``-shaped trial, which ``num_blocks`` does not resize.
    """
    imports = [_probe(_IMPORT_PROBE) for _ in range(starts)]
    trials = _probe(_TRIALS_PROBE.format(num_blocks=num_blocks))
    scale = _probe(_SCALE_PROBE)
    return {
        "num_blocks": num_blocks,
        "starts": starts,
        "import_seconds": statistics.median(run["import_seconds"] for run in imports),
        "import_rss_mb": statistics.median(run["import_rss_mb"] for run in imports),
        "numpy_imported": trials["numpy_imported"]
        or any(run["numpy_imported"] for run in imports),
        "trials": trials["trials"],
        "peak_rss_mb": trials["peak_rss_mb"],
        "final_collect_objects": trials["final_collect_objects"],
        "scale_200_peak_rss_mb": scale["peak_rss_mb"],
    }


def main() -> None:
    for name, fn in (
        ("engine_churn", engine_churn),
        ("fluid_churn", fluid_churn),
        ("exclusive_churn", exclusive_churn),
        ("fig7_single_trial", fig7_single_trial),
        ("observe_overhead", observe_overhead),
        ("footprint", footprint),
    ):
        print(name, fn())


if __name__ == "__main__":
    main()
