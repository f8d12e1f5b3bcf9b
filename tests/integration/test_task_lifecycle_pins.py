"""Pinned trajectories of every task-kill, requeue and replan path.

The trajectory goldens (``tests/golden/``) hold one ``task.kill`` between
them: a reduce killed by an omniscient ``node-failure``.  The launch, kill,
requeue and degraded-read replan code of the MapReduce runtime has many
more exits than that, so this module pins a set of small trials that
together reach each of them, and asserts that they do:

* ``task.kill`` for a crashed map and a crashed reduce, a node failure, a
  speculative sibling and an aborted job;
* ``degraded.replan``, ``degraded.park``, ``task.requeue`` and ``job.fail``;
* ``block.corrupt`` from a map that finds its block's copy corrupt.

For each trial it pins the SHA-256 of the ``--events`` JSONL log, the
SHA-256 of the canonical result JSON (or of the raised error's type and
message, plus its partial result) and the engine's dispatched-event count.
A refactor of those paths must leave every pin where it is.  If one moves
after an intentional change to the simulator's semantics, print the new
pins with ``PYTHONPATH=src:. python tests/integration/test_task_lifecycle_pins.py``
and say in the commit message why they moved.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from functools import cache

import pytest

from repro.cluster.failures import FailurePattern
from repro.cluster.network import MB, mbps
from repro.ec.codec import CodeParams
from repro.faults.errors import JobFailedError
from repro.faults.schedule import (
    CorruptEvent,
    FailEvent,
    FailureSchedule,
    RecoverEvent,
    SlowdownEvent,
)
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.serialization import result_to_json
from repro.mapreduce.simulation import run_simulation
from repro.obs import ObservabilityCollector
from repro.obs.export import events_jsonl
from repro.storage.repair_driver import RepairConfig


def _churn(scheduler: str, network_model: str) -> SimulationConfig:
    """The end-to-end benchmark's ``churn_repair`` shape: crash, slowdown,
    recovery, speculation and throttled repair under three jobs."""
    return SimulationConfig(
        scheduler=scheduler,
        seed=1,
        network_model=network_model,
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


def _eight_nodes(**overrides) -> SimulationConfig:
    """8 nodes / 2 racks / (4,2): a trial of a few dozen milliseconds."""
    defaults = dict(
        num_nodes=8,
        num_racks=2,
        map_slots=2,
        code=CodeParams(4, 2),
        block_size=32 * MB,
        jobs=(JobConfig(num_blocks=64, num_reduce_tasks=4),),
        scheduler="EDF",
        seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _twelve_nodes(**overrides) -> SimulationConfig:
    """12 nodes / 3 racks / (6,4) on thin racks: degraded reads run long,
    so a second failure catches some with flows in flight."""
    defaults = dict(
        num_nodes=12,
        num_racks=3,
        map_slots=2,
        reduce_slots=1,
        code=CodeParams(6, 4),
        block_size=64 * MB,
        rack_bandwidth=mbps(150),
        jobs=(
            JobConfig(
                num_blocks=96, num_reduce_tasks=4, map_time_mean=10.0, map_time_std=0.5
            ),
        ),
        failure=FailurePattern.NONE,
        failure_schedule=FailureSchedule(
            (FailEvent(at=0.0, node=0), FailEvent(at=15.0, node=5))
        ),
        heartbeat_expiry=9.0,
        seed=1,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _six_nodes(*events, **overrides) -> SimulationConfig:
    """6 nodes / 3 racks / (3,2): two overlapping failures lose data."""
    defaults = dict(
        num_nodes=6,
        num_racks=3,
        map_slots=2,
        reduce_slots=1,
        code=CodeParams(3, 2),
        block_size=64 * MB,
        rack_bandwidth=mbps(1000),
        jobs=(
            JobConfig(
                num_blocks=48, num_reduce_tasks=2, map_time_mean=10.0, map_time_std=0.5
            ),
        ),
        failure=FailurePattern.NONE,
        failure_schedule=FailureSchedule(events),
        heartbeat_expiry=9.0,
        seed=3,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


CASES: dict[str, SimulationConfig] = {
    "churn-repair-lf-fluid": _churn("LF", "fluid"),
    "churn-repair-lf-exclusive": _churn("LF", "exclusive"),
    "churn-repair-edf-fluid": _churn("EDF", "fluid"),
    "churn-repair-edf-exclusive": _churn("EDF", "exclusive"),
    # The obs golden's trial: an omniscient strike at t=25.
    "edf-midrun-failure": SimulationConfig(
        scheduler="EDF", seed=11, jobs=(JobConfig(num_blocks=192),), failure_time=25.0
    ),
    # A map killed once exhausts max_attempts=1: the job fails and every
    # sibling attempt is interrupted with "job-aborted".
    "map-retry-budget": _eight_nodes(failure_time=50.0, max_attempts=1),
    # The same for a reduce: long reduces are still running at t=95.
    "reduce-retry-budget": _eight_nodes(
        jobs=(
            JobConfig(
                num_blocks=64, num_reduce_tasks=8, reduce_time_mean=60.0, reduce_time_std=1.0
            ),
        ),
        failure_time=95.0,
        max_attempts=1,
    ),
    # A crash the master detects late, against one that recovers before
    # the expiry fires (its attempts are requeued by the rejoining slave).
    "crash-then-recover-early": _eight_nodes(
        failure_schedule=FailureSchedule(
            (FailEvent(at=30.0, node=2), RecoverEvent(at=36.0, node=2))
        ),
        heartbeat_expiry=15.0,
    ),
    # Four live native blocks go checksum-bad: their maps report the
    # corruption at read time and reconstruct instead.
    "corrupt-replica": _eight_nodes(
        failure_schedule=FailureSchedule(
            tuple(CorruptEvent(at=0.0, stripe=stripe, position=0) for stripe in range(4))
        ),
    ),
    # Node 5 dies while degraded reads fetch from it: they re-plan.
    "mid-read-replan": _twelve_nodes(),
    # The same with no re-plan allowed: the reads give their attempt back.
    "replan-budget": _twelve_nodes(degraded_read_retries=0),
    # n-k = 1 and two failures: the stripe is undecodable until node 2 returns.
    "park-until-recovery": _six_nodes(
        FailEvent(at=20.0, node=0),
        FailEvent(at=26.0, node=2),
        RecoverEvent(at=120.0, node=2),
        wait_for_repair=True,
    ),
    # The same without the recovery or wait_for_repair: DataUnavailableError.
    "data-unavailable": _six_nodes(FailEvent(at=20.0, node=0), FailEvent(at=26.0, node=2)),
}

#: name -> (events SHA-256, outcome SHA-256, dispatched events).
PINS: dict[str, tuple[str, str, int]] = {
    "churn-repair-edf-exclusive": (
        "968d4be2cd341d74f33549078b8536f6b77d392226b5cc62af5c682d101a6ae9",
        "802963f35c094df43489b996ffa38034e49773044324397a2551452ef771790e",
        16664,
    ),
    "churn-repair-edf-fluid": (
        "042c70a203df8222bd0f64d0f69cefa0edf945d7d688c59cc233fbec62b469aa",
        "e8275a834aee30afba63962bfaff444168037d6e78622024e54a706ca28e668b",
        27864,
    ),
    "churn-repair-lf-exclusive": (
        "dbaa6dc40e07807a0c58c2d17c67f94765cb450e4898768c8f9708417b76de7d",
        "d569ddeb53dd9b5c7f1a3cf31bf3dbf8d28e41ba8025b56f958ef8bc3526663d",
        19135,
    ),
    "churn-repair-lf-fluid": (
        "0d5d84e65988cbc6af76a442c9be22fe44dc4c79b58babbfc00695106d9cc4a9",
        "a4ba200c29bd101574d72630602437f26916c305629524ec8483d03d496bbc07",
        30877,
    ),
    "corrupt-replica": (
        "97587143d755134b5ff4e5840ba0801037f045f104870a148822db5bf6a28df7",
        "60bb3067d752eab868837826af6df19f5229ac72715ed768c458f7b91598c31c",
        981,
    ),
    "crash-then-recover-early": (
        "4d304d3277f183a69112e1a0151c070d7d4e663601a9378139acf02d16fade40",
        "2a0b742bab5677f28a8799e59293e62af55e058c339e616e931310619cda8282",
        1038,
    ),
    "data-unavailable": (
        "50bca452e532155d950d5e8efe4f2f99584e33c206097fff3de90aeb4ed1d6a8",
        "a5f98ed9d176ca252d6a71fe53f767aa6e25a3c64251c8d84b1eb9c030345218",
        369,
    ),
    "edf-midrun-failure": (
        "5951b6c5eb0cd821dc3cbd0fd37e9bba2ec7244e9c85969356262cd21006ee3a",
        "e0f9539c18641ce5f63f8a5bc319fa7fbeff2a6ba09e4f988fe85bb7d7afe4fd",
        3804,
    ),
    "map-retry-budget": (
        "6fff63a88a85a0844a9778739da63b2ada150aed6145e2d1bbe8c3daf8ace3cf",
        "01a594fead83413183bd96631424bd504bac61cb34bc3b7bf38243423f06bb77",
        462,
    ),
    "mid-read-replan": (
        "77aab74a91b80d12f5c20eef93cf97d70776676fb360a7785c3b46cbdc70c45f",
        "718f47f90eb3ba1f4b12389e5bd4be406c2cfb9daa029140963aa9c5fec64d8f",
        1738,
    ),
    "park-until-recovery": (
        "2d21bf256e22a0f2d0a2285e381fe44b81c314a0ad121d6bdb54226e530315e0",
        "313ac814d664a485be86b1098a18c9868ca895da9eb59c61a0df814a186a716f",
        691,
    ),
    "reduce-retry-budget": (
        "104b59ee9893ba74cf5b07014d9736d0fe39c6e79c00c98f07caa4946521705b",
        "6e61d71ef0774cec216857cac225cef32a1e9e7978cab8c6dac0faa729675da7",
        1075,
    ),
    "replan-budget": (
        "5fcab7872e0c3aac3c35b88cb9820c5bdc4013017397965152c94f9b9292c4f9",
        "5af63f2eda9afc5497845c97ef302db3a453349b218877d23640f252a100339a",
        1757,
    ),
}


def _kill_paths(events) -> Counter:
    """How often each event kind, and each kind of ``task.kill``, occurs."""
    reached: Counter = Counter()
    for event in events:
        if event.kind == "task.kill":
            reached["task.kill", event.fields["task"], event.fields["cause"]] += 1
            reached["task.kill", event.fields["cause"]] += 1
        else:
            reached[event.kind] += 1
    return reached


@cache
def run_case(name: str) -> tuple[tuple[str, str, int], Counter]:
    """One observed trial: its pin and the paths its event log reaches."""
    collector = ObservabilityCollector()
    try:
        result = run_simulation(CASES[name], observer=collector)
        outcome = result_to_json(result)
    except JobFailedError as error:
        outcome = f"{type(error).__name__}: {error}\n" + result_to_json(error.result)
    pin = (
        hashlib.sha256(events_jsonl(collector.events).encode()).hexdigest(),
        hashlib.sha256(outcome.encode()).hexdigest(),
        collector.profiler.events_dispatched,
    )
    return pin, _kill_paths(collector.events)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_is_pinned(name: str) -> None:
    assert run_case(name)[0] == PINS[name]


@pytest.mark.parametrize(
    "path",
    [
        ("task.kill", "map", "crash"),
        ("task.kill", "reduce", "crash"),
        ("task.kill", "node-failure"),
        ("task.kill", "speculative-kill"),
        ("task.kill", "job-aborted"),
        "degraded.replan",
        "degraded.park",
        "task.requeue",
        "job.fail",
        "block.corrupt",
    ],
)
def test_the_set_reaches_every_kill_path(path) -> None:
    assert sum(run_case(name)[1][path] for name in CASES) > 0


if __name__ == "__main__":
    sys.stdout.write("PINS: dict[str, tuple[str, str, int]] = {\n")
    for case in sorted(CASES):
        sys.stdout.write(f'    "{case}": (\n')
        events_sha, outcome_sha, dispatched = run_case(case)[0]
        sys.stdout.write(f'        "{events_sha}",\n        "{outcome_sha}",\n')
        sys.stdout.write(f"        {dispatched},\n    ),\n")
    sys.stdout.write("}\n")
