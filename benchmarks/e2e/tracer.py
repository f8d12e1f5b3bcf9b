"""Outside-in tracing for the end-to-end benchmark.

This benchmark may not edit ``src/``, so every layer is measured from
outside: :meth:`Tracer.install` rebinds the *public* callables listed in
:data:`TARGETS` to timing wrappers, for the traced run only.  A span is
``(name, start, end, parent, op)``; spans nest strictly (one thread), so a
span's self time is its duration minus its direct children's durations and
the self times under an op add up to the op's wall exactly.

Two things are always on, traced or not, because the untraced run needs
the same simulated statistics to prove the tracer perturbed nothing:
:func:`probe_dispatch` adds one wrapper call per ``Simulator.run`` (one
per trial) that reads the engine's own ``dispatched`` counter.

Generator bodies (``slave_process``, map/reduce task bodies) and the
fluid completion callback run inside ``Simulator.run`` and are not public
call boundaries, so they land in the ``Simulator.run`` span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from contextlib import contextmanager
from time import perf_counter

#: (module, class or None, attribute) of every public callable the traced
#: run wraps.  ``Scheduler.assign`` is added per registered policy class.
TARGETS = (
    ("repro.sim.engine", "Simulator", "run"),
    ("repro.sim.resources", "FluidNetwork", "transfer"),
    ("repro.sim.resources", "FluidNetwork", "cancel"),
    ("repro.cluster.nodetree", "NodeTree", "transfer"),
    ("repro.cluster.nodetree", "NodeTree", "transfer_throttled"),
    ("repro.cluster.nodetree", "NodeTree", "transfer_from_rack"),
    ("repro.cluster.nodetree", "NodeTree", "cancel"),
    ("repro.mapreduce.master", "JobTracker", "heartbeat"),
    ("repro.mapreduce.master", "JobTracker", "submit_job"),
    ("repro.mapreduce.master", "JobTracker", "on_map_complete"),
    ("repro.mapreduce.master", "JobTracker", "on_reduce_complete"),
    ("repro.storage.degraded", "DegradedReadPlanner", "plan"),
    ("repro.storage.repair", "RepairPlanner", "plan"),
    ("repro.storage.repair", "RepairPlanner", "plan_block"),
    ("repro.obs.events", "EventBus", "emit"),
    ("repro.obs.collector", "ObservabilityCollector", "slot_changed"),
    ("repro.obs.collector", "ObservabilityCollector", "flow_started"),
    ("repro.obs.collector", "ObservabilityCollector", "flow_finished"),
    ("repro.obs.collector", "ObservabilityCollector", "flow_cancelled"),
    ("repro.obs.collector", "ObservabilityCollector", "rates_updated"),
    ("repro.obs.collector", "ObservabilityCollector", "finalize"),
    ("repro.obs.digest", None, "digest_result"),
    ("repro.experiments.campaign", None, "trial_spec_hash"),
    ("repro.experiments.campaign", "Journal", "append_done"),
    ("repro.experiments.campaign", "Journal", "load"),
    ("repro.experiments.cache", "ResultCache", "get"),
    ("repro.experiments.cache", "ResultCache", "put"),
    ("repro.experiments.tournament", None, "run_tournament"),
    ("repro.ec.reed_solomon", "ReedSolomon", "encode"),
    ("repro.ec.reed_solomon", "ReedSolomon", "encode_stripes"),
    ("repro.ec.reed_solomon", "ReedSolomon", "decode"),
    ("repro.ec.reed_solomon", "ReedSolomon", "reconstruct_block"),
    ("repro.testbed.localfs", "HdfsRaidFilesystem", "split_blocks"),
    ("repro.testbed.localfs", "HdfsRaidFilesystem", "write_file"),
    ("repro.testbed.localfs", "HdfsRaidFilesystem", "degraded_read"),
    ("repro.testbed.localfs", "HdfsRaidFilesystem", "repair_failed_nodes"),
    ("repro.testbed.netem", "EmulatedNetwork", "transfer"),
)

#: Name of the root span :meth:`Tracer.op` opens around each operation.
OP_SPAN = "op"


class FlowCounter:
    """Network observer that counts flow traffic and reallocations.

    Installed on every fluid ``NodeTree`` through the existing
    ``set_observer`` hook; forwards each callback to the trial's own
    observer (a collector or the sanitizer) when there is one.
    """

    def __init__(self, stats: dict, inner) -> None:
        self.stats = stats
        self.inner = inner
        self.active = 0

    def register_links(self, capacities) -> None:
        if hasattr(self.inner, "register_links"):
            self.inner.register_links(capacities)

    def flow_started(self, now, links, size) -> None:
        self.active += 1
        if self.active > self.stats["peak_active_flows"]:
            self.stats["peak_active_flows"] = self.active
        if self.inner is not None:
            self.inner.flow_started(now, links, size)

    def flow_finished(self, now, links, size, duration) -> None:
        self.active -= 1
        if self.inner is not None:
            self.inner.flow_finished(now, links, size, duration)

    def flow_cancelled(self, now, links, size, moved) -> None:
        self.active -= 1
        if hasattr(self.inner, "flow_cancelled"):
            self.inner.flow_cancelled(now, links, size, moved)

    def rates_updated(self, now, link_rates) -> None:
        self.stats["reallocations"] += 1
        if self.inner is not None:
            self.inner.rates_updated(now, link_rates)


class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self) -> None:
        self.active = False
        # One entry per span, indexed by span id.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = [-1]
        self.op_id = -1
        self.op_labels: list[str] = []
        #: Engine callbacks dispatched, summed over every ``Simulator.run``.
        self.dispatched = 0
        #: The simulator currently inside ``run`` (its ``now`` stamps flows).
        self.sim = None
        self.flows = {"reallocations": 0, "peak_active_flows": 0}
        self.scheduler = {"assignments": 0, "useful": 0}
        self.nodetree = {"cross_rack": 0}
        #: Flow start/cancel trace of the op being recorded, for :func:`replay_flows`.
        self.flow_trace: dict | None = None
        self._originals: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def op(self, label: str):
        """Root span of one operation; its id is the spans' trial id."""
        self.op_labels.append(label)
        self.op_id = len(self.op_labels) - 1
        if not self.active:
            yield
            return
        sid = len(self.names)
        self.names.append(OP_SPAN)
        self.parents.append(-1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        try:
            yield
        finally:
            self.ends[sid] = perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        tracer = self
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, staticmethod(traced) if fn is not raw else traced)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target (the traced run only); set ``active`` to record.

        Pool workers the campaign engine forks inherit the wrappers and keep
        recording into memory nobody reads, so a pooled pass and an
        in-process loop carry the same tracing cost and stay comparable.
        """
        from repro.cluster.nodetree import NodeTree
        from repro.core.scheduler import POLICIES, Scheduler

        hooks = {
            "FluidNetwork.transfer": self._after_flow_start,
            "FluidNetwork.cancel": self._after_flow_cancel,
            "NodeTree.transfer": self._after_node_transfer,
            "NodeTree.transfer_throttled": self._after_node_transfer,
            "NodeTree.transfer_from_rack": self._after_rack_transfer,
        }
        for module_name, class_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            name = attr
            if class_name is not None:
                owner = getattr(owner, class_name)
                name = f"{class_name}.{attr}"
            self._wrap(owner, attr, name, hooks.get(name))
        policy_classes = {POLICIES.get(name) for name in POLICIES.names()}
        for cls in (Scheduler, *sorted(policy_classes, key=lambda c: c.__name__)):
            if "assign" in vars(cls):
                self._wrap(cls, "assign", "Scheduler.assign", self._after_assign)

        # Flow and reallocation counts ride the existing observer hook: every
        # fluid NodeTree gets a FlowCounter, in front of the trial's own
        # observer when run_simulation attaches one later.
        tracer = self
        original_init = NodeTree.__init__
        original_set_observer = NodeTree.set_observer

        @functools.wraps(original_init)
        def init(tree, *args, **kwargs):
            original_init(tree, *args, **kwargs)
            tree.set_observer(None)

        @functools.wraps(original_set_observer)
        def set_observer(tree, observer):
            if tracer.active and tree.model == "fluid":
                observer = FlowCounter(tracer.flows, observer)
            original_set_observer(tree, observer)

        self._patch(NodeTree, "__init__", init)
        self._patch(NodeTree, "set_observer", set_observer)

    def uninstall(self) -> None:
        """Stop recording and restore every rebound callable."""
        self.active = False
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    # -- counters read at the wrapped boundaries ---------------------------

    def _after_assign(self, args, result) -> None:
        maps, reduces = result
        count = len(maps) + len(reduces)
        self.scheduler["assignments"] += count
        if count:
            self.scheduler["useful"] += 1

    def _after_node_transfer(self, args, result) -> None:
        tree, src_node, dst_node = args[0], args[1], args[2]
        if tree.is_cross_rack(src_node, dst_node):
            self.nodetree["cross_rack"] += 1

    def _after_rack_transfer(self, args, result) -> None:
        tree, src_rack, dst_node = args[0], args[1], args[2]
        if tree.topology.rack_of(dst_node) != src_rack:
            self.nodetree["cross_rack"] += 1

    def record_flows(self) -> None:
        """Record the coming op's flow starts and cancels for the replay."""
        self.flow_trace = {"capacities": None, "handles": {}, "events": []}

    def stop_recording_flows(self) -> dict:
        """The recorded trace; ``capacities`` is None if no flow started."""
        trace, self.flow_trace = self.flow_trace, None
        del trace["handles"]
        return trace

    def _after_flow_start(self, args, result) -> None:
        trace = self.flow_trace
        if trace is None:
            return
        network, links, size = args[0], args[1], args[2]
        if trace["capacities"] is None:
            trace["capacities"] = network.capacities
        number = len(trace["handles"])
        trace["handles"][result] = number
        trace["events"].append((self.sim.now, number, tuple(links), size))

    def _after_flow_cancel(self, args, result) -> None:
        trace = self.flow_trace
        number = None if trace is None else trace["handles"].get(args[1])
        if result and number is not None:
            trace["events"].append((self.sim.now, number, None, None))

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time per span: duration minus its direct children's."""
        selfs = [end - start for start, end in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                selfs[parent] -= self.ends[sid] - self.starts[sid]
        return selfs

    def by_name(self, selfs: list[float]) -> dict[str, dict]:
        """``name -> {calls, total_s, self_s, durations}`` over all spans."""
        table: dict[str, dict] = {}
        for sid, self_s in enumerate(selfs):
            row = table.setdefault(
                self.names[sid],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []},
            )
            duration = self.ends[sid] - self.starts[sid]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += self_s
            row["durations"].append(duration)
        return table

    def op_self_sums(self, selfs: list[float]) -> dict[int, float]:
        """``op id -> sum of the self times of every span under the op``."""
        sums: dict[int, float] = {}
        for sid, self_s in enumerate(selfs):
            sums[self.ops[sid]] = sums.get(self.ops[sid], 0.0) + self_s
        return sums

    def flush(self, path: str) -> None:
        """Write every span, column-wise, to ``path``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as handle:
            json.dump(
                {
                    "schema": "repro.bench-trace/v1",
                    "ops": self.op_labels,
                    "columns": ["name", "start_s", "end_s", "parent", "op"],
                    "name": self.names,
                    "start_s": [round(value - origin, 7) for value in self.starts],
                    "end_s": [round(value - origin, 7) for value in self.ends],
                    "parent": self.parents,
                    "op": self.ops,
                },
                handle,
            )


def probe_dispatch(tracer: Tracer) -> None:
    """Sum ``Simulator.dispatched`` over every ``run``: one wrapper call a trial.

    Always on -- the untraced run needs the dispatch count for
    ``host_us_per_event`` and for the traced-equals-untraced check.
    """
    from repro.sim.engine import Simulator

    original = Simulator.run

    @functools.wraps(original)
    def run(sim, until=None):
        tracer.sim = sim
        before = sim.dispatched
        try:
            return original(sim, until)
        finally:
            tracer.dispatched += sim.dispatched - before

    Simulator.run = run


def replay_flows(trace: dict) -> dict:
    """Replay a recorded flow trace on a bare ``Simulator`` + ``FluidNetwork``.

    No MapReduce, no observer: the host time is the fluid allocator plus
    its completion callbacks in isolation, which inside a trial is hidden
    in the engine's self time.
    """
    from repro.sim.engine import Simulator
    from repro.sim.resources import FluidNetwork

    sim = Simulator()
    network = FluidNetwork(sim)
    for link, capacity in trace["capacities"].items():
        network.add_link(link, capacity)
    handles: dict[int, object] = {}
    cancelled: set[int] = set()

    def start(number, links, size):
        handles[number] = network.transfer(list(links), size)

    def cancel(number):
        if network.cancel(handles[number]):
            cancelled.add(number)

    for at, number, links, size in trace["events"]:
        if links is None:
            sim.call_at(at, functools.partial(cancel, number))
        else:
            sim.call_at(at, functools.partial(start, number, links, size))
    started = perf_counter()
    sim.run()
    elapsed = perf_counter() - started
    unfinished = sum(
        1
        for number, done in handles.items()
        if number not in cancelled and not done.fired
    )
    return {
        "replay_s": elapsed,
        "flows": len(handles),
        "cancelled": len(cancelled),
        "unfinished": unfinished,
        "dispatched": sim.dispatched,
    }
