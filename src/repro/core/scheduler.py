"""The heartbeat-driven scheduler interface.

Every scheduling decision in the paper happens inside the master's response
to a slave heartbeat: the slave reports how many map and reduce slots it has
free, and the scheduler hands back assignments.  The three algorithms differ
only in which task fills a free *map* slot, so the slot-filling loop lives
in the base class and a policy supplies just that choice, one job at a time
(:meth:`Scheduler.pick_map`).  Reduce slots are filled identically (FIFO
over jobs, subject to the slow-start rule), so that logic lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import ClusterTopology
from repro.core.tasks import JobTaskState
from repro.mapreduce.job import (
    MapAssignment,
    MapTaskCategory,
    ReduceAssignment,
)
from repro.storage.block import BlockId


@dataclass
class SchedulerContext:
    """Cluster-level facts schedulers need beyond per-job state.

    Parameters
    ----------
    topology:
        The cluster layout.
    live_nodes:
        Node ids that are up (failed nodes never heartbeat).  The master
        mutates this set in place on failure/recovery, so policies always
        see the current membership.
    expected_degraded_read_time:
        The analysis estimate ``(R-1) k S / (R W)`` used as the
        rack-awareness threshold in EDF.  Computed once at trial start and
        *intentionally* never recomputed when the live-node count changes
        mid-trial: every term -- rack count ``R``, stripe width ``k``,
        block size ``S``, cross-rack bandwidth ``W`` -- is a static
        property of the cluster and the code, not of which nodes happen to
        be up, so there is nothing to recompute (a surviving node doing a
        degraded read still fans in over ``k`` surviving-rack sources and
        still shares the same rack downlink).  A regression test pins this
        (``tests/unit/test_context_view.py``).
    map_time_mean:
        Mean map processing time, used to estimate local backlogs.
    reduce_slowstart:
        Fraction of maps that must complete before reducers launch.

    Beyond the raw fields, the context offers node-capability lookups
    (:meth:`speed_factor`, :meth:`map_slots_of`, :meth:`mean_speed_factor`).
    They are pure queries over ``topology`` and ``live_nodes`` -- they never
    mutate scheduling state, so calling them cannot perturb a trial.
    """

    topology: ClusterTopology
    live_nodes: frozenset[int]
    expected_degraded_read_time: float
    map_time_mean: float
    reduce_slowstart: float

    # -- node-capability lookups ------------------------------------------------

    def speed_factor(self, node_id: int) -> float:
        """Relative processing speed of ``node_id`` (1.0 = baseline)."""
        return self.topology.node(node_id).speed_factor

    def map_slots_of(self, node_id: int) -> int:
        """Configured map slots of ``node_id`` (at least 1 for estimates)."""
        return max(self.topology.node(node_id).map_slots, 1)

    def mean_speed_factor(self) -> float:
        """Mean speed factor over live nodes (1.0 on an empty cluster)."""
        live = self.live_nodes
        if not live:
            return 1.0
        return sum(self.speed_factor(node_id) for node_id in live) / len(live)


class Scheduler:
    """Base class: the map-slot fill loop plus reduce-slot filling.

    A policy implements :meth:`pick_map`, the per-job choice of which task
    fills the next free map slot; :meth:`assign_maps` offers every job in
    order the free slots until its pick comes back empty.  A policy that
    needs a different loop -- RANDOM draws a job per slot -- overrides
    :meth:`assign_maps` instead, and then needs no :meth:`pick_map`.

    Decision tracing: when :attr:`bus` is set (an
    :class:`~repro.obs.events.EventBus`, attached by ``run_simulation`` for
    instrumented trials), every assignment decision -- including rejected
    degraded launches and the guard/pacing values behind them -- is emitted
    as a ``sched.decision`` event.  With ``bus is None`` (the default)
    tracing costs nothing.
    """

    #: Registry name, overridden by subclasses.
    name = "abstract"

    #: Whether an assignment's decision trace records the pacing state.
    _trace_pacing = True

    def __init__(self, context: SchedulerContext) -> None:
        self.context = context
        #: Optional event bus for decision tracing (None = tracing off).
        self.bus = None
        #: Guard values of the most recent ``_degraded_guards`` evaluation,
        #: populated only while tracing (see EnhancedDegradedFirstScheduler).
        self.last_guard_trace: dict | None = None

    def assign(
        self,
        slave_id: int,
        free_map_slots: int,
        free_reduce_slots: int,
        jobs: list[JobTaskState],
        now: float,
    ) -> tuple[list[MapAssignment], list[ReduceAssignment]]:
        """Respond to one heartbeat with map and reduce assignments."""
        maps = self.assign_maps(slave_id, free_map_slots, jobs, now)
        reduces = self._assign_reduces(slave_id, free_reduce_slots, jobs)
        return maps, reduces

    def assign_maps(
        self,
        slave_id: int,
        free_map_slots: int,
        jobs: list[JobTaskState],
        now: float,
    ) -> list[MapAssignment]:
        """Fill up to ``free_map_slots`` map slots of ``slave_id``."""
        assignments: list[MapAssignment] = []
        for job in jobs:
            free_map_slots = self._fill_from(job, slave_id, free_map_slots, now, assignments)
            if free_map_slots == 0:
                break
        return assignments

    def pick_map(
        self, job: JobTaskState, slave_id: int, now: float
    ) -> tuple[MapAssignment | None, str, dict | None]:
        """Pop at most one map task of ``job`` for a free slot of ``slave_id``.

        Returns the assignment (``None`` when ``job`` has nothing this slave
        should run now), the ``reason`` its decision trace records, and any
        extra trace fields (or ``None``).
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement pick_map or override assign_maps"
        )

    def _fill_from(
        self,
        job: JobTaskState,
        slave_id: int,
        free_map_slots: int,
        now: float,
        assignments: list[MapAssignment],
    ) -> int:
        """Fill free slots from ``job`` until its pick is empty; slots left."""
        tracing = self.bus is not None
        while free_map_slots > 0:
            # Pacing state is captured before the pick's pop mutates m/m_d.
            pacing = self.pacing_fields(job) if tracing and self._trace_pacing else None
            assignment, reason, extras = self.pick_map(job, slave_id, now)
            if assignment is None:
                break
            assignments.append(assignment)
            free_map_slots -= 1
            if tracing:
                self.trace_decision(
                    now, slave_id, job_id=job.job_id,
                    action="assign", reason=reason,
                    category=assignment.category.value,
                    block=str(assignment.block),
                    **(extras or {}), **(pacing or {}),
                )
        return free_map_slots

    def _assign_reduces(
        self, slave_id: int, free_reduce_slots: int, jobs: list[JobTaskState]
    ) -> list[ReduceAssignment]:
        assignments: list[ReduceAssignment] = []
        for job in jobs:
            while free_reduce_slots > 0 and job.reduce_ready(self.context.reduce_slowstart):
                index = job.pop_reduce()
                if index is None:
                    break
                assignments.append(
                    ReduceAssignment(job_id=job.job_id, reduce_index=index, slave_id=slave_id)
                )
                free_reduce_slots -= 1
            if free_reduce_slots == 0:
                break
        return assignments

    # -- decision tracing -------------------------------------------------------

    def trace_decision(self, now: float, slave_id: int, **fields) -> None:
        """Emit one ``sched.decision`` event (no-op unless tracing is on)."""
        if self.bus is None:
            return
        self.bus.emit(
            "sched.decision", now, scheduler=self.name, node=slave_id, **fields
        )

    @staticmethod
    def pacing_fields(job: JobTaskState) -> dict:
        """The paper's pacing state ``m/M`` vs ``m_d/M_d`` at decision time."""
        return {
            "m": job.m,
            "M": job.M,
            "m_d": job.m_d,
            "M_d": job.M_d,
            "launched_fraction": job.m / job.M if job.M else None,
            "degraded_fraction": job.m_d / job.M_d if job.M_d else None,
        }

    # -- shared helpers for subclasses ----------------------------------------

    def _make_map_assignment(
        self, job: JobTaskState, slave_id: int, block: BlockId, category: MapTaskCategory
    ) -> MapAssignment:
        return MapAssignment(
            job_id=job.job_id, block=block, category=category, slave_id=slave_id
        )

    def _try_local(self, job: JobTaskState, slave_id: int) -> MapAssignment | None:
        """Pop a local (node- or rack-local) task of ``job`` for ``slave_id``."""
        picked = job.pop_local(slave_id)
        if picked is None:
            return None
        block, node_local = picked
        category = MapTaskCategory.NODE_LOCAL if node_local else MapTaskCategory.RACK_LOCAL
        return self._make_map_assignment(job, slave_id, block, category)

    def _try_remote(self, job: JobTaskState, slave_id: int) -> MapAssignment | None:
        """Pop a remote task of ``job`` for ``slave_id``."""
        block = job.pop_remote(slave_id)
        if block is None:
            return None
        return self._make_map_assignment(job, slave_id, block, MapTaskCategory.REMOTE)

    def _try_degraded(self, job: JobTaskState, slave_id: int) -> MapAssignment | None:
        """Pop a degraded task of ``job``."""
        block = job.pop_degraded()
        if block is None:
            return None
        return self._make_map_assignment(job, slave_id, block, MapTaskCategory.DEGRADED)


class PolicyRegistry:
    """Name → scheduler-class registry behind every policy lookup.

    One shared instance (:data:`POLICIES`) backs ``SimulationConfig``
    validation, the CLI (``--policy`` / ``repro policies list``), the
    testbed, the fuzzer's policy axis and the tournament harness.  Built-in
    policies load lazily on first use (avoiding import cycles); third-party
    policies join via :meth:`register` and are then accepted everywhere a
    policy name is -- and covered by the conformance suite for free.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, type[Scheduler]] = {}
        self._builtins_loaded = False

    # -- population -------------------------------------------------------------

    def _ensure_builtins(self) -> None:
        if self._builtins_loaded:
            return
        from repro.core.degraded_first import BasicDegradedFirstScheduler
        from repro.core.enhanced import EnhancedDegradedFirstScheduler
        from repro.core.extras import ABLATION_SCHEDULERS
        from repro.core.locality_first import LocalityFirstScheduler
        from repro.core.zoo import ZOO_SCHEDULERS

        for scheduler_cls in (
            LocalityFirstScheduler,
            BasicDegradedFirstScheduler,
            EnhancedDegradedFirstScheduler,
            *ABLATION_SCHEDULERS,
            *ZOO_SCHEDULERS,
        ):
            self._by_name.setdefault(scheduler_cls.name, scheduler_cls)
        self._builtins_loaded = True

    def register(self, scheduler_cls: type[Scheduler]) -> None:
        """Add a scheduler class under its ``name`` attribute.

        Rejects the abstract/empty name and name collisions with a
        different class; re-registering the same class is a no-op.
        """
        self._ensure_builtins()
        if not scheduler_cls.name or scheduler_cls.name == Scheduler.name:
            raise ValueError("custom schedulers must set a distinct `name` attribute")
        existing = self._by_name.get(scheduler_cls.name)
        if existing is not None and existing is not scheduler_cls:
            raise ValueError(f"scheduler name {scheduler_cls.name!r} is already taken")
        self._by_name[scheduler_cls.name] = scheduler_cls

    # -- lookup -----------------------------------------------------------------

    def names(self) -> list[str]:
        """Registered policy names, sorted."""
        self._ensure_builtins()
        return sorted(self._by_name)

    def resolve(self, name: str) -> str:
        """Canonical registered name for ``name``, matched case-insensitively.

        Raises ``ValueError`` for unknown names, listing the alternatives.
        """
        self._ensure_builtins()
        if name in self._by_name:
            return name
        folded = name.casefold()
        for registered in self._by_name:
            if registered.casefold() == folded:
                return registered
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(self._by_name)}"
        )

    def get(self, name: str) -> type[Scheduler]:
        """The scheduler class registered under ``name`` (exact match)."""
        self._ensure_builtins()
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(
                f"unknown scheduler {name!r}; choose from {sorted(self._by_name)}"
            ) from None

    def create(self, name: str, context: SchedulerContext) -> Scheduler:
        """Instantiate the policy registered under ``name``."""
        return self.get(name)(context)

    def describe(self, name: str) -> str:
        """One-line summary of a policy (first line of its class docstring)."""
        doc = self.get(name).__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""

    def catalog(self) -> list[tuple[str, str]]:
        """``(name, summary)`` pairs for every registered policy, sorted."""
        return [(name, self.describe(name)) for name in self.names()]


#: The process-wide policy registry.
POLICIES = PolicyRegistry()


def register_scheduler(scheduler_cls: type[Scheduler]) -> None:
    """Add a custom scheduler class to the registry under its ``name``.

    Once registered, the name is accepted anywhere a scheduler name is
    (``SimulationConfig.scheduler``, the testbed, the CLI) and the policy
    is automatically exercised by the conformance suite and tournament.
    """
    POLICIES.register(scheduler_cls)


def registered_schedulers() -> list[str]:
    """Names currently accepted by :func:`make_scheduler`."""
    return POLICIES.names()


def make_scheduler(name: str, context: SchedulerContext) -> Scheduler:
    """Instantiate a scheduler by registry name (``LF``, ``BDF``, ``EDF``, ...)."""
    return POLICIES.create(name, context)
