"""Stochastic failure models: generators of long-horizon churn.

:class:`~repro.faults.schedule.FailureSchedule` is plain data -- a scripted
timeline.  This module is where such timelines come *from* when the goal is
reliability engineering rather than figure replay: each model draws node
lifetimes, repair times, correlated outage episodes, or latent sector errors
from **named** :class:`~repro.sim.rng.RngStreams` substreams and emits an
ordinary schedule.  Because every draw is tied to a labeled stream (never to
draw order), generation is deterministic for a ``(model, seed)`` pair and
resumable: regenerating the same model twice yields byte-identical event
streams, which :func:`repro.check.check_generator_determinism` asserts.

The family:

* :class:`ExponentialLifetimes` -- the classical Markovian availability
  model: per-node i.i.d. exponential time-to-failure and time-to-repair,
  the assumption behind textbook MTTDL formulas.
* :class:`WeibullLifetimes` -- heavy/light-tailed lifetimes (disk-failure
  studies consistently reject the exponential; Weibull shape < 1 captures
  infant mortality, > 1 wear-out).  Parameterised by *mean* lifetime plus
  shape so it stays comparable with the exponential model.
* :class:`CorrelatedBursts` -- GFS-style availability episodes: outage
  *events* arrive as a Poisson process and each takes down a batch of
  nodes (often rack-confined) within a short window, the pattern Ford et
  al. observed to dominate real data-loss risk.
* :class:`LatentSectorErrors` -- silent per-block corruption surfacing as
  :class:`~repro.faults.schedule.CorruptEvent`; discovered lazily by
  readers or proactively by the scrubber.
* :class:`CompositeModel` -- overlays models over *disjoint* concerns
  (e.g. lifetimes + sector errors); the merged stream is checked for
  per-node fail/recover alternation so conflicting overlays fail loudly.

Every model describes itself through ``to_dict()`` with a ``kind`` tag (the
reliability report's ``config`` block), and the tag names the model's RNG
substream (``model:{kind}``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

from repro.cluster.topology import ClusterTopology
from repro.faults.schedule import (
    CorruptEvent,
    FailEvent,
    FailureSchedule,
    FaultEvent,
    RecoverEvent,
)
from repro.sim.rng import RngStreams

#: Time-unit constants for readable model configuration.
HOUR = 3600.0
DAY = 24.0 * HOUR
YEAR = 365.0 * DAY


@dataclass(frozen=True)
class FailureModel:
    """Base class: a deterministic ``(topology, rng, horizon) -> schedule`` map."""

    kind: ClassVar[str] = ""

    def generate(
        self, topology: ClusterTopology, rng: RngStreams, horizon: float
    ) -> FailureSchedule:
        """Emit every event with ``at < horizon`` (plus matching recoveries).

        Recoveries of failures that happen inside the horizon are kept even
        when they land beyond it, so per-node fail/recover alternation is
        preserved and :func:`slice_window` sees a consistent tail state.
        """
        raise NotImplementedError

    def to_dict(self) -> dict:
        """The model's parameters, tagged with its ``kind``."""
        return {"kind": self.kind, **asdict(self)}

    def _streams(self, rng: RngStreams) -> RngStreams:
        """The model's own substream namespace under the trial RNG."""
        return rng.spawn(f"model:{self.kind}")


def _alternating_lifetimes(
    node_stream, node_id: int, horizon: float, draw_up, draw_down
) -> list[FaultEvent]:
    """One node's renewal process: up ``draw_up()``, down ``draw_down()``, repeat."""
    events: list[FaultEvent] = []
    at = draw_up(node_stream)
    while at < horizon:
        events.append(FailEvent(at=at, node=node_id))
        recover_at = at + max(draw_down(node_stream), 1e-9)
        events.append(RecoverEvent(at=recover_at, node=node_id))
        at = recover_at + draw_up(node_stream)
    return events


@dataclass(frozen=True)
class ExponentialLifetimes(FailureModel):
    """I.i.d. exponential node lifetimes and repair times (the Markov model)."""

    kind: ClassVar[str] = "exponential"

    mttf: float = 30.0 * DAY
    mttr: float = 2.0 * HOUR

    def __post_init__(self) -> None:
        if self.mttf <= 0 or self.mttr <= 0:
            raise ValueError(f"mttf and mttr must be positive, got {self}")

    def generate(
        self, topology: ClusterTopology, rng: RngStreams, horizon: float
    ) -> FailureSchedule:
        streams = self._streams(rng)
        events: list[FaultEvent] = []
        for node_id in sorted(topology.node_ids()):
            node_stream = streams.stream(f"node:{node_id}")
            events.extend(
                _alternating_lifetimes(
                    node_stream,
                    node_id,
                    horizon,
                    lambda s: s.expovariate(1.0 / self.mttf),
                    lambda s: s.expovariate(1.0 / self.mttr),
                )
            )
        return FailureSchedule(tuple(events))


@dataclass(frozen=True)
class WeibullLifetimes(FailureModel):
    """Weibull node lifetimes (shape < 1: infant mortality; > 1: wear-out).

    ``mttf`` / ``mttr`` are *means*; the Weibull scale is derived as
    ``mean / gamma(1 + 1/shape)`` so the model is directly comparable with
    :class:`ExponentialLifetimes` (shape 1 *is* the exponential).
    """

    kind: ClassVar[str] = "weibull"

    mttf: float = 30.0 * DAY
    shape: float = 0.7
    mttr: float = 2.0 * HOUR
    repair_shape: float = 1.0

    def __post_init__(self) -> None:
        if self.mttf <= 0 or self.mttr <= 0:
            raise ValueError(f"mttf and mttr must be positive, got {self}")
        if self.shape <= 0 or self.repair_shape <= 0:
            raise ValueError(f"Weibull shapes must be positive, got {self}")

    def generate(
        self, topology: ClusterTopology, rng: RngStreams, horizon: float
    ) -> FailureSchedule:
        life_scale = self.mttf / math.gamma(1.0 + 1.0 / self.shape)
        repair_scale = self.mttr / math.gamma(1.0 + 1.0 / self.repair_shape)
        streams = self._streams(rng)
        events: list[FaultEvent] = []
        for node_id in sorted(topology.node_ids()):
            node_stream = streams.stream(f"node:{node_id}")
            events.extend(
                _alternating_lifetimes(
                    node_stream,
                    node_id,
                    horizon,
                    lambda s: s.weibullvariate(life_scale, self.shape),
                    lambda s: s.weibullvariate(repair_scale, self.repair_shape),
                )
            )
        return FailureSchedule(tuple(events))


@dataclass(frozen=True)
class CorrelatedBursts(FailureModel):
    """GFS-style correlated availability episodes.

    Outage *episodes* arrive as a Poisson process with mean spacing
    ``mtbe``.  Each episode takes down a geometric-sized batch of currently
    up nodes (mean ``burst_size_mean``) within ``spread`` seconds; with
    probability ``rack_bias`` the victims are confined to one rack (the
    shared switch / PDU / rolling-reboot case), otherwise they are spread
    cluster-wide.  Victims recover independently after exponential
    ``mttr``.  Nodes already down (or already doomed by an overlapping
    episode) are never double-failed, so per-node alternation holds by
    construction.
    """

    kind: ClassVar[str] = "bursts"

    mtbe: float = 7.0 * DAY
    burst_size_mean: float = 3.0
    rack_bias: float = 0.7
    mttr: float = 4.0 * HOUR
    spread: float = 60.0

    def __post_init__(self) -> None:
        if self.mtbe <= 0 or self.mttr <= 0 or self.spread <= 0:
            raise ValueError(f"mtbe, mttr, and spread must be positive, got {self}")
        if self.burst_size_mean < 1.0:
            raise ValueError(
                f"burst_size_mean must be at least 1, got {self.burst_size_mean}"
            )
        if not 0.0 <= self.rack_bias <= 1.0:
            raise ValueError(f"rack_bias must be in [0, 1], got {self.rack_bias}")

    def generate(
        self, topology: ClusterTopology, rng: RngStreams, horizon: float
    ) -> FailureSchedule:
        streams = self._streams(rng)
        episode_stream = streams.stream("episodes")
        rack_ids = sorted(rack.rack_id for rack in topology.racks)
        all_nodes = sorted(topology.node_ids())
        # Probability an episode claims one more victim (geometric, mean
        # burst_size_mean); zero when every burst is a single node.
        p_more = 1.0 - 1.0 / self.burst_size_mean
        events: list[FaultEvent] = []
        down_until: dict[int, float] = {}
        at = episode_stream.expovariate(1.0 / self.mtbe)
        index = 0
        while at < horizon:
            episode = streams.stream(f"episode:{index}")
            if episode.random() < self.rack_bias:
                rack = rack_ids[episode.randrange(len(rack_ids))]
                pool = sorted(topology.nodes_in_rack(rack))
            else:
                pool = all_nodes
            candidates = [n for n in pool if down_until.get(n, 0.0) <= at]
            size = 1
            while size < len(candidates) and episode.random() < p_more:
                size += 1
            for victim in episode.sample(candidates, min(size, len(candidates))):
                failed_at = at + episode.uniform(0.0, self.spread)
                recover_at = failed_at + max(
                    episode.expovariate(1.0 / self.mttr), 1e-9
                )
                events.append(FailEvent(at=failed_at, node=victim))
                events.append(RecoverEvent(at=recover_at, node=victim))
                down_until[victim] = recover_at
            at += episode_stream.expovariate(1.0 / self.mtbe)
            index += 1
        return FailureSchedule(tuple(events))


@dataclass(frozen=True)
class LatentSectorErrors(FailureModel):
    """Silent per-block corruption arriving as a Poisson process.

    Each stored block independently goes checksum-bad with mean time
    ``block_mtbc``; the aggregate is a Poisson stream of rate
    ``num_blocks / block_mtbc`` whose arrivals pick a uniform
    ``(stripe, position)``.  The file shape (``num_stripes`` stripes of
    ``stripe_width`` blocks) is part of the model so its serialised form is
    self-contained.
    """

    kind: ClassVar[str] = "lse"

    num_stripes: int = 1
    stripe_width: int = 1
    block_mtbc: float = 2.0 * YEAR

    def __post_init__(self) -> None:
        if self.num_stripes <= 0 or self.stripe_width <= 0:
            raise ValueError(f"file shape must be positive, got {self}")
        if self.block_mtbc <= 0:
            raise ValueError(f"block_mtbc must be positive, got {self.block_mtbc}")

    def generate(
        self, topology: ClusterTopology, rng: RngStreams, horizon: float
    ) -> FailureSchedule:
        del topology  # corruption targets blocks, not nodes
        streams = self._streams(rng)
        arrivals = streams.stream("arrivals")
        mean_gap = self.block_mtbc / (self.num_stripes * self.stripe_width)
        events: list[FaultEvent] = []
        at = arrivals.expovariate(1.0 / mean_gap)
        while at < horizon:
            events.append(
                CorruptEvent(
                    at=at,
                    stripe=arrivals.randrange(self.num_stripes),
                    position=arrivals.randrange(self.stripe_width),
                )
            )
            at += arrivals.expovariate(1.0 / mean_gap)
        return FailureSchedule(tuple(events))


@dataclass(frozen=True)
class CompositeModel(FailureModel):
    """Overlay of models covering *disjoint* concerns (lifetimes + LSE + ...).

    Each part draws from its own ``part:{i}`` substream so identical model
    kinds do not alias.  The merged stream must keep per-node fail/recover
    alternation -- overlaying two node-lifetime models over the same nodes
    is a configuration error and raises via :func:`check_alternation`.
    """

    kind: ClassVar[str] = "composite"

    models: tuple[FailureModel, ...] = ()

    def generate(
        self, topology: ClusterTopology, rng: RngStreams, horizon: float
    ) -> FailureSchedule:
        streams = self._streams(rng)
        events: list[FaultEvent] = []
        for index, model in enumerate(self.models):
            part = model.generate(topology, streams.spawn(f"part:{index}"), horizon)
            events.extend(part.events)
        merged = FailureSchedule(tuple(events))
        check_alternation(merged, topology)
        return merged

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "models": [model.to_dict() for model in self.models],
        }


def check_alternation(schedule: FailureSchedule, topology: ClusterTopology) -> None:
    """Raise if any node fails while down or the schedule double-recovers it.

    Generators guarantee this by construction; the check exists for merged
    (composite) and trace-loaded schedules, where it is easy to violate.
    """
    down: set[int] = set()
    for index, event in enumerate(schedule.events):
        if isinstance(event, FailEvent):
            for node in schedule.fail_targets(event, topology):
                if node in down:
                    raise ValueError(
                        f"events[{index}] fails node {node} at t={event.at} "
                        "while it is already down (overlapping failure models?)"
                    )
                down.add(node)
        elif isinstance(event, RecoverEvent):
            down.discard(event.node)


def slice_window(
    schedule: FailureSchedule,
    topology: ClusterTopology,
    start: float,
    duration: float,
) -> FailureSchedule:
    """Extract ``[start, start + duration)`` as a standalone schedule.

    Nodes that are down when the window opens become ``t == 0`` fail events
    (the simulator's down-before-start convention); their recoveries -- and
    every event strictly inside the window -- are shifted by ``-start``.
    Recoveries landing past the window end are dropped (the node simply
    stays down for the whole window).
    """
    down_at_start: set[int] = set()
    for event in schedule.events:
        if event.at > start:
            break
        if isinstance(event, FailEvent):
            down_at_start.update(schedule.fail_targets(event, topology))
        elif isinstance(event, RecoverEvent):
            down_at_start.discard(event.node)
    events: list[FaultEvent] = [
        FailEvent(at=0.0, node=node) for node in sorted(down_at_start)
    ]
    carried = set(down_at_start)  # awaiting their first in-window recovery
    for event in schedule.events:
        if event.at <= start:
            continue
        offset = event.at - start
        if isinstance(event, RecoverEvent) and event.node in carried:
            carried.remove(event.node)
            if offset < duration:
                events.append(RecoverEvent(at=offset, node=event.node))
            continue
        if offset >= duration:
            continue
        events.append(type(event)(**{**asdict(event), "at": offset}))
    return FailureSchedule(tuple(events))
