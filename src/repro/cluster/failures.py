"""Failure injection: which nodes are dead when the job runs.

The paper evaluates a single-node failure (the common case, Sections IV and
VI), double-node failures and a whole-rack failure (Figure 7(d)).  A
:class:`FailureInjector` turns a :class:`FailurePattern` plus a random
stream into the concrete set of failed node ids for one trial.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cluster.topology import ClusterTopology
from repro.sim.rng import RngStreams


class FailurePattern(enum.Enum):
    """The failure scenarios evaluated in the paper."""

    NONE = "none"
    SINGLE_NODE = "single-node"
    DOUBLE_NODE = "double-node"
    RACK = "rack"


@dataclass(frozen=True)
class FailureInjector:
    """Chooses failed nodes for a trial.

    Parameters
    ----------
    pattern:
        Which failure scenario to inject.
    """

    pattern: FailurePattern

    def choose_failed_nodes(
        self,
        topology: ClusterTopology,
        rng: RngStreams,
        eligible: list[int] | None = None,
    ) -> frozenset[int]:
        """Return the node ids that are down for this trial.

        ``eligible`` restricts the candidate set (the extreme-case experiment
        fails one of the *normal* nodes only); it is ignored for rack
        failures, which take out a whole random rack.
        """
        candidates = sorted(eligible) if eligible is not None else sorted(topology.node_ids())
        if self.pattern is FailurePattern.NONE:
            return frozenset()
        if self.pattern is FailurePattern.SINGLE_NODE:
            if not candidates:
                raise ValueError("no eligible nodes to fail")
            return frozenset(rng.sample("failures", candidates, 1))
        if self.pattern is FailurePattern.DOUBLE_NODE:
            if len(candidates) < 2:
                raise ValueError("need at least two eligible nodes for a double failure")
            return frozenset(rng.sample("failures", candidates, 2))
        if self.pattern is FailurePattern.RACK:
            rack_ids = [rack.rack_id for rack in topology.racks]
            rack_id = rng.choice("failures", rack_ids)
            return frozenset(topology.nodes_in_rack(rack_id))
        raise AssertionError(f"unhandled pattern {self.pattern}")
