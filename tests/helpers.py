"""Shared test helpers that process pools must be able to pickle."""

from __future__ import annotations


def traced_decisions(config) -> list[dict]:
    """Run one trial and return its decision trace as plain dicts.

    Module-level so :func:`repro.experiments.common.run_many` can pickle
    it; the golden serial-vs-parallel decision-trace test is built on it.
    """
    return traced_trial(config)[0]


def traced_trial(config):
    """Run one trial: ``(decision dicts, result, engine events dispatched)``."""
    from repro.mapreduce.simulation import run_simulation
    from repro.obs.collector import ObservabilityCollector

    collector = ObservabilityCollector(keep_events=False)
    result = run_simulation(config, observer=collector)
    decisions = [decision.to_dict() for decision in collector.decisions]
    return decisions, result, collector.profiler.events_dispatched
