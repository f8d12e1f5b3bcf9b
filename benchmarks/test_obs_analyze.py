"""Benchmark: post-hoc analyzer wall-clock on a fig-7-style failure run.

The analysis pipeline is pure read-side code, so its cost rides on top of
every campaign that wants telemetry; this times it under pytest-benchmark.
The simulation itself runs outside the timer -- only analysis is measured.
"""

from __future__ import annotations

from repro.cluster.failures import FailurePattern
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.simulation import run_simulation
from repro.obs import ObservabilityCollector, analyze_run, report_html
from repro.obs.analyze import Timeline

CONFIG = SimulationConfig(
    scheduler="EDF",
    failure=FailurePattern.SINGLE_NODE,
    jobs=(JobConfig(num_blocks=400, num_reduce_tasks=8),),
    seed=7,
)


def _analyze_pipeline(result, decisions):
    timeline = Timeline.from_result(result)
    timeline.decisions = decisions
    analysis = analyze_run(timeline)
    payload = analysis.to_dict()
    report_html(payload)
    return analysis


def test_analyze_failure_run(benchmark):
    collector = ObservabilityCollector()
    result = run_simulation(CONFIG, observer=collector)
    decisions = [decision.to_dict() for decision in collector.decisions]
    analysis = benchmark(_analyze_pipeline, result, decisions)
    assert analysis.chain
    assert analysis.breakdown["degraded"]["tasks"] > 0
    assert analysis.audit is not None and analysis.audit["assignments"] > 0
