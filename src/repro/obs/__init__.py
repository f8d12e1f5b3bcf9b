"""Simulator-wide observability: events, analytics, digests, dashboards.

Opt-in instrumentation for the whole simulator, plus the read side that
turns a finished run back into answers.  Create an
:class:`ObservabilityCollector`, pass it to
``run_simulation(config, observer=collector)``, and read the structured
event log, scheduler decision trace, utilization metrics, and profiling
figures afterwards::

    from repro import SimulationConfig, run_simulation
    from repro.obs import ObservabilityCollector, analyze_run

    collector = ObservabilityCollector()
    result = run_simulation(SimulationConfig(scheduler="EDF"), observer=collector)
    print(collector.render_utilization_report())
    print(analyze_run(result).summary_paragraph())

Instrumentation is zero-overhead when off and provably passive when on:
the collector never schedules simulator callbacks and never draws
randomness, so ``result`` is bit-identical either way.  The analysis
layer (:mod:`repro.obs.analyze`, :mod:`repro.obs.digest`,
:mod:`repro.obs.report`) is purely post-hoc -- it consumes results and
exported event logs, never the live engine.
"""

from repro.obs.analyze import (
    RUN_SUMMARY_SCHEMA,
    RunAnalysis,
    Timeline,
    analyze_run,
    analyze_timeline,
    critical_path,
    decision_audit,
    map_time_breakdown,
)
from repro.obs.collector import ObservabilityCollector
from repro.obs.digest import LatencyDigest, digest_result
from repro.obs.events import WILDCARD, EventBus, ObsEvent
from repro.obs.export import (
    REPAIR_PID,
    chrome_trace,
    chrome_trace_json,
    events_jsonl,
    load_events_jsonl,
    read_events_jsonl,
    sanitize,
    write_text,
)
from repro.obs.metrics import MetricsRegistry, TimeWeightedSeries
from repro.obs.profile import Profiler
from repro.obs.report import (
    CAMPAIGN_SCHEMA,
    TOURNAMENT_SCHEMA,
    campaign_report_html,
    diff_reports,
    has_regression,
    render_diff_text,
    report_html,
    run_report_html,
    tournament_report_html,
)

__all__ = [
    "CAMPAIGN_SCHEMA",
    "EventBus",
    "LatencyDigest",
    "MetricsRegistry",
    "ObsEvent",
    "ObservabilityCollector",
    "Profiler",
    "REPAIR_PID",
    "RUN_SUMMARY_SCHEMA",
    "RunAnalysis",
    "TOURNAMENT_SCHEMA",
    "TimeWeightedSeries",
    "Timeline",
    "WILDCARD",
    "analyze_run",
    "analyze_timeline",
    "campaign_report_html",
    "chrome_trace",
    "chrome_trace_json",
    "critical_path",
    "decision_audit",
    "diff_reports",
    "digest_result",
    "events_jsonl",
    "has_regression",
    "load_events_jsonl",
    "map_time_breakdown",
    "read_events_jsonl",
    "render_diff_text",
    "report_html",
    "run_report_html",
    "sanitize",
    "tournament_report_html",
    "write_text",
]
