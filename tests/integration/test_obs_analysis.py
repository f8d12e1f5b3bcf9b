"""Acceptance tests for the trace-analytics pipeline (repro.obs.analyze et al).

The ISSUE-7 contract, end to end, on a fig-7-style failure run:

* the critical path is emitted and the map-time breakdown's component
  sums reproduce the measured map times to float precision;
* digest aggregation is bit-identical between serial and process-pool
  campaigns (canonical trial-order merge);
* the scheduler decision trace is identical whether trials run serially
  or through the pool (golden equivalence);
* ``repro obs diff`` exits nonzero on an injected >=10% makespan
  regression;
* analysis is purely post-hoc: running it perturbs nothing;
* the Chrome trace carries the repair-driver lane and
  corruption/recovery instants alongside the task rows.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro import cli
from repro.cluster.network import MB, mbps
from repro.ec.codec import CodeParams
from repro.experiments.campaign import merge_trials, sweep_trial
from repro.experiments.common import run_many
from repro.faults.schedule import (
    CorruptEvent,
    FailEvent,
    FailureSchedule,
    RecoverEvent,
)
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.job import MapTaskCategory, TaskKind
from repro.mapreduce.simulation import run_simulation
from repro.mapreduce.trace import to_json
from repro.obs import (
    REPAIR_PID,
    ObservabilityCollector,
    Timeline,
    analyze_run,
    chrome_trace,
    events_jsonl,
    read_events_jsonl,
    sanitize,
)
from tests.helpers import traced_decisions
from repro.storage.repair_driver import RepairConfig


def _fig7_failure_config(seed: int = 7) -> SimulationConfig:
    """EDF trial with a mid-run node failure: the fig-7 acceptance run."""
    return SimulationConfig(
        scheduler="EDF",
        seed=seed,
        jobs=(JobConfig(num_blocks=400, num_reduce_tasks=8),),
        failure_schedule=FailureSchedule(events=(FailEvent(at=5.0, node=3),)),
        heartbeat_expiry=10.0,
    )


def _campaign_configs() -> list[SimulationConfig]:
    """Four cheap trials -- enough to force the process-pool path."""
    base = SimulationConfig(
        scheduler="EDF",
        num_nodes=12,
        num_racks=3,
        map_slots=2,
        reduce_slots=1,
        code=CodeParams(6, 4),
        block_size=64 * MB,
        rack_bandwidth=mbps(1000),
        jobs=(
            JobConfig(
                num_blocks=96,
                num_reduce_tasks=4,
                map_time_mean=10.0,
                map_time_std=0.5,
            ),
        ),
        failure_schedule=FailureSchedule(events=(FailEvent(at=5.0, node=2),)),
        heartbeat_expiry=9.0,
    )
    return [dataclasses.replace(base, seed=seed) for seed in range(4)]


@pytest.fixture(scope="module")
def analyzed_failure_run():
    config = _fig7_failure_config()
    collector = ObservabilityCollector()
    result = run_simulation(config, observer=collector)
    return config, result, collector, analyze_run(result)


class TestCriticalPath:
    def test_path_is_emitted_and_well_formed(self, analyzed_failure_run):
        _config, _result, _collector, analysis = analyzed_failure_run
        chain = analysis.chain
        assert chain, "a failure run must yield a non-empty critical path"
        assert chain[0].edge == "submit"
        assert all(
            step.edge in ("submit", "slot-wait", "shuffle-wait") for step in chain
        )
        finishes = [step.span.finish for step in chain]
        assert finishes == sorted(finishes)
        assert finishes[-1] == pytest.approx(analysis.timeline.end)
        coverage = analysis.to_dict()["critical_path"]["coverage"]
        assert 0.0 < coverage <= 1.0

    def test_failure_run_schedules_degraded_tasks(self, analyzed_failure_run):
        _config, _result, _collector, analysis = analyzed_failure_run
        assert analysis.breakdown["degraded"]["tasks"] > 0
        assert analysis.digests["degraded_read"].count > 0


class TestBreakdownAttribution:
    def test_components_sum_to_measured_map_times(self, analyzed_failure_run):
        """Table-1 identity: read + compute reproduces every measured time."""
        _config, result, _collector, analysis = analyzed_failure_run
        measured: dict[str, dict] = {}
        for job in result.jobs.values():
            for task in job.tasks:
                if not math.isfinite(task.finish_time):
                    continue
                if task.kind is TaskKind.REDUCE:
                    label = "reduce"
                else:
                    label = task.category.value if task.category else "node-local"
                row = measured.setdefault(label, {"tasks": 0, "total": 0.0, "read": 0.0})
                row["tasks"] += 1
                row["total"] += task.finish_time - task.launch_time
                row["read"] += task.download_time
        for label, expect in measured.items():
            row = analysis.breakdown[label]
            assert row["tasks"] == expect["tasks"]
            assert row["total_s"] == pytest.approx(expect["total"], rel=1e-12)
            assert row["read_s"] == pytest.approx(expect["read"], rel=1e-12)
            assert row["read_s"] + row["compute_s"] == pytest.approx(
                row["total_s"], rel=1e-12
            )
        # Categories with no measured tasks must report zero, not garbage.
        for label, row in analysis.breakdown.items():
            if label not in measured:
                assert row["tasks"] == 0

    def test_summary_paragraph_quotes_the_run(self, analyzed_failure_run):
        _config, result, _collector, analysis = analyzed_failure_run
        text = analysis.summary_paragraph()
        assert f"makespan {analysis.timeline.makespan:.1f} s" in text
        assert "degraded" in text


class TestEventLogRoundTrip:
    def test_timeline_from_events_matches_from_result(self, analyzed_failure_run):
        """The exported JSONL log carries the full timeline, losslessly."""
        _config, result, collector, _analysis = analyzed_failure_run
        events = read_events_jsonl(events_jsonl(collector.events))
        from_log = Timeline.from_events(events)
        from_result = Timeline.from_result(result)
        assert len(from_log.spans) == len(from_result.spans)
        assert from_log.makespan == pytest.approx(from_result.makespan)

        def key(span):
            return (
                span.job_id,
                span.kind,
                span.node,
                round(span.launch, 9),
                round(span.finish, 9),
                round(span.read, 9),
            )

        assert sorted(map(key, from_log.spans)) == sorted(map(key, from_result.spans))
        # The log-side analysis additionally carries the decision audit.
        audit = analyze_run(events).audit
        assert audit is not None
        assert audit["scheduler"] == "EDF"
        assert audit["assignments"] > 0


def _merged_digests(configs):
    """The surviving digest path: telemetry trials folded in grid order."""
    _row, merged = merge_trials(run_many(configs, runner=sweep_trial))
    return merged


class TestDigestBitIdentity:
    def test_serial_and_pool_aggregation_are_bit_identical(self, monkeypatch):
        configs = _campaign_configs()
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial = _merged_digests(configs)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        pooled = _merged_digests(configs)
        assert set(serial) == {"degraded_read", "sojourn", "makespan"}
        for name in serial:
            assert serial[name].to_dict() == pooled[name].to_dict(), name
        assert serial["degraded_read"].count > 0

    def test_digests_match_a_directly_folded_reference(self, monkeypatch):
        from repro.obs.digest import LatencyDigest, digest_result

        configs = _campaign_configs()
        monkeypatch.setenv("REPRO_WORKERS", "1")
        merged = _merged_digests(configs)
        reference: dict[str, LatencyDigest] = {}
        for result in run_many(configs):
            for name, digest in digest_result(result).items():
                if name in reference:
                    reference[name].merge(digest)
                else:
                    reference[name] = digest
        for name, digest in reference.items():
            assert merged[name].to_dict() == digest.to_dict(), name


class TestDecisionTraceGolden:
    def test_serial_and_pool_decision_traces_are_identical(self, monkeypatch):
        configs = _campaign_configs()
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial = run_many(configs, runner=traced_decisions)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        pooled = run_many(configs, runner=traced_decisions)
        assert serial == pooled
        assert all(trace for trace in serial)
        first = serial[0][0]
        assert first["kind"] == "sched.decision"
        assert first["scheduler"] == "EDF"


class TestDiffGate:
    def _write_summary(self, path, payload):
        path.write_text(json.dumps(sanitize(payload), allow_nan=False))

    def test_injected_makespan_regression_exits_nonzero(
        self, analyzed_failure_run, tmp_path, capsys
    ):
        _config, _result, _collector, analysis = analyzed_failure_run
        baseline = analysis.to_dict()
        regressed = dict(baseline, makespan_s=baseline["makespan_s"] * 1.12)
        base_file = tmp_path / "baseline.json"
        cand_file = tmp_path / "regressed.json"
        self._write_summary(base_file, baseline)
        self._write_summary(cand_file, regressed)
        code = cli.main(["obs", "diff", str(base_file), str(cand_file)])
        assert code == 4
        out = capsys.readouterr().out
        assert "makespan_s" in out
        assert "regression" in out

    def test_identical_documents_exit_zero(
        self, analyzed_failure_run, tmp_path, capsys
    ):
        _config, _result, _collector, analysis = analyzed_failure_run
        payload = analysis.to_dict()
        base_file = tmp_path / "a.json"
        cand_file = tmp_path / "b.json"
        self._write_summary(base_file, payload)
        self._write_summary(cand_file, payload)
        assert cli.main(["obs", "diff", str(base_file), str(cand_file)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_sub_threshold_drift_passes_until_overridden(
        self, analyzed_failure_run, tmp_path
    ):
        _config, _result, _collector, analysis = analyzed_failure_run
        baseline = analysis.to_dict()
        drifted = dict(baseline, makespan_s=baseline["makespan_s"] * 1.05)
        base_file = tmp_path / "base.json"
        cand_file = tmp_path / "drift.json"
        self._write_summary(base_file, baseline)
        self._write_summary(cand_file, drifted)
        assert cli.main(["obs", "diff", str(base_file), str(cand_file)]) == 0
        assert (
            cli.main(
                [
                    "obs",
                    "diff",
                    str(base_file),
                    str(cand_file),
                    "--metric-threshold",
                    "makespan_s=0.02",
                ]
            )
            == 4
        )


class TestZeroPerturbation:
    def test_analysis_is_purely_post_hoc(self):
        """Analyzing a result must not change it -- and an instrumented run
        analyzed end to end stays byte-identical to a bare one."""
        config = _fig7_failure_config(seed=11)
        bare = run_simulation(config)
        collector = ObservabilityCollector()
        instrumented = run_simulation(config, observer=collector)
        before = to_json(instrumented)
        analysis = analyze_run(instrumented)
        analysis.to_dict()
        analysis.render_text()
        analyze_run(read_events_jsonl(events_jsonl(collector.events)))
        assert to_json(instrumented) == before
        assert to_json(bare) == before


class TestChromeTraceFaultLanes:
    @pytest.fixture(scope="class")
    def fault_trace(self):
        config = SimulationConfig(
            num_nodes=12,
            num_racks=3,
            map_slots=2,
            reduce_slots=1,
            code=CodeParams(6, 4),
            block_size=64 * MB,
            rack_bandwidth=mbps(1000),
            jobs=(
                JobConfig(
                    num_blocks=96,
                    num_reduce_tasks=4,
                    submit_time=10.0,
                    map_time_mean=10.0,
                    map_time_std=0.5,
                ),
            ),
            failure_schedule=FailureSchedule(
                events=(
                    FailEvent(at=0.0, node=0),
                    CorruptEvent(at=2.0, stripe=0, position=0),
                    RecoverEvent(at=80.0, node=0),
                )
            ),
            heartbeat_expiry=9.0,
            repair=RepairConfig(bandwidth_cap=mbps(400)),
            seed=5,
        )
        result = run_simulation(config)
        return result, chrome_trace(result)

    def test_repair_driver_gets_its_own_labelled_lane(self, fault_trace):
        result, trace = fault_trace
        assert result.faults.repairs, "config must provoke repairs"
        events = trace["traceEvents"]
        rebuilds = [
            e for e in events if e.get("pid") == REPAIR_PID and e["ph"] == "X"
        ]
        assert len(rebuilds) == len(result.faults.repairs)
        assert all(e["cat"] == "repair" for e in rebuilds)
        labels = [
            e
            for e in events
            if e.get("pid") == REPAIR_PID and e["ph"] == "M"
        ]
        assert labels and labels[0]["args"]["name"] == "repair driver"

    def test_corruption_and_recovery_instants_are_drawn(self, fault_trace):
        result, trace = fault_trace
        assert result.faults.corruptions and result.faults.recoveries
        events = trace["traceEvents"]
        corrupt = [
            e for e in events if e["ph"] == "i" and e["name"].startswith("block corrupt")
        ]
        recovered = [
            e for e in events if e["ph"] == "i" and "recovered" in e["name"]
        ]
        assert len(corrupt) == len(result.faults.corruptions)
        assert len(recovered) == len(result.faults.recoveries)
        assert corrupt[0]["args"]["via"] in ("read", "scrub")

    def test_degraded_download_phases_are_drawn(self, analyzed_failure_run):
        _config, result, _collector, _analysis = analyzed_failure_run
        events = chrome_trace(result)["traceEvents"]
        degraded_downloads = [
            e
            for e in events
            if e["ph"] == "X"
            and e.get("cat") == "download"
            and e["args"].get("category") == MapTaskCategory.DEGRADED.value
        ]
        measured = sum(
            1
            for job in result.jobs.values()
            for task in job.tasks
            if task.kind is TaskKind.MAP
            and task.category is MapTaskCategory.DEGRADED
            and math.isfinite(task.finish_time)
            and task.download_time > 0
        )
        assert measured > 0
        assert len(degraded_downloads) == measured
