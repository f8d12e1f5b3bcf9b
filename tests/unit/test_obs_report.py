"""Unit tests for regression diffing and HTML dashboards (repro.obs.report)."""

import pytest

from repro.obs.analyze import RUN_SUMMARY_SCHEMA
from repro.obs.digest import LatencyDigest
from repro.obs.report import (
    CAMPAIGN_SCHEMA,
    campaign_report_html,
    diff_reports,
    has_regression,
    render_diff_text,
    report_html,
    run_report_html,
)


def _digest_payload(samples):
    digest = LatencyDigest()
    for sample in samples:
        digest.add(sample)
    return digest.to_dict()


def make_run_summary(makespan=100.0, degraded_read=20.0, degraded_tasks=4,
                     degraded_samples=(4.0, 5.0, 6.0, 5.0)):
    return {
        "schema": RUN_SUMMARY_SCHEMA,
        "scheduler": "EDF",
        "seed": 0,
        "failed_nodes": [3],
        "makespan_s": makespan,
        "tasks": 40,
        "jobs": {"0": {"submit": 0.0, "first_launch": 0.0, "finish": makespan,
                       "queue_wait_s": 0.0, "runtime_s": makespan}},
        "breakdown": {
            "node-local": {"tasks": 30, "read_s": 0.0, "compute_s": 300.0,
                           "total_s": 300.0, "mean_s": 10.0},
            "degraded": {"tasks": degraded_tasks, "read_s": degraded_read,
                         "compute_s": 40.0, "total_s": degraded_read + 40.0,
                         "mean_s": 15.0},
        },
        "critical_path": {
            "steps": [{"job": 0, "kind": "map", "category": "degraded",
                       "node": 3, "launch": 0.0, "finish": 15.0,
                       "read_s": 5.0, "compute_s": 10.0, "edge": "submit"}],
            "coverage": 0.6,
        },
        "audit": {
            "scheduler": "EDF", "decisions": 40, "assignments": 34,
            "assigned": {"node-local": 30, "rack-local": 0, "remote": 0,
                         "degraded": 4},
            "skipped": {"slave-guard": 6},
            "guard": {"admitted": 4, "slave_rejected": 6, "rack_rejected": 0},
            "pacing_deferrals": 0,
            "locality_rate": 30 / 34, "degraded_rate": 4 / 34,
        },
        "digests": {"degraded_read": _digest_payload(degraded_samples)},
        "event_counts": {"task.finish": 40},
    }


def make_campaign_report(durability=0.999, p99=30.0, completed=50):
    return {
        "schema": CAMPAIGN_SCHEMA,
        "config": {
            "model": {"kind": "exponential"},
            "arrivals": {"kind": "poisson"},
            "horizon": 631152.0, "iterations": 1, "seed": 7,
            "cluster": {"num_nodes": 12, "code": [6, 4], "num_stripes": 16},
        },
        "availability": {
            "durability": durability, "mttdl": None, "mttdl_lower_bound": 1e9,
            "censored": True, "loss_events": 0, "blocks_repaired": 17,
            "backlog": {"peak": 9, "bounded": True, "drained": True},
        },
        "policies": {
            "EDF": {
                "degraded_read_seconds": {"count": 20, "p50": 10.0,
                                          "p95": 25.0, "p99": p99},
                "jobs": {"submitted": 60, "completed": completed, "failed": 0},
                "sojourn": {"mean": 200.0},
                "stability": "stable",
                "data_loss_windows": 0,
                "telemetry": {
                    "degraded_read": _digest_payload([10.0, 25.0, 30.0]),
                    "sojourn": _digest_payload([180.0, 220.0]),
                    "makespan": _digest_payload([150.0, 170.0]),
                },
            },
        },
        "windows": [{"start": 0.0, "duration": 1200.0, "events": 3, "jobs": 30}],
    }


class TestDiffRuns:
    def test_identical_documents_are_all_ok(self):
        summary = make_run_summary()
        rows = diff_reports(summary, summary)
        assert rows
        assert all(row["status"] == "ok" for row in rows)
        assert not has_regression(rows)

    def test_makespan_regression_past_threshold(self):
        rows = diff_reports(make_run_summary(), make_run_summary(makespan=115.0))
        by_name = {row["metric"]: row for row in rows}
        assert by_name["makespan_s"]["status"] == "regression"
        assert by_name["makespan_s"]["change"] == pytest.approx(0.15)
        assert by_name["makespan_s"]["delta"] == pytest.approx(15.0)
        assert has_regression(rows)

    def test_improvement_is_not_a_regression(self):
        rows = diff_reports(make_run_summary(), make_run_summary(makespan=80.0))
        by_name = {row["metric"]: row for row in rows}
        assert by_name["makespan_s"]["status"] == "improved"
        assert not has_regression(rows)

    def test_within_threshold_is_ok(self):
        rows = diff_reports(make_run_summary(), make_run_summary(makespan=105.0))
        by_name = {row["metric"]: row for row in rows}
        assert by_name["makespan_s"]["status"] == "ok"

    def test_per_metric_override_tightens_the_gate(self):
        baseline = make_run_summary()
        candidate = make_run_summary(makespan=105.0)
        rows = diff_reports(baseline, candidate, overrides={"makespan_s": 0.02})
        by_name = {row["metric"]: row for row in rows}
        assert by_name["makespan_s"]["status"] == "regression"
        assert by_name["makespan_s"]["threshold"] == 0.02

    def test_missing_tail_metrics_are_not_applicable(self):
        bare = make_run_summary(degraded_samples=())
        rows = diff_reports(bare, bare)
        by_name = {row["metric"]: row for row in rows}
        assert by_name["degraded_p50_s"]["status"] == "n/a"
        assert by_name["degraded_p99_s"]["status"] == "n/a"
        assert not has_regression(rows)

    def test_zero_baseline_growth_is_a_regression(self):
        baseline = make_run_summary(degraded_read=0.0)
        candidate = make_run_summary(degraded_read=8.0)
        rows = diff_reports(baseline, candidate)
        by_name = {row["metric"]: row for row in rows}
        assert by_name["degraded_read_s"]["status"] == "regression"
        assert by_name["degraded_read_s"]["change"] is None

    def test_schema_mismatch_refuses_to_diff(self):
        with pytest.raises(ValueError, match="different schemas"):
            diff_reports(make_run_summary(), make_campaign_report())

    def test_unknown_schema_refuses_to_diff(self):
        bogus = {"schema": "nope/v0"}
        with pytest.raises(ValueError, match="unrecognised"):
            diff_reports(bogus, bogus)


class TestDiffCampaigns:
    def test_durability_is_higher_is_better(self):
        rows = diff_reports(
            make_campaign_report(durability=0.999),
            make_campaign_report(durability=0.80),
        )
        by_name = {row["metric"]: row for row in rows}
        assert by_name["durability"]["direction"] == "higher"
        assert by_name["durability"]["status"] == "regression"

    def test_completed_jobs_dropping_regresses(self):
        rows = diff_reports(
            make_campaign_report(completed=50), make_campaign_report(completed=30)
        )
        by_name = {row["metric"]: row for row in rows}
        assert by_name["EDF:jobs_completed"]["status"] == "regression"

    def test_p99_improvement_reads_as_improved(self):
        rows = diff_reports(
            make_campaign_report(p99=30.0), make_campaign_report(p99=20.0)
        )
        by_name = {row["metric"]: row for row in rows}
        assert by_name["EDF:degraded_p99_s"]["status"] == "improved"


class TestDiffSweeps:
    """``repro.campaign-report/v1`` is diffable like its two siblings."""

    @staticmethod
    def golden_sweep():
        import json
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "golden", "reports", "sweep.json"
        )
        with open(path) as handle:
            return json.load(handle), path

    def test_identical_sweep_documents_are_all_ok(self, capsys):
        from repro.cli import main

        report, path = self.golden_sweep()
        rows = diff_reports(report, report)
        assert {row["metric"] for row in rows} == {
            f"{scheduler}:{metric}"
            for scheduler in ("LF", "BDF", "EDF")
            for metric in (
                "makespan_p50_s", "degraded_p50_s", "degraded_p99_s", "jobs_completed",
            )
        }
        assert all(row["status"] == "ok" for row in rows)
        by_name = {row["metric"]: row for row in rows}
        assert by_name["LF:jobs_completed"]["direction"] == "higher"
        assert by_name["LF:degraded_p99_s"]["direction"] == "lower"
        assert main(["obs", "diff", path, path]) == 0
        assert "within thresholds" in capsys.readouterr().out

    def test_degraded_p99_regression_exits_4(self, tmp_path, capsys):
        import json

        from repro.cli import main

        report, path = self.golden_sweep()
        report["schedulers"]["EDF"]["degraded_read_seconds"]["p99"] *= 1.5
        candidate = tmp_path / "slower.json"
        candidate.write_text(json.dumps(report))
        assert main(["obs", "diff", path, str(candidate)]) == 4
        out = capsys.readouterr().out
        assert "EDF:degraded_p99_s" in out and "1 regression(s)" in out


class TestRenderDiffText:
    def test_table_lists_every_metric_and_the_verdict(self):
        rows = diff_reports(make_run_summary(), make_run_summary(makespan=115.0))
        text = render_diff_text(rows)
        assert "makespan_s" in text
        assert "regression" in text
        assert f"{len(rows)} metric(s), 1 regression(s)" in text

    def test_clean_table_says_within_thresholds(self):
        summary = make_run_summary(degraded_samples=())
        text = render_diff_text(diff_reports(summary, summary))
        assert "0 regression(s); within thresholds" in text
        assert "n/a" in text  # empty degraded tails render as n/a rows


class TestRunReportHtml:
    def test_page_is_self_contained_and_structured(self):
        page = run_report_html(make_run_summary())
        assert page.startswith("<!doctype html>")
        # Self-contained: no external fetches of any kind.
        for needle in ("http://", "https://", "<script", "<link", "@import"):
            assert needle not in page
        assert "Makespan" in page
        assert "Critical path" in page
        assert "Task-time breakdown" in page
        assert "Scheduler decisions" in page
        assert "Latency digests" in page
        assert 'data-theme="dark"' in page  # dark scope present
        assert "prefers-color-scheme" in page
        assert "bar-seg last" in page  # rounded data-end on stacked bars

    def test_wrong_schema_is_rejected(self):
        with pytest.raises(ValueError, match="not a run summary"):
            run_report_html(make_campaign_report())

    def test_markup_is_escaped(self):
        summary = make_run_summary()
        summary["scheduler"] = "<EDF & friends>"
        page = run_report_html(summary)
        assert "<EDF & friends>" not in page
        assert "&lt;EDF &amp; friends&gt;" in page


class TestCampaignReportHtml:
    def test_page_carries_policy_and_telemetry_sections(self):
        page = campaign_report_html(make_campaign_report())
        assert "Reliability campaign" in page
        assert "Durability" in page
        assert "EDF digests" in page  # merged telemetry digest table
        assert "degraded_read" in page
        assert "UNBOUNDED" not in page
        assert "stable" in page

    def test_wrong_schema_is_rejected(self):
        with pytest.raises(ValueError, match="not a campaign report"):
            campaign_report_html(make_run_summary())


class TestReportDispatch:
    def test_dispatches_on_schema(self):
        assert "Run analysis" in report_html(make_run_summary())
        assert "Reliability campaign" in report_html(make_campaign_report())

    def test_unknown_schema_raises(self):
        with pytest.raises(ValueError, match="unrecognised"):
            report_html({"schema": "mystery/v9"})
