"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig5", "fig7", "fig8", "fig9", "table1"):
            assert name in out


class TestRun:
    def test_run_fig3(self, capsys):
        assert main(["run", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "40 s" in out and "30 s" in out

    def test_run_fig5(self, capsys):
        assert main(["run", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5(a)" in out

    def test_run_unknown(self):
        with pytest.raises(ValueError):
            main(["run", "fig99"])


class TestSimulate:
    def test_small_simulation(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes", "8", "--racks", "2", "--code", "4,2",
                "--blocks", "48", "--scheduler", "LF", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime:" in out
        assert "degraded tasks:" in out

    def test_bad_code_argument(self, capsys):
        assert main(["simulate", "--code", "oops"]) == 2

    def test_timeline_flag(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes", "6", "--racks", "2", "--code", "4,2",
                "--blocks", "24", "--seed", "2", "--timeline",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline [" in out
        assert "node " in out

    def test_json_export(self, capsys, tmp_path):
        target = tmp_path / "trace.json"
        code = main(
            [
                "simulate",
                "--nodes", "6", "--racks", "2", "--code", "4,2",
                "--blocks", "24", "--seed", "2", "--json", str(target),
            ]
        )
        assert code == 0
        import json

        payload = json.loads(target.read_text())
        assert payload["scheduler"] == "EDF"
        assert len(payload["tasks"]) > 0

    def test_failure_time_flag(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes", "6", "--racks", "2", "--code", "4,2",
                "--blocks", "24", "--seed", "2", "--failure-time", "1e9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded tasks: 0" in out  # strike after completion

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


_SMALL = [
    "simulate",
    "--nodes", "6", "--racks", "2", "--code", "4,2",
    "--blocks", "24", "--seed", "2",
]


class TestObservabilityExports:
    def test_scheduler_flag_is_case_insensitive(self, capsys):
        assert main(_SMALL + ["--scheduler", "edf"]) == 0
        assert "scheduler: EDF" in capsys.readouterr().out

    def test_events_export(self, capsys, tmp_path):
        import json

        target = tmp_path / "events.jsonl"
        assert main(_SMALL + ["--events", str(target)]) == 0
        lines = target.read_text().strip().split("\n")
        kinds = {json.loads(line)["kind"] for line in lines}
        assert {"job.submit", "heartbeat", "sched.decision", "task.launch",
                "task.finish", "job.finish"} <= kinds

    def test_chrome_trace_export(self, capsys, tmp_path):
        import json

        target = tmp_path / "trace.json"
        assert main(_SMALL + ["--chrome-trace", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert any(event["ph"] == "X" for event in payload["traceEvents"])

    def test_utilization_report_to_stdout(self, capsys):
        assert main(_SMALL + ["--utilization-report", "-"]) == 0
        out = capsys.readouterr().out
        assert "map slots" in out
        assert "links" in out

    def test_exports_create_parent_directories(self, capsys, tmp_path):
        target = tmp_path / "deep" / "nested" / "events.jsonl"
        assert main(_SMALL + ["--events", str(target)]) == 0
        assert target.exists()

    def test_json_export_creates_parent_directories(self, capsys, tmp_path):
        target = tmp_path / "deep" / "trace.json"
        assert main(_SMALL + ["--json", str(target)]) == 0
        assert target.exists()

    def test_unwritable_path_exits_2_without_traceback(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "sub" / "events.jsonl"  # parent is a regular file
        assert main(_SMALL + ["--events", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestRepairAndExitCodes:
    """The documented exit-code contract: 0 ok / 1 job failed / 2 bad usage."""

    def test_repair_flags_accepted_and_reported(self, capsys):
        code = main(
            _SMALL
            + [
                "--failure", "single-node",
                "--repair-bandwidth-mbps", "500",
                "--repair-concurrent", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repairs:" in out
        assert "reclassified" in out

    def test_data_unavailable_exits_1(self, capsys, tmp_path):
        # (3,2) tolerates one failure; two overlapping ones doom a stripe.
        trace = tmp_path / "double.json"
        trace.write_text(
            '{"events": [{"kind": "fail", "at": 20.0, "node": 0},'
            ' {"kind": "fail", "at": 26.0, "node": 2}]}'
        )
        code = main(
            [
                "simulate",
                "--nodes", "6", "--racks", "3", "--code", "3,2",
                "--blocks", "48", "--seed", "3",
                "--heartbeat-expiry", "9",
                "--failure-trace", str(trace),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "job failed" in captured.err
        # The partial result's summary still printed.
        assert "runtime:" in captured.out

    def test_wait_for_repair_completes_after_recovery(self, capsys, tmp_path):
        trace = tmp_path / "double_recover.json"
        trace.write_text(
            '{"events": [{"kind": "fail", "at": 20.0, "node": 0},'
            ' {"kind": "fail", "at": 26.0, "node": 2},'
            ' {"kind": "recover", "at": 120.0, "node": 2}]}'
        )
        code = main(
            [
                "simulate",
                "--nodes", "6", "--racks", "3", "--code", "3,2",
                "--blocks", "48", "--seed", "3",
                "--heartbeat-expiry", "9",
                "--failure-trace", str(trace),
                "--wait-for-repair",
            ]
        )
        assert code == 0

    def test_corruption_trace_reported(self, capsys, tmp_path):
        trace = tmp_path / "corrupt.json"
        trace.write_text(
            '{"events": [{"kind": "corrupt", "at": 1.0,'
            ' "stripe": 2, "position": 3}]}'
        )
        code = main(
            _SMALL
            + [
                "--failure-trace", str(trace),
                "--repair-bandwidth-mbps", "500",
                "--scrub-interval", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "found corrupt" in out

    def test_scrub_without_repair_exits_2(self, capsys):
        assert main(_SMALL + ["--scrub-interval", "5"]) == 2
        assert "needs --repair-bandwidth-mbps" in capsys.readouterr().err

    def test_bad_repair_options_exit_2(self, capsys):
        code = main(
            _SMALL
            + ["--repair-bandwidth-mbps", "500", "--repair-concurrent", "0"]
        )
        assert code == 2
        assert "bad repair options" in capsys.readouterr().err


class TestCheckMode:
    """``--check`` and the sanitizer's exit code 3."""

    def test_simulate_check_clean_run_exits_0(self, capsys):
        assert main(_SMALL + ["--check"]) == 0
        assert "runtime:" in capsys.readouterr().out

    def test_simulate_check_composes_with_exports(self, capsys, tmp_path):
        target = tmp_path / "events.jsonl"
        code = main(_SMALL + ["--check", "--events", str(target)])
        assert code == 0
        assert target.exists()

    # 48 blocks keep the degraded backlog long enough that pacing actually
    # forbids a launch, which the forced break then takes anyway.
    _BDF_BROKEN = [
        "simulate",
        "--nodes", "6", "--racks", "2", "--code", "4,2",
        "--blocks", "48", "--seed", "2", "--scheduler", "BDF",
    ]

    def test_simulate_check_violation_exits_3(self, capsys, monkeypatch):
        from repro.core import degraded_first

        monkeypatch.setattr(degraded_first, "pacing_allows_degraded", lambda job: True)
        code = main(self._BDF_BROKEN + ["--check"])
        assert code == 3
        err = capsys.readouterr().err
        assert "bdf-pacing" in err
        assert "sanitizer" in err

    def test_violation_without_check_goes_unnoticed(self, capsys, monkeypatch):
        # The mutation only trips the sanitizer; an unchecked run completes.
        from repro.core import degraded_first

        monkeypatch.setattr(degraded_first, "pacing_allows_degraded", lambda job: True)
        assert main(self._BDF_BROKEN) == 0


class TestFuzz:
    def test_clean_fuzz_exits_0(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        code = main(
            ["fuzz", "--trials", "2", "--seed", "0", "--corpus", str(corpus)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzzed 2 scenario(s) (seed 0)" in out
        assert not list(corpus.glob("*.json")) if corpus.exists() else True

    def test_fuzz_report_export(self, capsys, tmp_path):
        import json

        report = tmp_path / "fuzz.json"
        code = main(["fuzz", "--trials", "1", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["trials"] == 1
        assert "outcomes" in payload and "findings" in payload

    def test_fuzz_finding_exits_3_and_saves_repro(self, capsys, tmp_path, monkeypatch):
        from repro.core import degraded_first

        monkeypatch.setattr(degraded_first, "pacing_allows_degraded", lambda job: True)
        corpus = tmp_path / "corpus"
        # Pin the policy axis to BDF: the forced pacing break lives in the
        # BDF assign path, and the default per-scenario draw from the full
        # registry may not sample it within a handful of trials.
        code = main(
            ["fuzz", "--trials", "10", "--seed", "0", "--schedulers", "bdf",
             "--corpus", str(corpus)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "bdf-pacing" in err
        saved = list(corpus.glob("repro-*.json"))
        assert saved, "findings must be saved into the corpus directory"
        assert any("bdf-pacing" in path.name for path in saved)

    def test_schedulers_flag_pins_the_policy_axis(self, capsys, tmp_path):
        import json

        report = tmp_path / "fuzz.json"
        code = main(
            ["fuzz", "--trials", "2", "--schedulers", "LF,edf",
             "--report", str(report)]
        )
        assert code == 0
        assert json.loads(report.read_text())["schedulers"] == ["LF", "EDF"]

    def test_unknown_schedulers_flag_exits_2(self, capsys):
        assert main(["fuzz", "--trials", "1", "--schedulers", "NOPE"]) == 2
        assert "NOPE" in capsys.readouterr().err

    def test_bad_trials_exits_2(self, capsys):
        assert main(["fuzz", "--trials", "0"]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_unwritable_report_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "sub" / "fuzz.json"
        assert main(["fuzz", "--trials", "1", "--report", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestPoliciesCommand:
    def test_list_shows_every_registered_policy(self, capsys):
        from repro.core.scheduler import registered_schedulers

        assert main(["policies", "list"]) == 0
        out = capsys.readouterr().out
        for name in registered_schedulers():
            assert name in out
        # One line per policy, each carrying a one-line summary.
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == len(registered_schedulers())

    def test_simulate_accepts_policy_alias(self, capsys):
        code = main(
            [
                "simulate",
                "--nodes", "8", "--racks", "2", "--code", "4,2",
                "--blocks", "24", "--policy", "steal", "--seed", "1",
            ]
        )
        assert code == 0
        assert "scheduler: STEAL" in capsys.readouterr().out

    def test_simulate_unknown_policy_exits_2(self, capsys):
        assert main(["simulate", "--policy", "NOT-A-POLICY"]) == 2
        err = capsys.readouterr().err
        assert "NOT-A-POLICY" in err and "choose from" in err


class TestTournament:
    def test_smoke_run_writes_ranked_report(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "tournament.json"
        code = main(
            [
                "tournament",
                "--nodes", "12", "--racks", "3", "--code", "6,4",
                "--blocks", "48", "--seeds", "1",
                "--policies", "LF,edf",
                "--workers", "2",
                "--json", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== tournament ==" in out
        assert "2 policies x 5 scenario(s) x 1 seed(s)" in out
        payload = json.loads(report_path.read_text())
        assert payload["schema"] == "repro.tournament-report/v1"
        assert payload["tournament"]["policies"] == ["LF", "EDF"]
        assert payload["accounting"]["submitted"] == 10
        assert payload["accounting"]["failed"] == 0
        assert [entry["rank"] for entry in payload["leaderboard"]] == [1, 2]

    def test_unknown_policy_exits_2(self, capsys):
        assert main(["tournament", "--policies", "LF,NOPE"]) == 2
        assert "NOPE" in capsys.readouterr().err

    def test_bad_code_exits_2(self, capsys):
        assert main(["tournament", "--code", "oops"]) == 2
        assert "--code" in capsys.readouterr().err
