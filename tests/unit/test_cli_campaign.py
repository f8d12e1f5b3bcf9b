"""Unit tests for the ``repro campaign`` CLI family and its exit codes."""

from __future__ import annotations

import json

from repro.cli import main

QUICK = ["--schedulers", "LF", "--seeds", "1", "--blocks", "60", "--backoff", "0.0"]


class TestCampaignRun:
    def test_quick_sweep_exit_zero(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        code = main(["campaign", "run", *QUICK, "--report", report_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "== campaign ==" in out
        assert "1 submitted, 1 done" in out
        report = json.loads(open(report_path).read())
        assert report["schema"] == "repro.campaign-report/v1"
        assert report["accounting"]["submitted"] == 1
        assert report["schedulers"]["LF"]["done"] == 1

    def test_spec_file_round_trip(self, tmp_path, capsys):
        from repro.experiments.campaign import SweepSpec
        from repro.mapreduce.config import JobConfig, SimulationConfig

        spec = SweepSpec(
            base=SimulationConfig(jobs=(JobConfig(num_blocks=60),)),
            schedulers=("LF",),
            seeds=(0,),
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        code = main(["campaign", "run", "--spec", str(spec_path)])
        assert code == 0
        assert "== campaign ==" in capsys.readouterr().out

    def test_bad_spec_schema_exit_two(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"schema": "wrong/v1"}')
        assert main(["campaign", "run", "--spec", str(spec_path)]) == 2
        assert "bad campaign options" in capsys.readouterr().err

    def test_bad_retries_exit_two(self, capsys):
        assert main(["campaign", "run", *QUICK, "--retries", "-1"]) == 2
        assert "bad campaign options" in capsys.readouterr().err

    def test_empty_schedulers_exit_two(self, capsys):
        assert main(["campaign", "run", "--schedulers", ",", "--seeds", "1"]) == 2
        assert "bad campaign options" in capsys.readouterr().err

    def test_unknown_scheduler_exit_two(self, capsys):
        assert main(["campaign", "run", "--schedulers", "LF,foo", "--seeds", "1"]) == 2
        err = capsys.readouterr().err
        assert "bad campaign options: unknown scheduler 'foo'" in err
        assert "Traceback" not in err

    def test_scheduler_names_resolve_case_insensitively(self):
        from repro.experiments.campaign import SweepSpec

        assert SweepSpec(schedulers=("lf", "Edf")).schedulers == ("LF", "EDF")


class TestCampaignResume:
    def test_resume_without_journal_exit_two(self, capsys):
        assert main(["campaign", "resume", *QUICK]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_resume_missing_journal_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["campaign", "resume", *QUICK, "--journal", missing]) == 2
        assert "no journal" in capsys.readouterr().err

    def test_resume_replays_finished_sweep(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        assert main(["campaign", "run", *QUICK, "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["campaign", "resume", *QUICK, "--journal", journal]) == 0
        assert "1 submitted, 1 done" in capsys.readouterr().out


class TestCampaignStatus:
    def test_status_summarises_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        assert main(["campaign", "run", *QUICK, "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--journal", journal]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["trials"] == 1
        assert status["done"] == 1
        assert status["failed"] == 0
        assert status["corrupt_lines"] == 0

    def test_status_empty_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "absent.jsonl")
        assert main(["campaign", "status", "--journal", journal]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["trials"] == 0


class TestFuzzCampaignAxis:
    def test_campaign_fuzz_clean_exit_zero(self, capsys, tmp_path):
        code = main(
            [
                "fuzz",
                "--trials",
                "1",
                "--seed",
                "5",
                "--campaign",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign-fuzzed 2 batch(es)" in out
        assert "0 accounting violation(s)" in out


class TestExitCodesDocumented:
    def test_docstring_lists_exit_code_five(self):
        import repro.cli

        assert "``5``" in repro.cli.__doc__
        assert "checkpointed" in repro.cli.__doc__
