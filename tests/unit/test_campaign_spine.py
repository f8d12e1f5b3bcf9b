"""The shared pieces every campaign-shaped report is built from.

``merge_trials`` (the grid-order fold), ``check_env`` (how ``--check``
reaches pool workers), the ``run_grid`` envelope and the shared text
clauses -- each pinned once here, for sweep, tournament and reliability
alike.
"""

from __future__ import annotations

import os

import pytest

from repro.ec import CodeParams
from repro.experiments import campaign
from repro.experiments.campaign import (
    CampaignPolicy,
    SweepSpec,
    failure_lines,
    merge_trials,
    render_sweep_report,
    run_sweep,
)
from repro.experiments.tournament import (
    TournamentSpec,
    render_leaderboard,
    run_tournament,
)
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.simulation import check_env
from repro.obs.digest import LatencyDigest


def _payload(*samples: float, refused: bool = False) -> dict:
    if refused:
        return {"refused": True, "jobs": None, "digests": None}
    digest = LatencyDigest()
    for sample in samples:
        digest.add(sample)
    return {
        "refused": False,
        "jobs": {"submitted": 2, "completed": 1, "failed": 1},
        "digests": {
            name: digest.to_dict() for name in ("degraded_read", "sojourn", "makespan")
        },
    }


class TestMergeTrials:
    def test_a_missing_payload_is_a_trial_but_not_done(self):
        row, _merged = merge_trials([None, _payload(1.0)])
        assert (row["trials"], row["done"], row["refused"]) == (2, 1, 0)
        assert row["jobs"] == {"submitted": 2, "completed": 1, "failed": 1}

    def test_a_refused_payload_is_done_and_contributes_nothing(self):
        alone, _ = merge_trials([_payload(1.0)])
        row, merged = merge_trials([_payload(refused=True), _payload(1.0)])
        assert (row["trials"], row["done"], row["refused"]) == (2, 2, 1)
        assert row["jobs"] == alone["jobs"]
        assert row["telemetry"] == alone["telemetry"]
        assert merged["makespan"].count == 1

    def test_window_payloads_without_a_refused_key_merge(self):
        payload = _payload(2.0)
        del payload["refused"]  # reliability windows carry no such key
        row, _ = merge_trials([payload])
        assert (row["done"], row["refused"]) == (1, 0)

    def test_no_payloads_give_an_empty_row(self):
        row, merged = merge_trials([])
        assert row["trials"] == 0
        assert row["makespan_seconds"]["count"] == 0
        assert merged["sojourn"].mean is None

    def test_shared_columns_come_from_the_merged_digests(self):
        row, merged = merge_trials([_payload(1.0, 3.0), _payload(2.0)])
        assert row["makespan_seconds"] == merged["makespan"].percentiles()
        assert row["degraded_read_seconds"] == merged["degraded_read"].percentiles()
        assert row["telemetry"]["sojourn"] == merged["sojourn"].to_dict()
        assert merged["makespan"].count == 3

    def test_payload_order_is_part_of_the_contract(self):
        """``total`` is a float sum: (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1.
        This is why every caller folds in grid order."""
        payloads = [_payload(0.1), _payload(0.2), _payload(0.3)]
        forward, _ = merge_trials(payloads)
        backward, _ = merge_trials(reversed(payloads))
        assert (
            forward["telemetry"]["makespan"]["total"]
            != backward["telemetry"]["makespan"]["total"]
        )
        assert forward["makespan_seconds"] == backward["makespan_seconds"]


class TestCheckEnv:
    def test_sets_the_variable_only_when_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        with check_env(False):
            assert "REPRO_CHECK" not in os.environ
        with check_env(True):
            assert os.environ["REPRO_CHECK"] == "1"

    def test_removes_it_when_it_was_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        with check_env(True):
            pass
        assert "REPRO_CHECK" not in os.environ

    def test_restores_a_pre_existing_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "0")
        with check_env(True):
            assert os.environ["REPRO_CHECK"] == "1"
        assert os.environ["REPRO_CHECK"] == "0"

    def test_restores_on_exception(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        with pytest.raises(RuntimeError):
            with check_env(True):
                raise RuntimeError("trial blew up")
        assert "REPRO_CHECK" not in os.environ

    def test_disabled_leaves_a_pre_set_value_alone(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "yes")
        with check_env(False):
            assert os.environ["REPRO_CHECK"] == "yes"
        assert os.environ["REPRO_CHECK"] == "yes"


_SMALL = SimulationConfig(
    num_nodes=12, num_racks=3, code=CodeParams(6, 4), jobs=(JobConfig(num_blocks=48),)
)


class TestRunGridEnvelope:
    def test_sweep_and_tournament_account_a_failed_trial_identically(
        self, monkeypatch
    ):
        real_trial = campaign.sweep_trial

        def one_trial_explodes(config):
            if (config.scheduler, config.seed) == ("EDF", 1):
                raise RuntimeError("trial exploded")
            return real_trial(config)

        monkeypatch.setattr(campaign, "sweep_trial", one_trial_explodes)
        policy = CampaignPolicy(retries=0, workers=1, on_error="collect")
        # Both grids are seed-major then policy: the same four trials.
        sweep, sweep_outcome = run_sweep(
            SweepSpec(base=_SMALL, schedulers=("LF", "EDF"), seeds=(0, 1)), policy
        )
        tournament, tournament_outcome = run_tournament(
            TournamentSpec(
                scenarios=(("small", _SMALL),), policies=("LF", "EDF"), seeds=(0, 1)
            ),
            policy,
        )
        assert sweep["accounting"] == tournament["accounting"] == {
            "submitted": 4, "done": 3, "failed": 1, "quarantined": 0,
        }
        assert sweep["failures"] == tournament["failures"]
        assert [failure["index"] for failure in sweep["failures"]] == [3]
        assert sweep_outcome.counters.consistent()
        assert tournament_outcome.counters.consistent()
        # The failed trial is a trial of its row, not a done one.
        for rows in (sweep["schedulers"], tournament["policies"]):
            assert (rows["EDF"]["trials"], rows["EDF"]["done"]) == (2, 1)
            assert (rows["LF"]["trials"], rows["LF"]["done"]) == (2, 2)
        assert sweep["schedulers"]["EDF"]["telemetry"] == (
            tournament["policies"]["EDF"]["telemetry"]
        )


class TestSharedTextClauses:
    def test_sweep_and_tournament_render_the_same_failure_lines(self):
        row, _ = merge_trials([None])
        failures = [
            {
                "index": 7, "spec": "", "kind": "timeout", "status": "quarantined",
                "attempts": 3, "message": "trial exceeded --trial-timeout 1s",
            },
            {
                "index": 9, "spec": "", "kind": "error", "status": "failed",
                "attempts": 1, "message": "RuntimeError('boom')",
            },
        ]
        accounting = {"submitted": 2, "done": 0, "failed": 1, "quarantined": 1}
        sweep = {"accounting": accounting, "failures": failures, "schedulers": {"LF": row}}
        tournament = {
            "accounting": accounting,
            "failures": failures,
            "tournament": {"scenarios": [{}], "seeds": [0]},
            "policies": {"LF": row},
            "leaderboard": [],
        }
        expected = failure_lines(sweep)
        assert expected == [
            "  FAILED trial 7 [timeout] after 3 attempt(s): "
            "trial exceeded --trial-timeout 1s",
            "  FAILED trial 9 [error] after 1 attempt(s): RuntimeError('boom')",
        ]
        assert render_sweep_report(sweep).splitlines()[-2:] == expected
        assert render_leaderboard(tournament).splitlines()[-2:] == expected
        assert "degraded reads: none observed" in render_sweep_report(sweep)
