"""Unit tests for the crash-safe campaign engine.

Trial runners here are module-level (workers pickle them) and synthetic:
they return small JSON payloads, raise, kill their own worker, or hang on
deterministic schedules, so every fault path runs in milliseconds.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments.campaign import (
    CampaignEngine,
    CampaignInterrupted,
    CampaignPolicy,
    CampaignTrialError,
    Journal,
    JOURNAL_SCHEMA,
    journal_status,
    trial_spec_hash,
)
from repro.cluster.network import MB
from repro.ec.codec import CodeParams
from repro.experiments.cache import ResultCache
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.simulation import check_env, run_simulation


def configs_for(count: int) -> list[SimulationConfig]:
    return [SimulationConfig(seed=index) for index in range(count)]


def toy_runner(config: SimulationConfig) -> dict:
    return {"seed": config.seed, "square": config.seed * config.seed}


class ToyError(RuntimeError):
    pass


def failing_runner(config: SimulationConfig) -> dict:
    if config.seed == 1:
        raise ToyError(f"doomed trial {config.seed}")
    return toy_runner(config)


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def kill_runner(config: SimulationConfig) -> dict:
    if config.seed == 1 and _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return toy_runner(config)


def sleep_runner(config: SimulationConfig) -> dict:
    if config.seed == 1 and _in_worker():
        time.sleep(30.0)
    return toy_runner(config)


def simulated_runner(config: SimulationConfig) -> dict:
    """A real trial; checked whenever ``REPRO_CHECK`` asks for it."""
    return {"seed": config.seed, "makespan": run_simulation(config).job(0).runtime}


def tiny_configs(count: int) -> list[SimulationConfig]:
    base = SimulationConfig(
        num_nodes=6,
        num_racks=2,
        code=CodeParams(4, 2),
        block_size=16 * MB,
        jobs=(JobConfig(num_blocks=12, num_reduce_tasks=1),),
    )
    return [base.with_seed(seed) for seed in range(count)]


def fast_policy(**overrides) -> CampaignPolicy:
    merged = {"retries": 1, "backoff": 0.0, "workers": 2, "on_error": "collect"}
    merged.update(overrides)
    return CampaignPolicy(**merged)


class TestPolicyValidation:
    def test_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            CampaignPolicy(retries=-1)

    def test_zero_timeout(self):
        with pytest.raises(ValueError, match="trial_timeout"):
            CampaignPolicy(trial_timeout=0.0)

    def test_negative_backoff(self):
        with pytest.raises(ValueError, match="backoff"):
            CampaignPolicy(backoff=-0.1)

    def test_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            CampaignPolicy(workers=0)

    def test_bad_on_error(self):
        with pytest.raises(ValueError, match="on_error"):
            CampaignPolicy(on_error="ignore")


class TestSpecHash:
    def test_varies_with_config(self):
        assert trial_spec_hash(
            SimulationConfig(seed=0), toy_runner
        ) != trial_spec_hash(SimulationConfig(seed=1), toy_runner)

    def test_varies_with_runner(self):
        config = SimulationConfig(seed=0)
        assert trial_spec_hash(config, toy_runner) != trial_spec_hash(
            config, failing_runner
        )

    def test_stable(self):
        config = SimulationConfig(seed=0)
        assert trial_spec_hash(config, toy_runner) == trial_spec_hash(
            config, toy_runner
        )


class TestCheckModeBinding:
    """A sanitized campaign never replays payloads computed unchecked."""

    @pytest.fixture
    def monitors(self, monkeypatch):
        """Count the invariant monitors ``run_simulation`` builds."""
        from repro.check import invariants

        built = []

        class CountingMonitor(invariants.InvariantMonitor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.delenv("REPRO_CHECK", raising=False)
        monkeypatch.setattr(invariants, "InvariantMonitor", CountingMonitor)
        return built

    def test_unchecked_hash_is_pinned(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert trial_spec_hash(SimulationConfig(seed=0), toy_runner) == (
            "3b8faae41c24d5013d62480e50371e3538134c7f7b1909bd2f20939e66961d7a"
        )
        monkeypatch.setenv("REPRO_CHECK", "0")  # "0" means unchecked
        assert trial_spec_hash(SimulationConfig(seed=0), toy_runner) == (
            "3b8faae41c24d5013d62480e50371e3538134c7f7b1909bd2f20939e66961d7a"
        )

    def test_check_mode_changes_the_hash(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        unchecked = trial_spec_hash(SimulationConfig(seed=0), toy_runner)
        with check_env(True):
            assert trial_spec_hash(SimulationConfig(seed=0), toy_runner) != unchecked

    def test_checked_run_recomputes_an_unchecked_cache(self, tmp_path, monitors):
        cache = ResultCache(directory=str(tmp_path / "cache"), code_version="test")
        configs = tiny_configs(2)

        def run():
            return CampaignEngine(
                runner=simulated_runner, policy=fast_policy(workers=1), cache=cache
            ).run(configs)

        unchecked = run()
        assert (unchecked.counters.cached, len(monitors)) == (0, 0)
        with check_env(True):
            checked = run()
            assert (checked.counters.cached, len(monitors)) == (0, 2)
            again = run()
        assert (again.counters.cached, len(monitors)) == (2, 2)
        assert checked.results == unchecked.results == again.results

    def test_checked_resume_recomputes_an_unchecked_journal(self, tmp_path, monitors):
        journal = str(tmp_path / "journal.jsonl")
        configs = tiny_configs(2)

        def run():
            return CampaignEngine(
                runner=simulated_runner, policy=fast_policy(workers=1), journal_path=journal
            ).run(configs)

        unchecked = run()
        assert (unchecked.counters.replayed, len(monitors)) == (0, 0)
        with check_env(True):
            checked = run()
            assert (checked.counters.replayed, len(monitors)) == (0, 2)
            again = run()
        assert (again.counters.replayed, len(monitors)) == (2, 2)
        assert checked.results == unchecked.results == again.results


class TestExecution:
    def test_serial_matches_parallel(self):
        configs = configs_for(6)
        serial = CampaignEngine(
            runner=toy_runner, policy=fast_policy(workers=1)
        ).run(configs)
        parallel = CampaignEngine(
            runner=toy_runner, policy=fast_policy(workers=3)
        ).run(configs)
        assert serial.results == parallel.results
        assert serial.counters.done == parallel.counters.done == 6

    def test_collect_mode_failure_rows(self):
        configs = configs_for(5)
        outcome = CampaignEngine(
            runner=failing_runner, policy=fast_policy()
        ).run(configs)
        assert outcome.counters.submitted == 5
        assert outcome.counters.done == 4
        assert outcome.counters.failed == 1
        assert outcome.counters.consistent()
        [failure] = outcome.failures
        assert failure.index == 1
        assert failure.kind == "error"
        assert failure.status == "failed"
        assert failure.attempts == 2  # first try + one retry
        assert "doomed" in failure.message
        assert outcome.results[1] is None
        assert outcome.results[0] == {"seed": 0, "square": 0}

    def test_raise_mode_propagates_real_exception(self):
        with pytest.raises(ToyError, match="doomed"):
            CampaignEngine(
                runner=failing_runner,
                policy=fast_policy(on_error="raise", workers=2),
            ).run(configs_for(5))

    def test_raise_mode_serial_propagates(self):
        with pytest.raises(ToyError):
            CampaignEngine(
                runner=failing_runner,
                policy=fast_policy(on_error="raise", workers=1),
            ).run(configs_for(5))

    def test_killed_worker_quarantines_trial_not_batch(self):
        configs = configs_for(5)
        outcome = CampaignEngine(runner=kill_runner, policy=fast_policy()).run(
            configs
        )
        assert outcome.counters.done == 4
        assert outcome.counters.quarantined == 1
        assert outcome.counters.consistent()
        [failure] = outcome.failures
        assert failure.index == 1
        assert failure.kind == "worker-lost"
        assert failure.status == "quarantined"
        # Every other trial's payload survived the fleet churn.
        for index in (0, 2, 3, 4):
            assert outcome.results[index] == toy_runner(configs[index])

    def test_killed_worker_raise_mode_is_typed(self):
        with pytest.raises(CampaignTrialError, match="worker-lost"):
            CampaignEngine(
                runner=kill_runner, policy=fast_policy(on_error="raise")
            ).run(configs_for(5))

    def test_timeout_quarantines_hanging_trial(self):
        outcome = CampaignEngine(
            runner=sleep_runner,
            policy=fast_policy(retries=0, trial_timeout=0.5),
        ).run(configs_for(4))
        assert outcome.counters.done == 3
        assert outcome.counters.quarantined == 1
        assert outcome.counters.consistent()
        [failure] = outcome.failures
        assert failure.kind == "timeout"
        assert "trial-timeout" in failure.message

    def test_request_stop_interrupts_with_checkpoint(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        engine = CampaignEngine(
            runner=toy_runner,
            policy=fast_policy(workers=1),
            journal_path=journal,
            progress=lambda index, status, attempts: engine.request_stop(),
        )
        with pytest.raises(CampaignInterrupted) as info:
            engine.run(configs_for(6))
        assert info.value.remaining > 0
        assert info.value.counters.done >= 1
        # The finished trial is checkpointed; a resume completes the rest.
        resumed = CampaignEngine(
            runner=toy_runner, policy=fast_policy(workers=1), journal_path=journal
        ).run(configs_for(6))
        assert resumed.counters.done == 6
        assert resumed.counters.replayed >= 1
        assert resumed.results == [toy_runner(config) for config in configs_for(6)]


class TestJournal:
    def test_resume_skips_done_trials(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        configs = configs_for(4)
        first = CampaignEngine(
            runner=toy_runner, policy=fast_policy(), journal_path=journal
        ).run(configs)
        second = CampaignEngine(
            runner=toy_runner, policy=fast_policy(), journal_path=journal
        ).run(configs)
        assert second.counters.replayed == 4
        assert second.results == first.results

    def test_replayed_payloads_bit_identical(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        configs = configs_for(4)
        first = CampaignEngine(
            runner=toy_runner, policy=fast_policy(), journal_path=journal
        ).run(configs)
        second = CampaignEngine(
            runner=toy_runner, policy=fast_policy(), journal_path=journal
        ).run(configs)
        assert json.dumps(first.results, sort_keys=True) == json.dumps(
            second.results, sort_keys=True
        )

    def test_torn_final_line_is_skipped(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        CampaignEngine(
            runner=toy_runner, policy=fast_policy(), journal_path=journal
        ).run(configs_for(4))
        with open(journal, "a") as handle:
            handle.write('{"kind": "trial", "spec": "abc", "status": "done", ')
        state = Journal.load(journal)
        assert state.corrupt_lines == 1
        assert len(state.records) == 4

    def test_tampered_payload_is_skipped(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        CampaignEngine(
            runner=toy_runner, policy=fast_policy(), journal_path=journal
        ).run(configs_for(3))
        lines = open(journal).read().splitlines()
        record = json.loads(lines[1])
        record["payload"]["square"] = 999  # hash no longer matches
        lines[1] = json.dumps(record)
        with open(journal, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        state = Journal.load(journal)
        assert state.corrupt_lines == 1
        assert len(state.records) == 2
        # The tampered trial is simply recomputed on resume.
        resumed = CampaignEngine(
            runner=toy_runner, policy=fast_policy(), journal_path=journal
        ).run(configs_for(3))
        assert resumed.counters.replayed == 2
        assert resumed.counters.done == 3

    def test_header_binds_code_version(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        CampaignEngine(
            runner=toy_runner, policy=fast_policy(), journal_path=journal
        ).run(configs_for(3))
        header = json.loads(open(journal).read().splitlines()[0])
        assert header["schema"] == JOURNAL_SCHEMA
        # A journal from a different code version replays nothing.
        lines = open(journal).read().splitlines()
        header["code_version"] = "0.0.1"
        lines[0] = json.dumps(header)
        with open(journal, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        assert Journal.load(journal).records == {}

    def test_status_reports_another_versions_journal_as_stale(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        CampaignEngine(
            runner=toy_runner, policy=fast_policy(), journal_path=journal
        ).run(configs_for(2))
        assert journal_status(journal)["stale"] is False
        lines = open(journal).read().splitlines()
        header = json.loads(lines[0])
        header["code_version"] = "0.0.1"
        lines[0] = json.dumps(header)
        with open(journal, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        status = journal_status(journal)
        assert status["stale"] is True
        assert status["written_by"] == "0.0.1"
        assert status["stale_lines"] == 2
        assert (status["trials"], status["corrupt_lines"]) == (0, 0)

    def test_failures_are_journaled(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        CampaignEngine(
            runner=failing_runner, policy=fast_policy(), journal_path=journal
        ).run(configs_for(4))
        status = journal_status(journal)
        assert status["done"] == 3
        assert status["failed"] == 1
        assert status["trials"] == 4
        # Failed trials are re-attempted on resume, not replayed as done.
        resumed = CampaignEngine(
            runner=failing_runner, policy=fast_policy(), journal_path=journal
        ).run(configs_for(4))
        assert resumed.counters.replayed == 3
        assert resumed.counters.failed == 1
        assert resumed.counters.consistent()


class TestCacheIntegration:
    def test_second_campaign_hits_cache(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "cache"), code_version="test")
        configs = configs_for(4)
        first = CampaignEngine(runner=toy_runner, policy=fast_policy(), cache=cache).run(
            configs
        )
        second = CampaignEngine(
            runner=toy_runner, policy=fast_policy(), cache=cache
        ).run(configs)
        assert second.counters.cached == 4
        assert second.results == first.results

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "cache"), code_version="test")
        configs = configs_for(4)
        CampaignEngine(runner=toy_runner, policy=fast_policy(), cache=cache).run(
            configs
        )
        # Flip a byte in every stored entry.
        for root, _dirs, files in os.walk(cache.directory):
            for name in files:
                path = os.path.join(root, name)
                raw = bytearray(open(path, "rb").read())
                target = raw.find(b'"square"')
                raw[target + 1] = ord(b"x")
                open(path, "wb").write(bytes(raw))
        again = CampaignEngine(
            runner=toy_runner, policy=fast_policy(), cache=cache
        ).run(configs)
        assert again.counters.cached == 0
        assert again.counters.done == 4
        assert cache.stats.corrupt == 4
        assert again.results == [toy_runner(config) for config in configs]
