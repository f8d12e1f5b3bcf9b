"""How the simulated figures batch their trials, checked without simulating.

``run_many`` is replaced by a stand-in that records every batch it is
handed and answers each trial with a stub result, so these tests see the
exact grid each figure submits: one batch per sub-figure (one for all of
7(a)-(e) when they share it), the right
number of trials, and no trial a figure does not read.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cluster.failures import FailurePattern
from repro.experiments import campaign, common, fig7_simulation
from repro.experiments.common import NormalizationError
from repro.experiments.fig7_simulation import Fig7Data, run_fig7f
from repro.experiments.fig8_bdf_edf import Fig8Data

SEEDS = [0, 1]


def stub_result(runtime_of):
    """A result whose ``job(j)`` reports ``runtime_of(j)`` and fixed counters."""
    return SimpleNamespace(
        job=lambda job_id: SimpleNamespace(
            runtime=runtime_of(job_id),
            failed=False,
            stolen_task_count=1,
            mean_degraded_read_time=lambda: 1.0,
        )
    )


def healthy(config):
    """Normal-mode trials take 10 s per job, failure-mode trials 15 s."""
    runtime = 10.0 if config.failure is FailurePattern.NONE else 15.0
    return stub_result(lambda _job_id: runtime)


@pytest.fixture
def batches(monkeypatch):
    """Every batch handed to ``run_many``, answered by :func:`healthy`."""
    seen: list[list] = []

    def fake_run_many(configs, *args, **kwargs):
        seen.append(list(configs))
        return [healthy(config) for config in configs]

    monkeypatch.setattr(common, "run_many", fake_run_many)
    return seen


def test_run_grouped_is_one_batch_in_submission_order(monkeypatch):
    monkeypatch.setattr(common, "run_many", lambda configs: [config.seed for config in configs])
    base = fig7_simulation.default_config()
    pairs = [("a", base.with_seed(3)), ("b", base.with_seed(1)), ("a", base.with_seed(2))]
    assert common.run_grouped(iter(pairs)) == {"a": [3, 2], "b": [1]}


@pytest.mark.parametrize("sub", "abcde")
def test_fig7_sweep_is_one_batch(batches, sub):
    table = getattr(fig7_simulation, f"run_fig7{sub}")(seeds=SEEDS)
    assert len(batches) == 1
    # LF and EDF in failure mode plus one normal reference, per row per seed.
    assert len(batches[0]) == len(table.rows) * 3 * len(SEEDS)


def test_fig7_data_is_one_batch_over_every_sub_figure(batches):
    data = Fig7Data(seeds=SEEDS)
    rows = sum(len(configs) for configs in data.rows.values())
    assert rows == 4 + 4 + 3 + 3 + 4
    assert [len(batch) for batch in batches] == [rows * 3 * len(SEEDS)]
    for sub in "abcde":
        table = getattr(fig7_simulation, f"run_fig7{sub}")(data=data)
        assert list(table.rows) == list(data.rows[sub])
    assert len(batches) == 1  # the tables read the batch; they run nothing


def test_fig7_data_runs_each_distinct_trial_once(monkeypatch):
    """At the paper's 30 seeds, one batch runs 1 200 trials; five ran 1 560."""
    submitted: list[int] = []

    def fake_run(self, configs):
        submitted.append(len(configs))
        return SimpleNamespace(results=[healthy(config) for config in configs])

    monkeypatch.setattr(campaign.CampaignEngine, "run", fake_run)
    seeds = list(range(30))
    Fig7Data(seeds=seeds)
    assert submitted == [1200]
    submitted.clear()
    for sub in "abcde":
        getattr(fig7_simulation, f"run_fig7{sub}")(seeds=seeds)
    assert submitted == [360, 360, 270, 270 - 60, 360]
    assert sum(submitted) == 1560


def test_fig7f_is_one_batch_over_all_seeds(batches):
    table = run_fig7f(seeds=SEEDS)
    assert [len(batch) for batch in batches] == [3 * len(SEEDS)]
    assert table.rows["job 0"]["EDF"].median == pytest.approx(1.5)


def test_fig8_data_is_one_batch_without_normal_runs(batches):
    Fig8Data(SEEDS)
    assert [len(batch) for batch in batches] == [9 * len(SEEDS)]
    assert all(config.failure is not FailurePattern.NONE for config in batches[0])


def test_fig7f_rejects_unusable_reference(monkeypatch):
    """A zero normal-mode runtime is a NormalizationError naming job and seed."""

    def fake_run_many(configs, *args, **kwargs):
        results = []
        for config in configs:
            if config.failure is FailurePattern.NONE and config.seed == 5:
                results.append(stub_result(lambda job_id: 0.0 if job_id == 3 else 10.0))
            else:
                results.append(healthy(config))
        return results

    monkeypatch.setattr(common, "run_many", fake_run_many)
    with pytest.raises(NormalizationError, match="job 3 at seed 5"):
        run_fig7f(seeds=[4, 5])
