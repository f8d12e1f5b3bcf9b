"""Benchmark-suite configuration.

The benchmarks regenerate every table and figure of the paper.  By default
they run abbreviated sample counts (3 seeds / 2 testbed repetitions) so the
whole suite finishes in minutes on a laptop; set ``REPRO_SEEDS=30`` and
``REPRO_TESTBED_RUNS=5`` for the paper's full methodology.
"""

from __future__ import annotations

import operator
import os
import statistics

from repro.experiments.common import run_grouped

os.environ.setdefault("REPRO_SEEDS", "3")
os.environ.setdefault("REPRO_TESTBED_RUNS", "2")

_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def one_shot(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def mean_runtimes(pairs) -> dict:
    """Mean job-0 runtime per key over one batch of ``(key, config)`` pairs."""
    return {
        key: statistics.mean(result.job(0).runtime for result in results)
        for key, results in run_grouped(pairs).items()
    }


def check(label: str, value: float, op: str, threshold: float) -> None:
    """Print ``value`` beside the threshold it is held to, then assert ``value op threshold``.

    Printing every checked value (run pytest with ``-s``) shows how far a
    change moved each shape assertion, not only whether it still holds.
    """
    print(f"  check {label}: {value:.4f} {op} {threshold:.4f}")
    assert _COMPARISONS[op](value, threshold), f"{label}: {value!r} {op} {threshold!r} fails"
