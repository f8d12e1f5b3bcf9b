"""Benchmark-suite configuration.

The benchmarks regenerate every table and figure of the paper.  By default
they run abbreviated sample counts (3 seeds / 2 testbed repetitions) so the
whole suite finishes in minutes on a laptop; set ``REPRO_SEEDS=30`` and
``REPRO_TESTBED_RUNS=5`` for the paper's full methodology.
"""

from __future__ import annotations

import os

os.environ.setdefault("REPRO_SEEDS", "3")
os.environ.setdefault("REPRO_TESTBED_RUNS", "2")


def one_shot(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
