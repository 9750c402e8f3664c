"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables/figures via
``repro.harness`` and asserts its qualitative *shape* (who wins, by
roughly what factor).  Simulation runs are deterministic, so every
benchmark executes exactly once (``pedantic(rounds=1)``); the
pytest-benchmark timing column then reports how long regenerating that
artifact takes.

Run with:  pytest benchmarks/ --benchmark-only -s

Sweeps fan out over ``REPRO_JOBS`` worker processes when that variable
is set to an integer of at least 1 (e.g. ``REPRO_JOBS=4 pytest
benchmarks/``; any other value raises ``ValueError``): every experiment
and ablation callable (E1-E14, A1-A6) reads it, and results are
bit-identical to the serial run -- only the wall-clock changes.
"""

import math

import pytest


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
