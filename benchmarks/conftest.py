"""Benchmark-suite configuration.

Each bench regenerates one of the paper's tables/figures through the
experiment registry, times it with pytest-benchmark, and asserts the
paper's shape claims on the result.  Device families are pre-warmed
once so individual benches time their own figure assembly, not the
shared optimiser runs.
"""

from __future__ import annotations

import pytest

from repro.experiments.families import sub_vth_family, super_vth_family


@pytest.fixture(scope="session", autouse=True)
def warm_families():
    """Build (and cache) both device families once per session."""
    super_vth_family()
    sub_vth_family()


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` under pytest-benchmark with a single round.

    Experiments are deterministic and moderately expensive; one round
    per bench keeps the suite fast while still recording wall time.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


#: Rounds of :func:`run_rounds`: enough for a median and an IQR.
ROUNDS = 5


def run_rounds(benchmark, func, *args, **kwargs):
    """Run ``func`` under pytest-benchmark for :data:`ROUNDS` rounds.

    For benches whose before/after comparison matters: one round
    cannot tell a change from noise, five give a median and an IQR.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=ROUNDS, iterations=1, warmup_rounds=1)
