"""Chaos suite: full algorithms under injected faults (CI's chaos job).

Hypothesis generates random problems and runs Incognito on a fault-ridden
thread pool; a dedicated seed-listed case runs the acceptance plan —
``FaultPlan(crash_rate=0.2, timeout_rate=0.1, seed=7)`` — on a real
process pool (the shards backend).  In every case the anonymous node set and all
``frequency.*`` counters must be bit-identical to the serial no-fault
run: fault injection may cost retries and wall-clock, never answers.

Run with ``pytest -m chaos``; the CI job uses ``HYPOTHESIS_PROFILE=ci``
for derandomized, reproducible examples.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import basic_incognito, bottom_up_search
from repro.parallel import ExecutionConfig
from repro.resilience import FaultPlan
from tests.conftest import make_random_problem

pytestmark = pytest.mark.chaos

#: The ISSUE acceptance fault plan, verbatim.
ACCEPTANCE_PLAN = FaultPlan(crash_rate=0.2, timeout_rate=0.1, seed=7)


def frequency_counters(result) -> dict:
    return {
        key: value
        for key, value in result.stats.counters.as_dict().items()
        if key.startswith("frequency.")
    }


def chaotic_threads(seed: int) -> ExecutionConfig:
    """A two-worker thread pool with a mixed, seeded fault plan.

    Short stalls and near-zero backoff keep hypothesis examples fast while
    still driving every failure path (crash, timeout, poison).
    """
    return ExecutionConfig(
        mode="threads",
        workers=2,
        faults=FaultPlan(
            crash_rate=0.15,
            timeout_rate=0.1,
            poison_rate=0.1,
            seed=seed,
            hold_seconds=0.2,
        ),
        chunk_timeout=0.1,
        backoff_base=0.001,
        backoff_cap=0.01,
    )


@given(seed=st.integers(0, 2**20), k=st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_incognito_differential_under_faults(seed, k):
    problem = make_random_problem(seed)
    serial = basic_incognito(problem, k)
    chaotic = basic_incognito(problem, k, execution=chaotic_threads(seed))
    assert chaotic.anonymous_nodes == serial.anonymous_nodes
    assert frequency_counters(chaotic) == frequency_counters(serial)


@given(seed=st.integers(0, 2**20), k=st.integers(1, 6))
@settings(max_examples=10, deadline=None)
def test_bottom_up_differential_under_faults(seed, k):
    problem = make_random_problem(seed)
    serial = bottom_up_search(problem, k)
    chaotic = bottom_up_search(problem, k, execution=chaotic_threads(seed))
    assert chaotic.anonymous_nodes == serial.anonymous_nodes
    assert frequency_counters(chaotic) == frequency_counters(serial)


def test_acceptance_plan_on_process_pool():
    """The acceptance criterion's fixed-seed case on a real process pool
    (the shards backend, with shards small enough that scans fan out).

    Seed-listed rather than hypothesis-driven because a process pool per
    generated example would dominate the suite's runtime (the same
    trade-off ``tests/differential`` makes).
    """
    execution = ExecutionConfig(
        mode="shards",
        workers=2,
        shard_rows=8,
        faults=ACCEPTANCE_PLAN,
        chunk_timeout=0.25,
        backoff_base=0.001,
        backoff_cap=0.01,
    )
    injected_total = 0
    for seed in (3, 11, 42):
        problem = make_random_problem(seed, num_rows=30)
        for k in (2, 3):
            serial = basic_incognito(problem, k)
            chaotic = basic_incognito(problem, k, execution=execution)
            assert chaotic.anonymous_nodes == serial.anonymous_nodes, seed
            assert frequency_counters(chaotic) == frequency_counters(serial)
            injected_total += sum(
                value
                for key, value in chaotic.stats.counters.as_dict().items()
                if key.startswith("fault.injected.")
            )
    # The plan must have actually fired somewhere across the matrix —
    # otherwise this test silently degrades into the no-fault differential.
    assert injected_total > 0
