"""Property suite: streamed appends are bit-identical to from-scratch runs.

The contract under test (DESIGN.md §11): take any generated table, any
partition of its rows into append batches, apply them in order through an
:class:`repro.incremental.IncrementalSession`, and the final run's
results, frequency sets, and counters are bit-identical to a from-scratch
run over the concatenated table — under every execution mode.

Hypothesis drives the generated-table half (serial and threads modes,
where per-example cost is small); fixed-seed parametrized cases cover the
process-pool (shards) mode.  ``incremental.*`` counters are additionally
asserted mode-independent: the plan (which nodes hit remembered prefixes,
how many rows each delta scan covers) is decided parent-side, so serial,
threads, and shards must account identically.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anonymity import compute_frequency_set
from repro.core.problem import PreparedTable
from repro.incremental import ALGORITHMS, IncrementalSession
from repro.parallel import ExecutionConfig, use_execution
from tests.conftest import make_random_problem

#: Counter families excluded when comparing against a from-scratch run:
#: wall-clock, ``incremental.*`` (a from-scratch run has no delta plans —
#: asserted mode-independent separately), and execution accounting
#: (``parallel.*``/``shard.*``/``worker.*`` describe how work was
#: dispatched, which legitimately differs across modes; the structural
#: search counters must not).
_EXECUTION_FAMILIES = ("parallel.", "shard.", "worker.", "incremental.")


def scratch_comparable(stats) -> dict:
    return {
        key: value
        for key, value in stats.counters.as_dict().items()
        if "seconds" not in key
        and not key.startswith(_EXECUTION_FAMILIES)
    }


def incremental_counters(stats) -> dict:
    return {
        key: value
        for key, value in stats.counters.as_dict().items()
        if key.startswith("incremental.")
    }


def split_rows(problem: PreparedTable, cuts: list[int]):
    """Partition the problem's rows at ``cuts`` into consecutive batches."""
    bounds = [0, *sorted(cuts), problem.num_rows]
    return [
        problem.table.take(np.arange(lo, hi))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def stream(problem, batches, k, algorithm, *, execution=None):
    """Run batches through a session; return (final result, session)."""
    qi = problem.quasi_identifier
    hierarchies = {name: problem.hierarchy(name).source for name in qi}
    session = IncrementalSession(
        PreparedTable(batches[0], hierarchies, qi), k, algorithm=algorithm
    )
    contexts = use_execution(execution) if execution is not None else None
    if contexts is not None:
        contexts.__enter__()
    try:
        result = session.run()
        for delta in batches[1:]:
            session.append(delta)
            result = session.run()
    finally:
        if contexts is not None:
            contexts.__exit__(None, None, None)
    return result, session


def from_scratch(session, k, algorithm, *, execution=None):
    """A from-scratch run over the session's concatenated table."""
    qi = session.dataset.quasi_identifier
    problem = PreparedTable(
        session.dataset.problem.table,
        {name: session.dataset.problem.hierarchy(name).source for name in qi},
        qi,
    )
    if execution is not None:
        with use_execution(execution):
            return ALGORITHMS[algorithm](problem, k), problem
    return ALGORITHMS[algorithm](problem, k), problem


def assert_equivalent(result, session, scratch, scratch_problem):
    assert result.anonymous_nodes == scratch.anonymous_nodes
    assert scratch_comparable(result.stats) == scratch_comparable(
        scratch.stats
    )
    # The remembered full-table pieces ARE the incremental run's frequency
    # sets; the scratch problem shares the concatenated table (hence every
    # dictionary and level code), so fresh GROUP BYs must reproduce them
    # byte-for-byte.
    checked = 0
    for piece in session.context.pieces():
        if piece.covered_rows != session.dataset.num_rows:
            continue
        fresh = compute_frequency_set(scratch_problem, piece.node)
        assert np.array_equal(piece.key_codes, fresh.key_codes)
        assert np.array_equal(piece.counts, fresh.counts)
        checked += 1
    assert checked > 0


@st.composite
def append_scenarios(draw):
    seed = draw(st.integers(0, 500))
    problem = make_random_problem(seed)
    cuts = draw(
        st.lists(st.integers(0, problem.num_rows), max_size=4)
    )
    algorithm = draw(st.sampled_from(sorted(ALGORITHMS)))
    mode = draw(st.sampled_from(["serial", "threads"]))
    return problem, cuts, algorithm, mode


class TestAppendProperty:
    @settings(max_examples=30)
    @given(append_scenarios())
    def test_any_partition_matches_from_scratch(self, scenario):
        problem, cuts, algorithm, mode = scenario
        batches = split_rows(problem, cuts)
        execution = (
            ExecutionConfig(mode="threads", workers=2)
            if mode == "threads"
            else None
        )
        result, session = stream(
            problem, batches, 2, algorithm, execution=execution
        )
        # Same-mode differential: parallel binary search speculatively
        # scans probe candidates, so its trajectory (and counters) are
        # only comparable against a from-scratch run under the *same*
        # execution mode.
        scratch, scratch_problem = from_scratch(
            session, 2, algorithm, execution=execution
        )
        assert_equivalent(result, session, scratch, scratch_problem)

    @settings(max_examples=15)
    @given(append_scenarios())
    def test_incremental_counters_are_integral(self, scenario):
        problem, cuts, algorithm, mode = scenario
        batches = split_rows(problem, cuts)
        result, _ = stream(problem, batches, 2, algorithm)
        for key, value in incremental_counters(result.stats).items():
            assert isinstance(value, int), key


class TestExecutionModes:
    """Fixed-seed coverage of every execution mode + mode independence."""

    MODES = {
        "serial": None,
        "threads": ExecutionConfig(mode="threads", workers=2),
        "shards": ExecutionConfig(mode="shards", workers=2, shard_rows=8),
    }

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_all_modes_agree(self, algorithm):
        problem = make_random_problem(11, num_rows=40, num_attributes=3)
        cuts = [13, 29]
        batches = split_rows(problem, cuts)

        outcomes = {}
        for mode, execution in self.MODES.items():
            result, session = stream(
                problem, batches, 2, algorithm, execution=execution
            )
            outcomes[mode] = (result, session)

        scratch, scratch_problem = from_scratch(
            outcomes["serial"][1], 2, algorithm
        )
        for mode, (result, session) in outcomes.items():
            if algorithm == "binary" and mode != "serial":
                # Parallel binary search speculatively scans probe
                # candidates, so its structural counters legitimately
                # differ from the serial trajectory; compare against a
                # from-scratch run under the same mode instead.
                assert result.anonymous_nodes == scratch.anonymous_nodes
                mode_scratch, mode_problem = from_scratch(
                    session, 2, algorithm, execution=self.MODES[mode]
                )
                assert_equivalent(result, session, mode_scratch, mode_problem)
                continue
            assert_equivalent(result, session, scratch, scratch_problem)

        # The delta plan is decided parent-side: every mode must account
        # the same incremental work.
        serial_counters = incremental_counters(outcomes["serial"][0].stats)
        assert serial_counters["incremental.delta_scans"] > 0
        for mode, (result, _) in outcomes.items():
            if algorithm == "binary" and mode != "serial":
                continue
            assert incremental_counters(result.stats) == serial_counters, mode

    def test_empty_deltas_are_versions_too(self):
        problem = make_random_problem(3, num_rows=24, num_attributes=3)
        # cuts at the edges produce empty first/last batches
        batches = split_rows(problem, [0, 10, 10, 24])
        assert sum(b.num_rows == 0 for b in batches) >= 2
        result, session = stream(problem, batches, 2, "basic")
        assert session.version == len(batches) - 1
        scratch, scratch_problem = from_scratch(session, 2, "basic")
        assert_equivalent(result, session, scratch, scratch_problem)
