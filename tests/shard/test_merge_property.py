"""Property test: ranged scans + merge == whole-table scan, always.

Every scan path — whole-table, chunked, shard, delta — is the row-range
kernel :func:`repro.core.anonymity.scan_rows` over some row ranges,
folded with :func:`repro.core.outofcore.merge_partials`.  Its correctness
rests on one algebraic fact — COUNT is distributive and the merge
re-groups by the same mixed-radix dense key a direct scan sorts by — so
for *any* table, *any* partition of the rows into ranges (empty ranges
included), *any* merge and fan-in fold order, and an optional remembered
base prefix, the merged result must be bit-identical to
:func:`compute_frequency_set`: same keys, same counts, same group order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anonymity import (
    FrequencyEvaluator,
    compute_frequency_set,
    node_radices,
    scan_rows,
)
from repro.core.outofcore import merge_partials
from repro.shard import plan_shards
from tests.conftest import make_random_problem


def folded_merge(pieces, radices, fan_in):
    """Fold ``(keys, counts)`` pieces like the chunked scan: every
    ``fan_in`` pending pieces collapse into one, then a final merge."""
    keys: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for piece_keys, piece_counts in pieces:
        keys.append(piece_keys)
        counts.append(piece_counts)
        if len(keys) >= fan_in:
            merged_keys, merged_counts = merge_partials(keys, counts, radices)
            keys, counts = [merged_keys], [merged_counts]
    return merge_partials(keys, counts, radices)


@settings(max_examples=40)
@given(seed=st.integers(0, 60), data=st.data())
def test_shard_merge_equals_whole_scan(seed, data):
    problem = make_random_problem(seed)
    num_rows = problem.table.num_rows
    # An optional remembered base prefix covers rows [0, start); the rest
    # is cut anywhere — repeated cut points make empty ranges, which must
    # be neutral elements of the merge.
    base_rows = data.draw(
        st.none() | st.integers(0, num_rows), label="base prefix rows"
    )
    start = 0 if base_rows is None else base_rows
    cuts = sorted(
        data.draw(
            st.lists(st.integers(start, num_rows), max_size=10), label="cuts"
        )
    )
    bounds = [start, *cuts, num_rows]
    ranges = list(zip(bounds, bounds[1:]))
    # Merge order and fold fan-in must not matter either.
    ranges = data.draw(st.permutations(ranges), label="merge order")
    fan_in = data.draw(st.integers(2, 4), label="fan-in")

    lattice = problem.lattice()
    nodes = [problem.bottom_node(), problem.top_node()]
    middle = [
        node
        for height in range(1, lattice.max_height)
        for node in lattice.nodes_at_height(height)
    ]
    if middle:
        nodes.append(data.draw(st.sampled_from(middle), label="middle node"))

    for node in nodes:
        direct = compute_frequency_set(problem, node)
        partials = [scan_rows(problem, node, lo, hi) for lo, hi in ranges]
        pieces = [(piece.key_codes, piece.counts) for piece in partials]
        base = None
        if base_rows is not None:
            prefix = scan_rows(problem, node, 0, base_rows)
            base = (prefix.key_codes, prefix.counts, base_rows)
            pieces.insert(0, base[:2])
        keys, counts = folded_merge(pieces, node_radices(problem, node), fan_in)
        np.testing.assert_array_equal(keys, direct.key_codes)
        np.testing.assert_array_equal(counts, direct.counts)
        assert counts.sum() == num_rows

        # The evaluator's merge step folds the same pieces identically and
        # accounts them as exactly one table scan.
        evaluator = FrequencyEvaluator(problem)
        merged = evaluator.merge_scan(node, partials, base)
        np.testing.assert_array_equal(merged.key_codes, direct.key_codes)
        np.testing.assert_array_equal(merged.counts, direct.counts)
        stats = evaluator.stats
        assert stats.table_scans == 1
        if base is None:
            assert stats.shard_merges == 1
            assert stats.incremental_delta_scans == 0
        else:
            assert stats.shard_merges == 0
            assert stats.incremental_delta_scans == 1
            assert stats.incremental_delta_rows_scanned == num_rows - base_rows
            assert stats.incremental_base_rows_reused == base_rows


@settings(max_examples=20)
@given(seed=st.integers(0, 30), width=st.integers(1, 9))
def test_range_scans_partition_every_row(seed, width):
    """Each row lands in exactly one shard: per-shard totals sum to N."""
    problem = make_random_problem(seed)
    num_rows = problem.table.num_rows
    node = problem.bottom_node()
    totals = [
        scan_rows(problem, node, start, stop).total()
        for start, stop in plan_shards(num_rows, width)
    ]
    assert sum(totals) == num_rows


def test_empty_range_yields_empty_set():
    problem = make_random_problem(7)
    node = problem.bottom_node()
    fs = scan_rows(problem, node, 2, 2)
    assert fs.num_groups == 0 and fs.total() == 0
    assert fs.key_codes.shape == (0, node.size)


def test_range_bounds_are_validated():
    problem = make_random_problem(7)
    node = problem.bottom_node()
    num_rows = problem.table.num_rows
    with pytest.raises(ValueError):
        scan_rows(problem, node, -1, 2)
    with pytest.raises(ValueError):
        scan_rows(problem, node, 0, num_rows + 1)
    with pytest.raises(ValueError):
        scan_rows(problem, node, 3, 2)
