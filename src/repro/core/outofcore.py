"""Out-of-core frequency-set computation — the paper's second future-work
item (§7).

    "It is also important to perform a more extensive evaluation of the
    scalability of Incognito and previous algorithms in the case where
    the original database or the intermediate frequency tables do not
    fit in main memory."

This module makes the scan path block-oriented so the engine's peak
working set is bounded by a chunk of rows plus the (much smaller) running
frequency set, instead of by materialised whole-column generalization
arrays:

* :func:`compute_frequency_set_chunked` — evaluate a lattice node by
  scanning the table in ``chunk_rows`` blocks and merging partial counts
  (the classic hash-aggregation-with-spill pattern, minus the spill since
  merged frequency sets are the small side).
* :class:`ChunkedEvaluator` — a drop-in
  :class:`~repro.core.anonymity.FrequencyEvaluator` whose scans are
  chunked, so every algorithm in :mod:`repro.core` runs out-of-core
  unchanged (pass it via :func:`chunked_incognito`).

Merging partial frequency sets is correct because COUNT is distributive —
the same property the rollup proof uses.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.anonymity import (
    FrequencyEvaluator,
    FrequencySet,
    node_radices,
    scan_rows,
)
from repro.core.incognito import run_incognito
from repro.core.problem import PreparedTable
from repro.core.result import AnonymizationResult
from repro.core.stats import SearchStats
from repro.lattice.node import LatticeNode
from repro.relational.groupby import group_by_codes


#: How many partial (keys, counts) pairs may accumulate before they are
#: folded into one.  Bounds the peak working set of a chunked scan at
#: fan-in × (running merged set + one chunk's groups) instead of letting
#: every chunk's partial live until the end of the scan.
MERGE_FAN_IN = 8


def merge_partials(
    partial_keys: list[np.ndarray],
    partial_counts: list[np.ndarray],
    radices: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-chunk/per-shard (keys, counts) pairs into one grouped result.

    COUNT is distributive, so re-grouping the concatenated group keys with
    count weights is exact; and because the re-group sorts by the same
    mixed-radix dense key as :func:`~repro.relational.groupby.group_by_codes`,
    the merged result is *bit-identical* to a single whole-table scan
    regardless of how the input was partitioned or in which order partials
    were folded.  Shard-parallel evaluation (:mod:`repro.shard`) relies on
    this to merge worker partials exactly.
    """
    all_keys = np.concatenate(partial_keys, axis=0)
    columns = [all_keys[:, position] for position in range(all_keys.shape[1])]
    return group_by_codes(columns, radices, np.concatenate(partial_counts))


def compute_frequency_set_chunked(
    problem: PreparedTable,
    node: LatticeNode,
    *,
    chunk_rows: int = 65_536,
) -> FrequencySet:
    """Frequency set of T at ``node``, scanning ``chunk_rows`` at a time.

    Produces exactly the same result as
    :func:`repro.core.anonymity.compute_frequency_set`; peak extra memory
    is one chunk's worth of generalized codes plus at most
    :data:`MERGE_FAN_IN` pending partial results (partials are folded
    incrementally rather than all retained until the end of the scan).
    """
    if chunk_rows <= 0:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    num_rows = problem.num_rows
    if num_rows <= chunk_rows:
        return scan_rows(problem, node, 0, num_rows)
    radices = node_radices(problem, node)
    partial_keys: list[np.ndarray] = []
    partial_counts: list[np.ndarray] = []
    for start in range(0, num_rows, chunk_rows):
        piece = scan_rows(problem, node, start, min(start + chunk_rows, num_rows))
        partial_keys.append(piece.key_codes)
        partial_counts.append(piece.counts)
        if len(partial_keys) >= MERGE_FAN_IN:
            merged = merge_partials(partial_keys, partial_counts, radices)
            partial_keys = [merged[0]]
            partial_counts = [merged[1]]
    keys, counts = merge_partials(partial_keys, partial_counts, radices)
    return FrequencySet(node, keys, counts, problem)


class ChunkedEvaluator(FrequencyEvaluator):
    """A FrequencyEvaluator whose table scans are block-oriented.

    Only the kernel call of :meth:`FrequencyEvaluator.scan` changes, so a
    chunked run records the same ``frequency.*``, ``cache.*`` and latency
    accounting as an in-memory one.
    """

    def __init__(
        self,
        problem: PreparedTable,
        stats: SearchStats | None = None,
        *,
        cache=None,
        chunk_rows: int = 65_536,
    ) -> None:
        if chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        super().__init__(problem, stats, cache=cache)
        self.chunk_rows = chunk_rows

    def _scan_table(self, node: LatticeNode) -> FrequencySet:
        return compute_frequency_set_chunked(
            self.problem, node, chunk_rows=self.chunk_rows
        )


def chunked_incognito(
    problem: PreparedTable,
    k: int,
    *,
    max_suppression: int = 0,
    chunk_rows: int = 65_536,
) -> AnonymizationResult:
    """Basic Incognito with bounded-memory (chunked) table scans.

    Same answers and counters as
    :func:`repro.core.incognito.basic_incognito`; wall clock pays a small
    per-chunk overhead, which ``benchmarks/test_ablation_materialized.py``
    quantifies.
    """
    return run_incognito(
        problem,
        k,
        max_suppression=max_suppression,
        algorithm="chunked-incognito",
        evaluator_factory=partial(ChunkedEvaluator, chunk_rows=chunk_rows),
    )
