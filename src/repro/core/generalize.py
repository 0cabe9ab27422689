"""Producing the anonymized view V from a chosen lattice node (Section 2.1).

A full-domain generalization replaces every value of each quasi-identifier
attribute with its image at the node's level.  The fast path re-encodes each
column through the compiled hierarchy lookup; the star-schema path
(:func:`apply_with_star_schema`) evaluates the same definition by joining
dimension tables, mirroring the paper's SQL formulation — tests assert the
two agree.

With a tuple-suppression threshold, outlier tuples (those in equivalence
classes smaller than k) are removed entirely from V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.anonymity import generalized_columns
from repro.core.problem import PreparedTable
from repro.lattice.node import LatticeNode
from repro.relational.column import Column
from repro.relational.table import Table


@dataclass
class GeneralizedView:
    """The anonymization V of T: the view plus suppression accounting."""

    table: Table
    node: LatticeNode
    suppressed_rows: int

    @property
    def num_rows(self) -> int:
        return self.table.num_rows


def generalize_table(problem: PreparedTable, node: LatticeNode) -> Table:
    """Replace each QI column of T with its level-``node`` generalization."""
    table = problem.table
    for attribute, level in node.items():
        if level == 0:
            continue
        hierarchy = problem.hierarchy(attribute)
        column = table.column(attribute)
        generalized = column.map_codes(
            hierarchy.level_lookup(level), hierarchy.level_values(level)
        )
        table = table.replace_column(attribute, generalized)
    return table


def apply_generalization(
    problem: PreparedTable,
    node: LatticeNode,
    *,
    k: int | None = None,
    max_suppression: int = 0,
) -> GeneralizedView:
    """Produce the full-domain generalization V of T defined by ``node``.

    When ``k`` is given, tuples in equivalence classes smaller than ``k``
    are suppressed (dropped).  If more than ``max_suppression`` rows would
    need suppressing, the node does not satisfy k-anonymity under the
    threshold and a :class:`ValueError` is raised — callers should pick
    nodes from an algorithm's result set.
    """
    view = generalize_table(problem, node)
    if k is None:
        return GeneralizedView(view, node, suppressed_rows=0)

    # Per-row group size, over the scan kernel's generalized columns.
    columns = generalized_columns(problem, node, 0, problem.num_rows)
    _, inverse, counts = np.unique(
        np.column_stack(columns), axis=0, return_inverse=True, return_counts=True
    )
    keep = counts[inverse] >= k
    outliers = int(np.count_nonzero(~keep))
    if outliers > max_suppression:
        raise ValueError(
            f"{node} is not {k}-anonymous within the suppression threshold: "
            f"{outliers} outlier rows > {max_suppression} allowed"
        )
    if outliers == 0:
        return GeneralizedView(view, node, suppressed_rows=0)
    return GeneralizedView(view.take(keep), node, suppressed_rows=outliers)


def apply_with_star_schema(problem: PreparedTable, node: LatticeNode) -> Table:
    """Evaluate the same generalization by star-schema joins (Figure 4).

    Exponentially slower than :func:`generalize_table` (it routes through
    generic hash joins) but independent of the compiled-lookup machinery —
    the validation oracle in the test suite.
    """
    star = problem.star_schema()
    return star.generalized_view(node.as_dict())


def suppress_column(
    table: Table, attribute: str, mask_value: str = "*"
) -> Table:
    """Replace an entire column with ``mask_value`` (attribute suppression)."""
    return table.replace_column(
        attribute, Column.constant(mask_value, table.num_rows)
    )
