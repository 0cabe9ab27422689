"""Vectorised GROUP BY COUNT(*) — the frequency-set primitive.

The paper (Section 1.1) computes frequency sets with::

    SELECT COUNT(*) FROM T GROUP BY q1, ..., qn

Here the same computation runs over dictionary codes: the n key columns are
combined into a single mixed-radix integer key, then counted.  When the key
space (the product of the column cardinalities) is at most
``_BINCOUNT_ROWS_FACTOR`` times the row count plus ``_BINCOUNT_FLOOR``, the
count is a dense ``np.bincount`` over the keys and the groups are the
occupied keys (``np.flatnonzero``, already sorted); above that it is an
``np.unique`` sort.  Both give the same sorted groups and counts.  Group keys
come back as a 2-D code matrix plus per-column dictionaries, so downstream
code (rollup, k-anonymity checks) never touches raw values.  With per-row
weights the same routine evaluates the rollup's ``SELECT SUM(count) ...
GROUP BY`` over an existing frequency set.
"""

from __future__ import annotations

import time
from typing import Hashable, Sequence

import numpy as np

from repro import obs
from repro.relational.column import CODE_DTYPE, Column
from repro.relational.table import Table

#: Beyond this product of cardinalities the mixed-radix key would overflow
#: int64, so grouping falls back to ``np.unique(axis=0)`` over the stacked
#: code rows.
_DENSE_KEY_LIMIT = 1 << 62

#: A dense ``bincount`` costs O(rows + key space); the ``np.unique`` sort
#: costs O(rows log rows).  On random keys the two break even near a key
#: space of 2 x rows (45k and 1M rows), and the bincount is 1.3-5x faster
#: at or below 1 x rows.  Every Adults QI-8 scan and rollup has a key space
#: of at most 1 x its rows, so the count is dense below that bound.
_BINCOUNT_ROWS_FACTOR = 1

#: Small inputs (rollups over a few groups) count densely up to this key
#: space whatever their row count: an occupancy array this short is cheaper
#: than any sort call.
_BINCOUNT_FLOOR = 4096


class GroupByResult:
    """The result of a GROUP BY COUNT(*) query.

    Attributes
    ----------
    names:
        The grouping attribute names, in query order.
    key_codes:
        ``(num_groups, num_keys)`` int array; row g holds the dictionary
        codes of group g's value combination.
    dictionaries:
        One list of distinct values per key column; ``dictionaries[j][code]``
        decodes column j.
    counts:
        ``(num_groups,)`` int64 array of group sizes.
    """

    __slots__ = ("names", "key_codes", "dictionaries", "counts")

    def __init__(
        self,
        names: Sequence[str],
        key_codes: np.ndarray,
        dictionaries: Sequence[Sequence[Hashable]],
        counts: np.ndarray,
    ) -> None:
        self.names = tuple(names)
        self.key_codes = key_codes
        self.dictionaries = [list(d) for d in dictionaries]
        self.counts = counts

    @property
    def num_groups(self) -> int:
        return int(self.counts.shape[0])

    def min_count(self) -> int:
        """Smallest group size; 0 for an empty input.

        The 0 means "no groups", not "a group of size zero" — k-anonymity
        call sites must treat an empty relation as vacuously k-anonymous
        rather than comparing this against k (see
        :meth:`repro.core.anonymity.FrequencySet.is_k_anonymous` and
        DESIGN.md, "Empty-table semantics").
        """
        return int(self.counts.min()) if self.counts.size else 0

    def total(self) -> int:
        return int(self.counts.sum())

    def group_values(self, group: int) -> tuple:
        """Decode group ``group``'s value combination to raw values."""
        return tuple(
            self.dictionaries[j][self.key_codes[group, j]]
            for j in range(len(self.names))
        )

    def as_dict(self) -> dict[tuple, int]:
        """Materialise as {value-combination: count} — handy in tests."""
        return {
            self.group_values(g): int(self.counts[g])
            for g in range(self.num_groups)
        }

    def to_table(self, count_name: str = "count") -> Table:
        """Render as a relation with the key columns plus a count column.

        This is the relational representation ``F1`` used in the paper's
        rollup example (Section 3).
        """
        columns = [
            Column(self.key_codes[:, j].astype(CODE_DTYPE), self.dictionaries[j])
            for j in range(len(self.names))
        ]
        columns.append(Column.from_values(int(c) for c in self.counts))
        from repro.relational.schema import Schema  # local import avoids cycle

        schema = Schema.of(*self.names, count_name)
        return Table(schema, columns)


def _key_space(radices: Sequence[int]) -> int | None:
    """Size of the mixed-radix key space; None beyond ``_DENSE_KEY_LIMIT``.

    The cardinality product must accumulate in an overflow-proof Python
    int: radices arriving as numpy integers (e.g. from ``np.ndarray``
    shapes or vectorised cardinality math) would otherwise wrap at int64
    *while computing the product*, and a wrapped — possibly small or
    negative — product would pass the ``_DENSE_KEY_LIMIT`` guard and
    silently corrupt the dense keys.
    """
    space = 1
    for radix in radices:
        space *= max(int(radix), 1)
        if space > _DENSE_KEY_LIMIT:
            return None
    return space


def _combine_codes(
    code_arrays: Sequence[np.ndarray], radices: Sequence[int]
) -> tuple[np.ndarray, bool]:
    """Combine per-column code arrays into one mixed-radix key per row.

    Returns the key array and whether the dense encoding was used.  Keys
    are built in int32 when the key space fits it (half the memory traffic
    of int64, and a faster sort), else in int64.  If the key space would
    overflow int64 (see :func:`_key_space`), returns an empty array and
    ``dense=False``; the caller then groups the stacked code rows instead.
    """
    space = _key_space(radices)
    if space is None:
        return np.empty(0, dtype=np.int64), False
    dtype = np.int32 if space < 1 << 31 else np.int64
    keys = code_arrays[0].astype(dtype)
    for codes, radix in zip(code_arrays[1:], radices[1:]):
        keys *= max(int(radix), 1)
        keys += codes
    return keys, True


def _unique(values: np.ndarray, weights: np.ndarray | None, **axis):
    """Sorted distinct ``values`` with their row counts or summed weights."""
    if weights is None:
        return np.unique(values, return_counts=True, **axis)
    unique, inverse = np.unique(values, return_inverse=True, **axis)
    sums = np.bincount(
        inverse, weights=weights.astype(np.float64), minlength=unique.shape[0]
    )
    return unique, np.round(sums).astype(np.int64)


def _bincount(keys: np.ndarray, weights: np.ndarray | None, space: int):
    """:func:`_unique` for keys in ``[0, space)``, by a dense count.

    The groups are the occupied keys, so a group whose weights sum to 0
    is kept exactly as the sort path keeps it.
    """
    occupancy = np.bincount(keys, minlength=space)
    unique = np.flatnonzero(occupancy)
    if weights is None:
        return unique, occupancy[unique]
    sums = np.bincount(keys, weights=weights.astype(np.float64), minlength=space)
    return unique, np.round(sums[unique]).astype(np.int64)


def _check_shapes(
    code_arrays: Sequence[np.ndarray],
    radices: Sequence[int],
    weights: np.ndarray | None,
) -> int:
    """The common row count; ``ValueError`` on ragged or mismatched input."""
    if not code_arrays:
        raise ValueError("group_by_codes requires at least one key column")
    if len(radices) != len(code_arrays):
        raise ValueError(
            f"{len(code_arrays)} key columns but {len(radices)} radices"
        )
    num_rows = len(code_arrays[0])
    lengths = {len(codes) for codes in code_arrays}
    if len(lengths) > 1:
        raise ValueError(f"key columns differ in length: {sorted(lengths)}")
    if weights is not None and len(weights) != num_rows:
        raise ValueError(
            f"{len(weights)} weights for {num_rows} rows"
        )
    return num_rows


def group_by_codes(
    code_arrays: Sequence[np.ndarray],
    radices: Sequence[int],
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Group rows given per-column code arrays.

    Returns ``(key_codes, counts)`` where ``key_codes`` is a
    ``(num_groups, num_keys)`` matrix of codes, sorted lexicographically,
    and ``counts`` the group sizes.  Without ``weights`` this is the scan's
    ``COUNT(*) ... GROUP BY``; with them it is the rollup's and merge's
    ``SUM(count) ... GROUP BY`` (the weights are summed through a float64
    ``bincount``, exact below 2**53).  The only grouping primitive behind
    every frequency set.  Code columns of different lengths, a radix count
    that differs from the column count, or weights of another length raise
    :class:`ValueError`.
    """
    num_rows = _check_shapes(code_arrays, radices, weights)
    if num_rows == 0:
        empty = np.empty((0, len(code_arrays)), dtype=CODE_DTYPE)
        return empty, np.empty(0, dtype=np.int64)

    kind = "count" if weights is None else "weighted"
    with obs.span("groupby", kind=kind, rows=num_rows) as sp:
        groupby_started = time.perf_counter()
        keys, dense = _combine_codes(code_arrays, radices)
        key_build_seconds = time.perf_counter() - groupby_started
        count_started = time.perf_counter()
        bincount = False
        if dense:
            space = _key_space(radices)
            bincount = space <= _BINCOUNT_ROWS_FACTOR * num_rows + _BINCOUNT_FLOOR
            if bincount:
                unique_keys, counts = _bincount(keys, weights, space)
            else:
                unique_keys, counts = _unique(keys, weights)
            # Decode the mixed-radix keys back into per-column codes.
            key_codes = np.empty(
                (unique_keys.shape[0], len(code_arrays)), dtype=CODE_DTYPE
            )
            remaining = unique_keys
            for j in range(len(code_arrays) - 1, -1, -1):
                radix = max(int(radices[j]), 1)
                remaining, key_codes[:, j] = np.divmod(remaining, radix)
        else:
            stacked = np.column_stack(
                [codes.astype(np.int64) for codes in code_arrays]
            )
            unique_rows, counts = _unique(stacked, weights, axis=0)
            key_codes = unique_rows.astype(CODE_DTYPE)
        if sp:
            sp.set(
                dense=dense,
                bincount=bincount,
                groups=int(counts.shape[0]),
                key_build_seconds=key_build_seconds,
                count_seconds=time.perf_counter() - count_started,
            )
        obs.observe(
            "latency.groupby_seconds", time.perf_counter() - groupby_started
        )
    return key_codes, counts


def group_by_count(table: Table, names: Sequence[str]) -> GroupByResult:
    """``SELECT COUNT(*) FROM table GROUP BY names`` (one full scan)."""
    columns = [table.column(name) for name in names]
    code_arrays = [column.codes for column in columns]
    radices = [column.cardinality for column in columns]
    key_codes, counts = group_by_codes(code_arrays, radices)
    dictionaries = [column.values for column in columns]
    return GroupByResult(names, key_codes, dictionaries, counts)
