"""Tests for repro.relational.groupby — the frequency-set primitive."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import groupby
from repro.relational.groupby import group_by_codes, group_by_count
from repro.relational.table import Table


def patients_like() -> Table:
    return Table.from_rows(
        ["sex", "zip"],
        [
            ("M", "53715"),
            ("F", "53715"),
            ("M", "53703"),
            ("M", "53703"),
            ("F", "53706"),
            ("F", "53706"),
        ],
    )


class TestGroupByCount:
    def test_single_key(self):
        result = group_by_count(patients_like(), ["sex"])
        assert result.as_dict() == {("M",): 3, ("F",): 3}

    def test_two_keys(self):
        result = group_by_count(patients_like(), ["sex", "zip"])
        assert result.as_dict() == {
            ("M", "53715"): 1,
            ("F", "53715"): 1,
            ("M", "53703"): 2,
            ("F", "53706"): 2,
        }

    def test_paper_example_not_2_anonymous(self):
        """Section 1.1: Patients is not 2-anonymous wrt ⟨Sex, Zipcode⟩."""
        result = group_by_count(patients_like(), ["sex", "zip"])
        assert result.min_count() < 2

    def test_total_preserved(self):
        result = group_by_count(patients_like(), ["sex", "zip"])
        assert result.total() == 6

    def test_min_count_empty(self):
        table = Table.from_rows(["a"], [])
        assert group_by_count(table, ["a"]).min_count() == 0

    def test_num_groups(self):
        assert group_by_count(patients_like(), ["zip"]).num_groups == 3

    def test_group_values_decodes(self):
        result = group_by_count(patients_like(), ["sex"])
        values = {result.group_values(g) for g in range(result.num_groups)}
        assert values == {("M",), ("F",)}

    def test_to_table_round_trip(self):
        result = group_by_count(patients_like(), ["sex", "zip"])
        table = result.to_table()
        assert table.schema.names == ("sex", "zip", "count")
        assert sum(row[-1] for row in table.iter_rows()) == 6

    def test_key_order_matters_for_names_not_counts(self):
        forward = group_by_count(patients_like(), ["sex", "zip"]).as_dict()
        backward = group_by_count(patients_like(), ["zip", "sex"]).as_dict()
        assert {(s, z): c for (z, s), c in backward.items()} == forward


class TestGroupByCodes:
    def test_counts_match_python(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, size=500).astype(np.int32)
        b = rng.integers(0, 7, size=500).astype(np.int32)
        keys, counts = group_by_codes([a, b], [4, 7])
        expected: dict[tuple[int, int], int] = {}
        for x, y in zip(a.tolist(), b.tolist()):
            expected[(x, y)] = expected.get((x, y), 0) + 1
        actual = {
            (int(keys[g, 0]), int(keys[g, 1])): int(counts[g])
            for g in range(keys.shape[0])
        }
        assert actual == expected

    def test_empty_input(self):
        keys, counts = group_by_codes([np.empty(0, dtype=np.int32)], [3])
        assert keys.shape == (0, 1)
        assert counts.size == 0

    def test_no_keys_rejected(self):
        with pytest.raises(ValueError):
            group_by_codes([], [])

    def test_huge_radix_fallback_matches_dense(self):
        """The >int64 key-space fallback must agree with the dense path."""
        rng = np.random.default_rng(1)
        arrays = [rng.integers(0, 5, size=200).astype(np.int32) for _ in range(3)]
        dense_keys, dense_counts = group_by_codes(arrays, [5, 5, 5])
        # Force the fallback by claiming astronomically large radices.
        big = 2 ** 31
        sparse_keys, sparse_counts = group_by_codes(arrays, [big, big, big])
        dense = {
            tuple(dense_keys[g]): int(dense_counts[g])
            for g in range(dense_keys.shape[0])
        }
        sparse = {
            tuple(sparse_keys[g]): int(sparse_counts[g])
            for g in range(sparse_keys.shape[0])
        }
        assert dense == sparse

    def test_counts_sum_to_rows(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 3, size=1000).astype(np.int32)
        _, counts = group_by_codes([a], [3])
        assert counts.sum() == 1000

    def test_numpy_radix_product_overflow_forces_fallback(self):
        """Regression: np.int64 radices whose product wraps at int64.

        2**32 * 2**32 == 2**64 wraps to exactly 0 under numpy int64
        arithmetic — small enough to pass the ``_DENSE_KEY_LIMIT`` guard
        and silently corrupt the dense mixed-radix keys.  The cardinality
        product must accumulate in Python ints so the guard sees 2**64
        and takes the sparse path.
        """
        from repro.relational.groupby import _combine_codes

        radices = [np.int64(2**32), np.int64(2**32)]
        rng = np.random.default_rng(3)
        arrays = [rng.integers(0, 4, size=100).astype(np.int32) for _ in range(2)]
        _, dense = _combine_codes(arrays, radices)
        assert dense is False

        sparse_keys, sparse_counts = group_by_codes(arrays, radices)
        dense_keys, dense_counts = group_by_codes(arrays, [4, 4])
        as_dict = lambda keys, counts: {
            tuple(keys[g]): int(counts[g]) for g in range(keys.shape[0])
        }
        assert as_dict(sparse_keys, sparse_counts) == as_dict(
            dense_keys, dense_counts
        )

    def test_numpy_radix_negative_wrap_forces_fallback(self):
        """Two ~2**31.5 radices wrap to a *negative* int64 product.

        A negative wrapped product also passes a naive ``> limit`` check;
        the Python-int accumulation sees the true ~2**63 product instead.
        """
        from repro.relational.groupby import _combine_codes

        radix = np.int64(3_037_000_500)  # just above isqrt(2**63): square wraps < 0
        radices = [radix, radix]
        rng = np.random.default_rng(4)
        arrays = [rng.integers(0, 3, size=60).astype(np.int32) for _ in range(2)]
        _, dense = _combine_codes(arrays, radices)
        assert dense is False
        _, counts = group_by_codes(arrays, radices)
        assert counts.sum() == 60


class TestShapeChecks:
    """Ragged input raises instead of broadcasting into wrong groups."""

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            group_by_codes(
                [np.array([0, 1], dtype=np.int32), np.array([0], dtype=np.int32)],
                [2, 2],
            )

    def test_radix_count_must_match_column_count(self):
        column = np.array([0, 1, 1], dtype=np.int32)
        with pytest.raises(ValueError, match="radices"):
            group_by_codes([column, column], [2])
        with pytest.raises(ValueError, match="radices"):
            group_by_codes([column], [2, 2])

    def test_weights_must_match_row_count(self):
        column = np.array([0, 1, 1], dtype=np.int32)
        with pytest.raises(ValueError, match="weights"):
            group_by_codes([column], [2], np.array([1, 2], dtype=np.int64))


def counter_oracle(code_arrays, weights=None):
    """``(key_codes, counts)`` from a Counter over the zipped code tuples."""
    tally: Counter = Counter()
    seen: set = set()
    rows = zip(*(codes.tolist() for codes in code_arrays))
    for row, key in enumerate(rows):
        seen.add(key)
        tally[key] += 1 if weights is None else int(weights[row])
    keys = sorted(seen)
    key_codes = np.array(keys, dtype=np.int64).reshape(len(keys), len(code_arrays))
    return key_codes, np.array([tally[key] for key in keys], dtype=np.int64)


#: The dtypes a code column reaches the kernel in: the narrow memo
#: columns and the int32 base codes.
CODE_DTYPES = (np.uint8, np.uint16, np.int32)


@st.composite
def grouping_inputs(draw, max_radix=12, max_columns=4):
    radices = draw(
        st.lists(st.integers(1, max_radix), min_size=1, max_size=max_columns)
    )
    num_rows = draw(st.integers(1, 60))
    columns = [
        np.array(
            draw(st.lists(st.integers(0, radix - 1), min_size=num_rows, max_size=num_rows)),
            dtype=draw(
                st.sampled_from(
                    [d for d in CODE_DTYPES if np.iinfo(d).max >= radix - 1]
                )
            ),
        )
        for radix in radices
    ]
    weights = draw(
        st.none()
        | st.lists(st.integers(0, 5), min_size=num_rows, max_size=num_rows).map(
            lambda values: np.array(values, dtype=np.int64)
        )
    )
    return columns, radices, weights


def assert_matches_oracle(columns, radices, weights):
    key_codes, counts = group_by_codes(columns, radices, weights)
    expected_keys, expected_counts = counter_oracle(columns, weights)
    assert key_codes.dtype == np.int32 and counts.dtype == np.int64
    np.testing.assert_array_equal(key_codes, expected_keys)
    np.testing.assert_array_equal(counts, expected_counts)


class TestCounterOracle:
    """Every counting path equals a Counter: order, codes and counts."""

    @settings(max_examples=150)
    @given(grouping_inputs())
    def test_random_codes_match_counter(self, inputs):
        assert_matches_oracle(*inputs)

    @settings(max_examples=60)
    @given(grouping_inputs(max_radix=200_000, max_columns=3))
    def test_sparse_key_spaces_match_counter(self, inputs):
        # Key spaces far above the dense threshold take the sort path.
        assert_matches_oracle(*inputs)

    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_key_space_at_the_dense_threshold(self, offset, weighted):
        """Just inside the bincount bound and just past it agree."""
        num_rows = 5_000
        space = groupby._BINCOUNT_ROWS_FACTOR * num_rows + groupby._BINCOUNT_FLOOR
        radices = [space + offset]
        rng = np.random.default_rng(offset)
        columns = [rng.integers(0, radices[0], num_rows).astype(np.int32)]
        weights = rng.integers(0, 3, num_rows) if weighted else None
        assert_matches_oracle(columns, radices, weights)

    @pytest.mark.parametrize(
        "radices", [[1, 2**31 - 1], [1, 2**31], [2, 2**30], [3, 2**31]]
    )
    def test_key_space_at_the_int32_boundary(self, radices):
        rng = np.random.default_rng(6)
        columns = [
            rng.integers(0, radix, 50).astype(np.int64) for radix in radices
        ]
        assert_matches_oracle(columns, radices, None)

    def test_zero_weight_groups_are_kept(self):
        column = np.array([2, 0, 2, 1], dtype=np.int32)
        weights = np.array([0, 3, 0, 1], dtype=np.int64)
        key_codes, counts = group_by_codes([column], [3], weights)
        assert key_codes[:, 0].tolist() == [0, 1, 2]
        assert counts.tolist() == [3, 1, 0]

    def test_overflow_fallback_matches_counter(self):
        rng = np.random.default_rng(5)
        columns = [rng.integers(0, 6, 80).astype(np.int32) for _ in range(3)]
        radices = [2**31, 2**31, 2**31]  # product beyond _DENSE_KEY_LIMIT
        assert groupby._key_space(radices) is None
        assert_matches_oracle(columns, radices, None)
        assert_matches_oracle(columns, radices, rng.integers(0, 4, 80))

    def test_negative_code_raises_on_the_dense_count(self):
        column = np.array([0, -1, 1], dtype=np.int32)
        with pytest.raises(ValueError):
            group_by_codes([column], [2])
