"""Tests for PreparedTable."""

import sys
import threading

import numpy as np
import pytest

from repro.core.anonymity import (
    FrequencyEvaluator,
    compute_frequency_set,
    scan_rows,
)
from repro.core.outofcore import compute_frequency_set_chunked
from repro.core.problem import PreparedTable
from repro.datasets.patients import patients_hierarchies, patients_table
from repro.hierarchy import SuppressionHierarchy
from repro.hierarchy.base import CompiledHierarchy
from repro.relational.table import Table
from tests.conftest import make_random_problem


class TestConstruction:
    def test_default_qi_from_hierarchies(self):
        problem = PreparedTable(patients_table(), patients_hierarchies())
        assert problem.quasi_identifier == ("Birthdate", "Sex", "Zipcode")

    def test_explicit_qi_subset(self):
        problem = PreparedTable(
            patients_table(), patients_hierarchies(), ["Sex", "Zipcode"]
        )
        assert problem.quasi_identifier == ("Sex", "Zipcode")

    def test_missing_hierarchy_rejected(self):
        with pytest.raises(ValueError, match="no hierarchy"):
            PreparedTable(patients_table(), {}, ["Sex"])

    @pytest.mark.parametrize(
        "qi", [["Sex", "Sex"], ["Sex", "Zipcode", "Sex"]]
    )
    def test_repeated_qi_attribute_rejected(self, qi):
        with pytest.raises(ValueError, match=r"repeats attributes \['Sex'\]"):
            PreparedTable(patients_table(), patients_hierarchies(), qi)

    def test_missing_column_rejected(self):
        with pytest.raises(KeyError):
            PreparedTable(
                patients_table(), {"Nope": SuppressionHierarchy()}, ["Nope"]
            )

    def test_precompiled_size_mismatch_rejected(self):
        compiled = SuppressionHierarchy().compile(["a", "b", "c"])
        table = Table.from_rows(["Sex"], [("Male",), ("Female",)])
        with pytest.raises(ValueError, match="covers"):
            PreparedTable(table, {"Sex": compiled})


class TestAccessors:
    def test_heights(self):
        problem = PreparedTable(patients_table(), patients_hierarchies())
        assert problem.heights == {"Birthdate": 1, "Sex": 1, "Zipcode": 2}

    def test_lattice_default_qi(self):
        problem = PreparedTable(patients_table(), patients_hierarchies())
        lattice = problem.lattice()
        assert lattice.size == 2 * 2 * 3

    def test_lattice_subset(self):
        problem = PreparedTable(patients_table(), patients_hierarchies())
        assert problem.lattice(["Sex", "Zipcode"]).size == 6

    def test_bottom_top(self):
        problem = PreparedTable(patients_table(), patients_hierarchies())
        assert problem.bottom_node().levels == (0, 0, 0)
        assert problem.top_node().levels == (1, 1, 2)

    def test_hierarchy_unknown_attribute(self):
        problem = PreparedTable(patients_table(), patients_hierarchies())
        with pytest.raises(KeyError):
            problem.hierarchy("Disease")

    def test_with_quasi_identifier_shares_compiled(self):
        problem = PreparedTable(patients_table(), patients_hierarchies())
        narrowed = problem.with_quasi_identifier(["Sex"])
        assert narrowed.quasi_identifier == ("Sex",)
        assert narrowed.hierarchy("Sex") is problem.hierarchy("Sex")

    def test_with_quasi_identifier_unknown(self):
        problem = PreparedTable(patients_table(), patients_hierarchies())
        with pytest.raises(ValueError):
            problem.with_quasi_identifier(["Disease"])

    def test_star_schema_has_all_dimensions(self):
        problem = PreparedTable(patients_table(), patients_hierarchies())
        star = problem.star_schema()
        assert set(star.dimension_attributes) == set(problem.quasi_identifier)

    def test_repr(self):
        problem = PreparedTable(patients_table(), patients_hierarchies())
        assert "rows=6" in repr(problem)


def all_nodes(problem):
    lattice = problem.lattice()
    return [
        node
        for height in range(lattice.max_height + 1)
        for node in lattice.nodes_at_height(height)
    ]


def wide_problem(cardinality: int) -> PreparedTable:
    """One attribute whose level 1 keeps all ``cardinality`` base values."""
    identity = np.arange(cardinality)
    compiled = CompiledHierarchy(
        SuppressionHierarchy(),
        [identity, identity, np.zeros(cardinality)],
        [list(range(cardinality)), list(range(cardinality)), ["*"]],
    )
    table = Table.from_columns({"a": list(range(cardinality))})
    return PreparedTable(table, {"a": compiled})


class TestColumnMemo:
    """The per-(attribute, level) generalized column memo."""

    def test_columns_equal_generalize_codes_and_are_read_only(self):
        problem = make_random_problem(3, num_rows=40, num_attributes=4)
        for name in problem.quasi_identifier:
            hierarchy = problem.hierarchy(name)
            base = problem.table.column(name).codes
            for level in range(hierarchy.height + 1):
                column = problem.generalized_column(name, level)
                assert not column.flags.writeable
                np.testing.assert_array_equal(
                    column, hierarchy.generalize_codes(base, level)
                )
                assert problem.generalized_column(name, level) is column

    def test_level_zero_is_the_base_column_itself(self):
        problem = make_random_problem(4, num_rows=30)
        name = problem.quasi_identifier[0]
        assert problem.generalized_column(name, 0) is problem.table.column(name).codes
        assert problem._columns == {}

    @pytest.mark.parametrize(
        "cardinality, dtype",
        [(256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.int32)],
    )
    def test_narrowest_dtype_holding_the_level(self, cardinality, dtype):
        problem = wide_problem(cardinality)
        column = problem.generalized_column("a", 1)
        assert column.dtype == dtype
        np.testing.assert_array_equal(column, np.arange(cardinality))
        assert problem.generalized_column("a", 2).dtype == np.uint8

    def test_whole_table_scans_fill_the_memo(self):
        problem = make_random_problem(5, num_rows=30, num_attributes=3)
        top = problem.top_node()
        compute_frequency_set(problem, top)
        assert set(problem._columns) == {
            (name, level) for name, level in top.items() if level > 0
        }

    def test_ranged_chunked_and_delta_scans_leave_the_memo_empty(self):
        problem = make_random_problem(6, num_rows=40, num_attributes=3)
        evaluator = FrequencyEvaluator(problem)
        for node in all_nodes(problem):
            full = scan_rows(problem, node, 0, 40)
            problem._columns.clear()
            evaluator.scan_range(node, 5, 30)
            prefix = scan_rows(problem, node, 0, 25)
            merged = evaluator.delta_scan(node, prefix.key_codes, prefix.counts, 25)
            chunked = compute_frequency_set_chunked(problem, node, chunk_rows=7)
            assert problem._columns == {}
            for result in (merged, chunked):
                np.testing.assert_array_equal(result.key_codes, full.key_codes)
                np.testing.assert_array_equal(result.counts, full.counts)

    def test_quasi_identifier_views_share_the_memo(self):
        problem = make_random_problem(7, num_rows=30, num_attributes=3)
        name = problem.quasi_identifier[-1]
        view = problem.with_quasi_identifier([name])
        height = problem.height(name)
        assert view.generalized_column(name, height) is (
            problem.generalized_column(name, height)
        )

    def test_concurrent_fills_agree_on_one_column_per_key(self):
        problem = make_random_problem(9, num_rows=2_000, num_attributes=4)
        keys = [
            (name, level)
            for name in problem.quasi_identifier
            for level in range(1, problem.height(name) + 1)
        ]
        seen: list[dict] = []
        start = threading.Barrier(8)

        def fill() -> None:
            start.wait(timeout=10)
            seen.append({key: problem.generalized_column(*key) for key in keys})

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        for key in keys:
            assert all(columns[key] is problem._columns[key] for columns in seen)
