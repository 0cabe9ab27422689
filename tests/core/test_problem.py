"""Tests for PreparedTable."""

import pytest

from repro.core.problem import PreparedTable
from repro.datasets.patients import patients_hierarchies, patients_table
from repro.hierarchy import SuppressionHierarchy
from repro.relational.table import Table


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
