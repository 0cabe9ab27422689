"""Tests for frequency sets and k-anonymity checks."""

import numpy as np
import pytest

from repro.core.anonymity import (
    FrequencyEvaluator,
    check_k_anonymity,
    compute_frequency_set,
)
from repro.core.problem import PreparedTable
from repro.datasets.patients import patients_problem
from repro.lattice.node import LatticeNode
from repro.relational.table import Table

QI = ("Birthdate", "Sex", "Zipcode")


def node(b: int, s: int, z: int) -> LatticeNode:
    return LatticeNode(QI, (b, s, z))


class TestComputeFrequencySet:
    def test_zero_generalization_counts(self):
        problem = patients_problem()
        fs = compute_frequency_set(problem, node(0, 0, 0))
        assert fs.total() == 6
        assert fs.num_groups == 6  # every Patients row is unique on the QI
        assert fs.min_count() == 1

    def test_generalized_counts(self):
        problem = patients_problem()
        fs = compute_frequency_set(problem, node(1, 1, 0))
        assert fs.as_dict() == {
            ("*", "Person", "53715"): 2,
            ("*", "Person", "53703"): 2,
            ("*", "Person", "53706"): 2,
        }

    def test_subset_node(self):
        problem = patients_problem()
        fs = compute_frequency_set(problem, LatticeNode(("Sex",), (0,)))
        assert fs.as_dict() == {("Male",): 3, ("Female",): 3}

    def test_to_table(self):
        problem = patients_problem()
        fs = compute_frequency_set(problem, LatticeNode(("Sex",), (1,)))
        table = fs.to_table()
        assert table.schema.names == ("Sex", "count")
        assert table.to_rows() == [("Person", 6)]


class TestIsKAnonymous:
    def test_paper_section_1_1_example(self):
        """Patients is not 2-anonymous wrt ⟨Sex, Zipcode⟩."""
        problem = patients_problem()
        fs = compute_frequency_set(
            problem, LatticeNode(("Sex", "Zipcode"), (0, 0))
        )
        assert not fs.is_k_anonymous(2)

    def test_paper_example_31_s1z0(self):
        """Patients is 2-anonymous wrt ⟨S1, Z0⟩ (Example 3.1)."""
        problem = patients_problem()
        fs = compute_frequency_set(
            problem, LatticeNode(("Sex", "Zipcode"), (1, 0))
        )
        assert fs.is_k_anonymous(2)

    def test_paper_example_31_s0z2(self):
        """Patients is 2-anonymous wrt ⟨S0, Z2⟩ (Example 3.1)."""
        problem = patients_problem()
        fs = compute_frequency_set(
            problem, LatticeNode(("Sex", "Zipcode"), (0, 2))
        )
        assert fs.is_k_anonymous(2)

    def test_invalid_k(self):
        problem = patients_problem()
        fs = compute_frequency_set(problem, node(0, 0, 0))
        with pytest.raises(ValueError):
            fs.is_k_anonymous(0)

    def test_suppression_threshold(self):
        problem = patients_problem()
        fs = compute_frequency_set(problem, node(0, 0, 0))
        # all six groups have count 1 < 2: suppressing them all needs 6 rows
        assert fs.rows_below(2) == 6
        assert not fs.is_k_anonymous(2, max_suppression=5)
        assert fs.is_k_anonymous(2, max_suppression=6)

    def test_rows_below_zero_when_anonymous(self):
        problem = patients_problem()
        fs = compute_frequency_set(problem, node(1, 1, 0))
        assert fs.rows_below(2) == 0


def empty_patients_problem() -> PreparedTable:
    from repro.datasets.patients import patients_hierarchies
    from repro.relational.schema import Schema

    schema = Schema.of("Birthdate", "Sex", "Zipcode", "Disease")
    return PreparedTable(
        Table.from_rows(schema, []), patients_hierarchies(), QI
    )


class TestEmptyRelationSemantics:
    """An empty relation is k-anonymous for every k (vacuous truth).

    Regression: ``min_count()`` returns 0 for "no groups", so the plain
    ``min_count() >= k`` test wrongly failed every k on empty input.
    """

    def test_empty_frequency_set_is_k_anonymous_for_all_k(self):
        fs = compute_frequency_set(empty_patients_problem(), node(0, 0, 0))
        assert fs.num_groups == 0
        assert fs.min_count() == 0  # the "no groups" sentinel, not a count
        for k in (1, 2, 10, 10**6):
            assert fs.is_k_anonymous(k)

    def test_empty_with_suppression_budget(self):
        fs = compute_frequency_set(empty_patients_problem(), node(0, 0, 0))
        assert fs.is_k_anonymous(2, max_suppression=3)
        assert fs.rows_below(2) == 0

    def test_suppression_leaving_empty_remainder(self):
        # Every group is undersized; suppressing them all leaves an empty
        # remainder, which must still count as k-anonymous when the budget
        # covers every dropped row.
        problem = patients_problem()
        fs = compute_frequency_set(problem, node(0, 0, 0))
        assert fs.rows_below(10) == fs.total()  # all rows are outliers
        assert fs.is_k_anonymous(10, max_suppression=fs.total())
        assert not fs.is_k_anonymous(10, max_suppression=fs.total() - 1)

    def test_empty_still_rejects_invalid_k(self):
        fs = compute_frequency_set(empty_patients_problem(), node(0, 0, 0))
        with pytest.raises(ValueError):
            fs.is_k_anonymous(0)


class TestRollup:
    def test_rollup_property_single_step(self):
        """Rolling up must equal recomputing from scratch (Rollup Property)."""
        problem = patients_problem()
        base = compute_frequency_set(problem, node(0, 0, 0))
        rolled = base.rollup(node(0, 0, 1))
        direct = compute_frequency_set(problem, node(0, 0, 1))
        assert rolled.as_dict() == direct.as_dict()

    def test_rollup_multi_step_multi_attribute(self):
        problem = patients_problem()
        base = compute_frequency_set(problem, node(0, 0, 0))
        rolled = base.rollup(node(1, 1, 2))
        direct = compute_frequency_set(problem, node(1, 1, 2))
        assert rolled.as_dict() == direct.as_dict()

    def test_rollup_preserves_total(self):
        problem = patients_problem()
        base = compute_frequency_set(problem, node(0, 0, 0))
        assert base.rollup(node(1, 0, 1)).total() == base.total()

    def test_rollup_downward_rejected(self):
        problem = patients_problem()
        fs = compute_frequency_set(problem, node(1, 1, 1))
        with pytest.raises(ValueError):
            fs.rollup(node(0, 0, 0))

    def test_paper_rollup_example(self):
        """Section 3: F2 = rollup of F1 from ⟨B,S,Z⟩ to ⟨B,S,Z1⟩."""
        problem = patients_problem()
        f1 = compute_frequency_set(problem, node(0, 0, 0))
        f2 = f1.rollup(node(0, 0, 1))
        assert f2.as_dict() == {
            ("1/21/76", "Male", "5371*"): 1,
            ("4/13/86", "Female", "5371*"): 1,
            ("2/28/76", "Male", "5370*"): 1,
            ("1/21/76", "Male", "5370*"): 1,
            ("4/13/86", "Female", "5370*"): 1,
            ("2/28/76", "Female", "5370*"): 1,
        }


class TestProject:
    def test_project_matches_direct(self):
        """The subset/data-cube direction must match a fresh group-by."""
        problem = patients_problem()
        full = compute_frequency_set(problem, node(0, 0, 0))
        projected = full.project(("Sex", "Zipcode"))
        direct = compute_frequency_set(
            problem, LatticeNode(("Sex", "Zipcode"), (0, 0))
        )
        assert projected.as_dict() == direct.as_dict()

    def test_project_reorders(self):
        problem = patients_problem()
        full = compute_frequency_set(problem, node(0, 0, 0))
        projected = full.project(("Zipcode", "Birthdate"))
        assert projected.node.attributes == ("Zipcode", "Birthdate")
        assert projected.total() == 6

    def test_project_to_nothing_rejected(self):
        problem = patients_problem()
        full = compute_frequency_set(problem, node(0, 0, 0))
        with pytest.raises(ValueError):
            full.project(())


class TestCheckKAnonymity:
    def test_plain_table_check(self):
        table = Table.from_rows(["a"], [(1,), (1,), (2,)])
        assert check_k_anonymity(table, ["a"], 1)
        assert not check_k_anonymity(table, ["a"], 2)

    def test_empty_table_trivially_anonymous(self):
        table = Table.from_rows(["a"], [])
        assert check_k_anonymity(table, ["a"], 5)

    def test_with_suppression_budget(self):
        table = Table.from_rows(["a"], [(1,), (1,), (2,)])
        assert check_k_anonymity(table, ["a"], 2, max_suppression=1)
        assert not check_k_anonymity(table, ["a"], 2, max_suppression=0)


class TestFrequencyEvaluator:
    def test_counters(self):
        problem = patients_problem()
        evaluator = FrequencyEvaluator(problem)
        fs = evaluator.scan(node(0, 0, 0))
        evaluator.rollup(fs, node(1, 0, 0))
        evaluator.project(fs, ("Sex",))
        evaluator.decide(node(0, 0, 0), fs, 2, 0)
        stats = evaluator.stats
        assert stats.table_scans == 1
        assert stats.rollups == 1
        assert stats.projections == 1
        assert stats.nodes_checked == 1
        assert stats.frequency_evaluations == 3
        assert stats.checks_by_subset_size == {3: 1}

    @pytest.mark.parametrize(
        "kind", ["use", "rollup", "scan_range", "delta", "bogus"]
    )
    def test_execute_job_rejects_bad_jobs_with_a_typed_error(self, kind):
        # A job missing its payload, or of an unknown kind, is a ValueError
        # naming the kind -- never a bare assert or an AttributeError.
        evaluator = FrequencyEvaluator(patients_problem())
        with pytest.raises(ValueError, match=kind):
            evaluator.execute_job(node(0, 0, 0), kind, None)
        assert evaluator.stats.frequency_evaluations == 0
