"""Tests for out-of-core (chunked) frequency computation (future work §7)."""

import pytest

import numpy as np

from repro.core.anonymity import compute_frequency_set
from repro.core.fscache import FrequencySetCache, use_cache
from repro.core.incognito import basic_incognito
from repro.core.outofcore import (
    MERGE_FAN_IN,
    ChunkedEvaluator,
    chunked_incognito,
    compute_frequency_set_chunked,
    merge_partials,
)
from repro.datasets.adults import adults_problem
from repro.datasets.patients import patients_problem
from tests.conftest import make_random_problem


class TestChunkedScan:
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 100])
    def test_matches_in_memory_scan_on_patients(self, chunk_rows):
        problem = patients_problem()
        for node in problem.lattice().nodes():
            chunked = compute_frequency_set_chunked(
                problem, node, chunk_rows=chunk_rows
            )
            direct = compute_frequency_set(problem, node)
            assert chunked.as_dict() == direct.as_dict(), str(node)

    def test_matches_on_larger_data(self):
        problem = adults_problem(3_000, qi_size=4)
        node = problem.bottom_node()
        chunked = compute_frequency_set_chunked(problem, node, chunk_rows=512)
        direct = compute_frequency_set(problem, node)
        assert chunked.as_dict() == direct.as_dict()

    def test_empty_table(self):
        problem = patients_problem()
        empty = problem.table.take([])
        from repro.core.problem import PreparedTable

        empty_problem = PreparedTable(
            empty,
            {name: problem.hierarchy(name) for name in problem.quasi_identifier},
            problem.quasi_identifier,
        )
        fs = compute_frequency_set_chunked(empty_problem, empty_problem.bottom_node())
        assert fs.num_groups == 0

    def test_invalid_chunk_rows(self):
        problem = patients_problem()
        with pytest.raises(ValueError):
            compute_frequency_set_chunked(
                problem, problem.bottom_node(), chunk_rows=0
            )

    def test_incremental_fold_matches_direct_beyond_fan_in(self):
        """Differential for the bounded-merge path: far more chunks than
        MERGE_FAN_IN, so partials are folded incrementally mid-scan."""
        problem = adults_problem(3_000, qi_size=4)
        chunk_rows = 64
        assert (3_000 // chunk_rows) > 2 * MERGE_FAN_IN
        for node in (problem.bottom_node(), problem.top_node()):
            chunked = compute_frequency_set_chunked(
                problem, node, chunk_rows=chunk_rows
            )
            direct = compute_frequency_set(problem, node)
            np.testing.assert_array_equal(chunked.key_codes, direct.key_codes)
            np.testing.assert_array_equal(chunked.counts, direct.counts)


class TestMergePartials:
    def test_overlapping_groups_sum(self):
        keys_a = np.array([[0], [1]])
        keys_b = np.array([[1], [2]])
        merged_keys, merged_counts = merge_partials(
            [keys_a, keys_b],
            [np.array([2, 3]), np.array([4, 5])],
            [3],
        )
        np.testing.assert_array_equal(merged_keys, [[0], [1], [2]])
        np.testing.assert_array_equal(merged_counts, [2, 7, 5])

    def test_fold_order_is_irrelevant(self):
        problem = patients_problem()
        node = problem.bottom_node()
        pieces = [
            compute_frequency_set_chunked(problem, node, chunk_rows=1)
        ]
        direct = compute_frequency_set(problem, node)
        np.testing.assert_array_equal(
            pieces[0].key_codes, direct.key_codes
        )
        np.testing.assert_array_equal(pieces[0].counts, direct.counts)


class TestChunkedEvaluator:
    def test_scan_counted(self):
        problem = patients_problem()
        evaluator = ChunkedEvaluator(problem, chunk_rows=2)
        evaluator.scan(problem.bottom_node())
        assert evaluator.stats.table_scans == 1

    def test_rollup_inherited(self):
        problem = patients_problem()
        evaluator = ChunkedEvaluator(problem, chunk_rows=2)
        base = evaluator.scan(problem.bottom_node())
        rolled = evaluator.rollup(base, problem.top_node())
        assert rolled.total() == 6

    def test_invalid_chunk_rows(self):
        with pytest.raises(ValueError):
            ChunkedEvaluator(patients_problem(), chunk_rows=-1)


class TestChunkedIncognito:
    def test_same_answers_as_basic(self):
        problem = patients_problem()
        assert (
            chunked_incognito(problem, 2, chunk_rows=2).anonymous_nodes
            == basic_incognito(problem, 2).anonymous_nodes
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_agreement(self, seed):
        problem = make_random_problem(seed + 1_100)
        assert (
            chunked_incognito(problem, 2, chunk_rows=5).anonymous_nodes
            == basic_incognito(problem, 2).anonymous_nodes
        )

    def test_algorithm_label(self):
        result = chunked_incognito(patients_problem(), 2)
        assert result.algorithm == "chunked-incognito"

    @pytest.mark.parametrize("cached", [False, True])
    def test_counters_and_latency_match_basic(self, cached):
        """A chunked run is the same search with a different scan kernel:
        its frequency.*, nodes.* and cache.* counters equal basic
        Incognito's, and every table scan is timed."""
        problem = adults_problem(5_000, qi_size=5)

        def run(algorithm):
            if not cached:
                return algorithm(problem, 2)
            with use_cache(FrequencySetCache()):
                return algorithm(problem, 2)

        def structural(result):
            return {
                name: value
                for name, value in result.stats.counters.as_dict().items()
                if name.split(".")[0] in ("frequency", "nodes", "cache")
            }

        basic = run(basic_incognito)
        chunked = run(
            lambda p, k: chunked_incognito(p, k, chunk_rows=1_000)
        )
        assert structural(chunked) == structural(basic)
        assert ("cache.misses" in structural(chunked)) == cached
        scans = chunked.stats.metrics.get("latency.scan_seconds")
        assert scans is not None
        assert scans.count == chunked.stats.table_scans > 0
