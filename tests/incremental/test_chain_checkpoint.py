"""Version-chain checkpoint matching: precise divergence, prefix fallback.

Regression surface for the silent-discard bug class: a fingerprint
mismatch used to throw the whole checkpoint away without saying why.  Now
:func:`repro.resilience.checkpoint.match_chain` reports exactly which
segment diverged (with both fingerprints) and the session falls back to
the longest valid prefix — keeping every piece the matching segments
still cover.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.anonymity import compute_frequency_set
from repro.core.problem import PreparedTable
from repro.datasets.adults import adults_problem
from repro.incremental import IncrementalSession
from repro.lattice.node import LatticeNode
from repro.resilience import (
    ChainMatch,
    ChainMismatchWarning,
    CheckpointError,
    CheckpointStore,
    match_chain,
    node_from_json,
    segment_fingerprint,
)
from tests.conftest import make_random_problem
from tests.incremental.test_append_property import (
    from_scratch,
    scratch_comparable,
    split_rows,
)


class TestMatchChain:
    def test_full_match(self):
        match = match_chain(["a", "b", "c"], ["a", "b", "c"])
        assert match.full
        assert match.matched == 3
        assert match.diverged_index is None
        assert "matches all 3" in match.describe()

    def test_strict_prefix_is_not_a_divergence(self):
        match = match_chain(["a", "b"], ["a", "b", "c", "d"])
        assert not match.full
        assert match.matched == 2
        assert match.diverged_index is None
        assert "covers 2 of 4" in match.describe()

    def test_divergence_names_the_delta_and_both_fingerprints(self):
        match = match_chain(["a", "b", "XX"], ["a", "b", "YY", "z"])
        assert match.matched == 2
        assert match.diverged_index == 2
        assert match.expected_fingerprint == "YY"
        assert match.found_fingerprint == "XX"
        message = match.describe()
        assert "diverged at delta 2" in message
        assert "expected YY" in message and "found XX" in message
        assert "longest valid prefix (2 of 4" in message

    def test_divergence_at_the_base_segment(self):
        match = match_chain(["XX", "b"], ["a", "b"])
        assert match.matched == 0
        assert match.diverged_index == 0
        assert "diverged at the base segment" in match.describe()

    def test_stored_longer_than_expected(self):
        match = match_chain(["a", "b", "c"], ["a", "b"])
        assert not match.full
        assert match.matched == 2
        assert match.diverged_index is None
        assert "holds 3 segments but the dataset has only 2" in match.describe()


class TestSegmentFingerprint:
    def test_content_based_and_range_sensitive(self):
        problem = make_random_problem(7, num_rows=30, num_attributes=3)
        same = make_random_problem(7, num_rows=30, num_attributes=3)
        other = make_random_problem(8, num_rows=30, num_attributes=3)
        assert segment_fingerprint(problem, 0, 15) == segment_fingerprint(
            same, 0, 15
        )
        assert segment_fingerprint(problem, 0, 15) != segment_fingerprint(
            problem, 0, 16
        )
        assert segment_fingerprint(problem, 0, 15) != segment_fingerprint(
            other, 0, 15
        )

    def test_stable_as_later_appends_grow_the_dictionary(self):
        """The chain-stability property: appending rows must not change
        the fingerprint of any earlier segment, or every append would
        invalidate the whole chain."""
        problem = make_random_problem(9, num_rows=40, num_attributes=3)
        batches = split_rows(problem, [20])
        qi = problem.quasi_identifier
        hierarchies = {n: problem.hierarchy(n).source for n in qi}
        small = PreparedTable(batches[0], hierarchies, qi)
        grown = PreparedTable(
            batches[0].concat(batches[1]), hierarchies, qi
        )
        assert segment_fingerprint(small, 0, 20) == segment_fingerprint(
            grown, 0, 20
        )


class TestLoadChain:
    def make_store(self, tmp_path, header, chain):
        store = CheckpointStore(tmp_path / "chain.json")
        store.save({**header, "chain": chain, "pieces": []})
        return store

    def test_header_mismatch_returns_nothing(self, tmp_path):
        header = {"kind": "incremental-chain", "k": 2}
        store = self.make_store(tmp_path, header, ["a"])
        state, match = store.load_chain({"kind": "incremental-chain", "k": 3}, ["a"])
        assert state is None and match is None

    def test_matching_header_reports_the_chain_comparison(self, tmp_path):
        header = {"kind": "incremental-chain", "k": 2}
        store = self.make_store(tmp_path, header, ["a", "b"])
        state, match = store.load_chain(header, ["a", "b", "c"])
        assert state is not None
        assert isinstance(match, ChainMatch)
        assert match.matched == 2 and not match.full

    def test_missing_chain_key_is_a_checkpoint_error(self, tmp_path):
        header = {"kind": "incremental-chain", "k": 2}
        store = CheckpointStore(tmp_path / "chain.json")
        store.save(dict(header))
        with pytest.raises(CheckpointError, match="chain"):
            store.load_chain(header, ["a"])


class TestSessionFallback:
    """The end-to-end regression: mismatches are loud and prefix-scoped."""

    def setup_sessions(self, tmp_path, cuts=(20, 40)):
        problem = make_random_problem(13, num_rows=60, num_attributes=3)
        batches = split_rows(problem, list(cuts))
        qi = problem.quasi_identifier
        hierarchies = {n: problem.hierarchy(n).source for n in qi}
        base = PreparedTable(batches[0], hierarchies, qi)
        return base, batches

    def test_prefix_reuse_is_silent_and_counted(self, tmp_path):
        base, batches = self.setup_sessions(tmp_path)
        first = IncrementalSession(base, 2, checkpoint_dir=tmp_path)
        first.run()

        second = IncrementalSession(base, 2, checkpoint_dir=tmp_path)
        for delta in batches[1:]:
            second.append(delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ChainMismatchWarning)
            result = second.run()  # must not warn: stored is a clean prefix
        assert second.chain_report is not None
        assert second.chain_report.matched == 1
        assert result.stats.incremental_base_hits > 0

        scratch, _ = from_scratch(second, 2, "basic")
        assert result.anonymous_nodes == scratch.anonymous_nodes
        assert scratch_comparable(result.stats) == scratch_comparable(
            scratch.stats
        )

    def test_diverged_delta_warns_and_falls_back_to_prefix(self, tmp_path):
        base, batches = self.setup_sessions(tmp_path)
        first = IncrementalSession(base, 2, checkpoint_dir=tmp_path)
        first.run()
        first.append(batches[1])
        first.run()  # stored chain now covers base + delta 1

        # A different delta 1: the stored chain's second segment is wrong.
        second = IncrementalSession(base, 2, checkpoint_dir=tmp_path)
        second.append(batches[2])
        with pytest.warns(ChainMismatchWarning) as caught:
            result = second.run()
        message = str(caught[0].message)
        assert "diverged at delta 1" in message
        assert "expected" in message and "found" in message
        report = second.chain_report
        assert report is not None and report.diverged_index == 1
        assert report.matched == 1  # the base segment still counts
        assert report.expected_fingerprint != report.found_fingerprint

        scratch, _ = from_scratch(second, 2, "basic")
        assert result.anonymous_nodes == scratch.anonymous_nodes

    def test_full_mismatch_discards_every_piece_but_still_runs(self, tmp_path):
        base, batches = self.setup_sessions(tmp_path)
        first = IncrementalSession(base, 2, checkpoint_dir=tmp_path)
        first.run()

        # A session whose *base* differs: nothing in the chain is valid.
        other_problem = make_random_problem(14, num_rows=30, num_attributes=3)
        qi = other_problem.quasi_identifier
        other_base = PreparedTable(
            other_problem.table,
            {n: other_problem.hierarchy(n).source for n in qi},
            qi,
        )
        # Same header (algorithm/k/qi names q0..q2) but different content.
        second = IncrementalSession(other_base, 2, checkpoint_dir=tmp_path)
        with pytest.warns(ChainMismatchWarning, match="base segment"):
            result = second.run()
        assert second.chain_report is not None
        assert second.chain_report.matched == 0
        assert result.stats.incremental_base_hits == 0
        assert result.found or not result.found  # ran to completion

    def test_empty_delta_appends_extend_the_chain_cheaply(self, tmp_path):
        base, batches = self.setup_sessions(tmp_path)
        empty = batches[0].take(np.arange(0))
        session = IncrementalSession(base, 2, checkpoint_dir=tmp_path)
        session.run()
        session.append(empty)
        result = session.run()
        assert session.version == 1
        assert result.stats.incremental_delta_rows_scanned == 0
        assert result.stats.incremental_base_hits > 0

        # The empty segment is a real chain element: a fresh session that
        # replays it matches the stored chain in full, silently.
        second = IncrementalSession(base, 2, checkpoint_dir=tmp_path)
        second.append(empty)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ChainMismatchWarning)
            replay = second.run()
        assert second.chain_report is not None and second.chain_report.full
        assert replay.anonymous_nodes == result.anonymous_nodes

        scratch, _ = from_scratch(second, 2, "basic")
        assert replay.anonymous_nodes == scratch.anonymous_nodes
        assert scratch_comparable(replay.stats) == scratch_comparable(
            scratch.stats
        )


def _raise_code(item):
    item["key_codes"][0][0] += 10**6


def _negative_code(item):
    item["key_codes"][0][0] = -1


def _count_sum_off(item):
    item["counts"][0] += 1


def _ragged_keys(item):
    item["key_codes"][0] = item["key_codes"][0][:-1]


class TestInvalidPieces:
    """A stored piece that is not a frequency set of its prefix is skipped.

    The header and fingerprint chain of a re-saved chain file still match,
    so only the piece check stands between an out-of-domain code and a
    merge that silently moves counts into another group.
    """

    NODE = LatticeNode(("gender", "marital_status"), (0, 0))

    @pytest.mark.parametrize(
        "corrupt", [_raise_code, _negative_code, _count_sum_off, _ragged_keys]
    )
    def test_invalid_piece_warns_and_is_rescanned(self, tmp_path, corrupt):
        problem = adults_problem(3_000, qi_size=4)
        qi = problem.quasi_identifier
        hierarchies = {name: problem.hierarchy(name).source for name in qi}
        base = PreparedTable(problem.table.take(np.arange(2_000)), hierarchies, qi)
        delta = problem.table.take(np.arange(2_000, 3_000))
        first = IncrementalSession(base, 2, checkpoint_dir=tmp_path)
        first.run()

        store = CheckpointStore(first._chain_path())
        state = store.load()
        [item] = [
            piece
            for piece in state["pieces"]
            if node_from_json(piece["node"]) == self.NODE
        ]
        corrupt(item)
        store.save(state)

        second = IncrementalSession(base, 2, checkpoint_dir=tmp_path)
        second.append(delta)
        with pytest.warns(ChainMismatchWarning, match="skipping the stored piece"):
            result = second.run()
        assert second.chain_report is not None
        assert second.chain_report.matched == 1  # the chain itself is intact

        scratch, scratch_problem = from_scratch(second, 2, "basic")
        assert result.anonymous_nodes == scratch.anonymous_nodes
        expected = compute_frequency_set(scratch_problem, self.NODE)
        captured = second.context.lookup(self.NODE)
        np.testing.assert_array_equal(captured.key_codes, expected.key_codes)
        np.testing.assert_array_equal(captured.counts, expected.counts)
        # The rescanned set, not the corrupt one, is what gets persisted.
        [saved] = [
            piece
            for piece in CheckpointStore(first._chain_path()).load()["pieces"]
            if node_from_json(piece["node"]) == self.NODE
        ]
        assert saved["key_codes"] == expected.key_codes.tolist()
        assert saved["counts"] == expected.counts.tolist()
