"""Tests for a-priori graph generation (Section 3.1.2, Figures 5-7)."""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.lattice.generation import (
    graph_generation,
    initial_graph,
    join_phase,
    node_key,
    prune_phase,
)
from repro.lattice.node import LatticeNode

PATIENTS_QI = ("Birthdate", "Sex", "Zipcode")
HEIGHTS = {"Birthdate": 1, "Sex": 1, "Zipcode": 2}


def as_keys(nodes, order=PATIENTS_QI):
    """Nodes as the (rank, level) keys join and prune work on."""
    ranks = {name: rank for rank, name in enumerate(order)}
    return [node_key(node, ranks) for node in nodes]


def as_nodes(keys, order=PATIENTS_QI):
    """Keys back as nodes, attributes in ``order``."""
    return [
        LatticeNode(
            tuple(order[rank] for rank, _ in key), tuple(level for _, level in key)
        )
        for key in keys
    ]


def bsz(b: int, s: int, z: int) -> LatticeNode:
    return LatticeNode(PATIENTS_QI, (b, s, z))


class TestInitialGraph:
    def test_c1_node_count(self):
        graph = initial_graph(PATIENTS_QI, HEIGHTS)
        # (1+1) + (1+1) + (2+1) single-attribute nodes
        assert len(graph) == 7

    def test_e1_chain_edges(self):
        graph = initial_graph(PATIENTS_QI, HEIGHTS)
        assert graph.num_edges() == 1 + 1 + 2

    def test_roots_are_level_zero(self):
        graph = initial_graph(PATIENTS_QI, HEIGHTS)
        assert {str(r) for r in graph.roots()} == {"<B0>", "<S0>", "<Z0>"}


class TestJoinPhase:
    def test_pairs_single_attributes(self):
        survivors = [
            LatticeNode(("Sex",), (0,)),
            LatticeNode(("Sex",), (1,)),
            LatticeNode(("Zipcode",), (0,)),
        ]
        candidates = set(as_nodes(join_phase(as_keys(survivors))))
        assert candidates == {
            LatticeNode(("Sex", "Zipcode"), (0, 0)),
            LatticeNode(("Sex", "Zipcode"), (1, 0)),
        }

    def test_respects_dimension_order(self):
        """Pairs are generated once, with dims ordered by the QI order."""
        survivors = [
            LatticeNode(("Zipcode",), (0,)),
            LatticeNode(("Sex",), (0,)),
        ]
        candidates = as_nodes(join_phase(as_keys(survivors)))
        assert len(candidates) == 1
        assert candidates[0].attributes == ("Sex", "Zipcode")

    def test_prefix_must_match_levels(self):
        survivors = [
            LatticeNode(("Sex", "Zipcode"), (0, 0)),
            LatticeNode(("Sex", "Birthdate"), (1, 0)),  # different Sex level
        ]
        # normalised order: (Birthdate, Sex) vs (Sex, Zipcode): prefixes differ
        assert join_phase(as_keys(survivors)) == []


class TestPrunePhase:
    def test_drops_candidates_with_missing_subsets(self):
        survivors = [
            LatticeNode(("Sex",), (0,)),
            LatticeNode(("Zipcode",), (0,)),
        ]
        candidates = join_phase(as_keys(survivors))
        assert len(prune_phase(candidates, as_keys(survivors))) == 1
        # now remove a needed subset: candidate ⟨S0, Z0⟩ requires both parents
        pruned = prune_phase(candidates, as_keys([LatticeNode(("Sex",), (0,))]))
        assert pruned == []

    def test_order_insensitive(self):
        """A survivor matches a projection listing its attributes in any order."""
        candidate = as_keys([LatticeNode(("a", "b", "c"), (0, 1, 2))], "abc")
        survivors = [
            LatticeNode(("b", "a"), (1, 0)),
            LatticeNode(("c", "a"), (2, 0)),
            LatticeNode(("b", "c"), (1, 2)),
        ]
        assert prune_phase(candidate, as_keys(survivors, "abc")) == candidate

    def test_three_attribute_candidate(self):
        """Every projection counts, not only the two join parents."""
        survivors = [
            LatticeNode(("a", "b"), (0, 1)),
            LatticeNode(("a", "c"), (0, 2)),
            LatticeNode(("b", "c"), (1, 2)),
            LatticeNode(("a", "c"), (0, 0)),
        ]
        kept, missing = as_keys(
            [
                LatticeNode(("a", "b", "c"), (0, 1, 2)),
                # ⟨a0, b1⟩ and ⟨a0, c0⟩ survived, but ⟨b1, c0⟩ did not.
                LatticeNode(("a", "b", "c"), (0, 1, 0)),
            ],
            "abc",
        )
        assert prune_phase([kept, missing], as_keys(survivors, "abc")) == [kept]


class TestPaperExample:
    """Example 3.2 / Figure 7: the pruned 3-attribute graph for Patients."""

    # Final 2-attribute survivors shown in Figure 5 (a, b, c):
    S2 = [
        # ⟨Sex, Zipcode⟩ searches end with: ⟨S1,Z0⟩,⟨S1,Z1⟩,⟨S1,Z2⟩,⟨S0,Z2⟩
        LatticeNode(("Sex", "Zipcode"), (1, 0)),
        LatticeNode(("Sex", "Zipcode"), (1, 1)),
        LatticeNode(("Sex", "Zipcode"), (1, 2)),
        LatticeNode(("Sex", "Zipcode"), (0, 2)),
        # ⟨Birthdate, Zipcode⟩: ⟨B1,Z0⟩,⟨B1,Z1⟩,⟨B1,Z2⟩,⟨B0,Z2⟩
        LatticeNode(("Birthdate", "Zipcode"), (1, 0)),
        LatticeNode(("Birthdate", "Zipcode"), (1, 1)),
        LatticeNode(("Birthdate", "Zipcode"), (1, 2)),
        LatticeNode(("Birthdate", "Zipcode"), (0, 2)),
        # ⟨Birthdate, Sex⟩: ⟨B1,S0⟩,⟨B0,S1⟩,⟨B1,S1⟩
        LatticeNode(("Birthdate", "Sex"), (1, 0)),
        LatticeNode(("Birthdate", "Sex"), (0, 1)),
        LatticeNode(("Birthdate", "Sex"), (1, 1)),
    ]

    def _generate(self):
        return graph_generation(self.S2, PATIENTS_QI)

    def test_figure7a_nodes(self):
        graph = self._generate()
        expected = {
            bsz(1, 1, 0), bsz(1, 1, 1), bsz(1, 0, 2), bsz(0, 1, 2), bsz(1, 1, 2),
        }
        assert set(graph.nodes) == expected

    def test_figure7a_edges(self):
        graph = self._generate()
        edges = {(str(a), str(b)) for a, b in graph.edges()}
        assert edges == {
            ("<B1, S1, Z0>", "<B1, S1, Z1>"),
            ("<B1, S1, Z1>", "<B1, S1, Z2>"),
            ("<B1, S0, Z2>", "<B1, S1, Z2>"),
            ("<B0, S1, Z2>", "<B1, S1, Z2>"),
        }

    def test_figure7a_roots(self):
        graph = self._generate()
        assert set(graph.roots()) == {bsz(1, 1, 0), bsz(1, 0, 2), bsz(0, 1, 2)}

    def test_much_smaller_than_unpruned_lattice(self):
        """Figure 7(b): the unpruned 3-attribute lattice has 12 nodes."""
        graph = self._generate()
        assert len(graph) == 5 < 12


def _upward_closure(
    seeds: set[tuple[tuple[str, ...], tuple[int, ...]]], heights: dict[str, int]
) -> set[tuple[tuple[str, ...], tuple[int, ...]]]:
    """Close (attributes, levels) pairs under one-level steps, within heights."""
    closed = set(seeds)
    stack = list(seeds)
    while stack:
        attributes, levels = stack.pop()
        for position, attribute in enumerate(attributes):
            if levels[position] < heights[attribute]:
                raised = (
                    levels[:position] + (levels[position] + 1,) + levels[position + 1:]
                )
                if (attributes, raised) not in closed:
                    closed.add((attributes, raised))
                    stack.append((attributes, raised))
    return closed


@st.composite
def attribute_heights(draw) -> tuple[tuple[str, ...], dict[str, int]]:
    qi = tuple("ABCDE"[: draw(st.integers(2, 5))])
    return qi, {name: draw(st.integers(0, 3)) for name in qi}


class TestRandomizedSemantics:
    """graph_generation must equal the subset-property semantics exactly.

    The oracle enumerates the full lattice with ``itertools`` and tests
    projections against a plain set; it shares no code with the generator.
    """

    @settings(max_examples=60, deadline=None)
    @given(attribute_heights(), st.data())
    def test_nodes_and_edges_match_bruteforce(self, shape, data):
        qi, heights = shape
        rng = data.draw(st.randoms(use_true_random=False))
        keep = data.draw(st.floats(0.1, 0.9))
        graph = initial_graph(qi, heights)
        for size in range(1, len(qi)):
            # Random upward-closed survivor set (the generalization
            # property guarantees every S_i has this shape).
            seeds = {
                (node.attributes, node.levels)
                for node in graph.nodes
                if rng.random() < keep
            }
            survivor_keys = _upward_closure(seeds, heights)
            survivors = [LatticeNode(*key) for key in survivor_keys]
            rng.shuffle(survivors)
            next_graph = graph_generation(survivors, qi)

            projections = {frozenset(zip(*key)) for key in survivor_keys}
            expected_nodes = set()
            for attrs in itertools.combinations(qi, size + 1):
                ranges = [range(heights[a] + 1) for a in attrs]
                for levels in itertools.product(*ranges):
                    items = list(zip(attrs, levels))
                    if all(
                        frozenset(subset) in projections
                        for subset in itertools.combinations(items, size)
                    ):
                        expected_nodes.add(LatticeNode(attrs, levels))
            assert set(next_graph.nodes) == expected_nodes

            expected_edges = {
                (a, b)
                for a in expected_nodes
                for b in expected_nodes
                if b.is_direct_generalization_of(a)
            }
            assert set(next_graph.edges()) == expected_edges
            assert next_graph.num_edges() == len(expected_edges)

            # The orders _search_graph consumes: nodes and every adjacency
            # list in LatticeNode.sort_key order.
            assert next_graph.nodes == sorted(
                next_graph.nodes, key=LatticeNode.sort_key
            )
            for node in next_graph.nodes:
                ups = next_graph.direct_generalizations(node)
                assert ups == sorted(ups, key=LatticeNode.sort_key)
            graph = next_graph
