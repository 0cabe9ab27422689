"""A-priori candidate graph generation (paper Section 3.1.2).

Each Incognito iteration ends by constructing the next iteration's candidate
graph from the surviving (k-anonymous) nodes ``S_i``:

1. **Join phase** — pair up survivors agreeing on their first i-1
   (dimension, index) components with the i-th dimension of one strictly
   below the other's (a fixed global attribute order avoids duplicates),
   producing (i+1)-attribute candidates.
2. **Prune phase** — drop candidates having any i-attribute projection that
   did not survive: a membership test against a plain set of survivors
   (the paper uses an Apriori hash tree for the same test).
3. **Edge generation** — link each candidate p to every candidate q that
   is p with one attribute raised by one level.

The paper derives edges from the two join parents with three SQL patterns
and removes implied edges with an ``EXCEPT``.  Every ``S_i`` the search
produces is upward-closed (a node survives iff it passed or was marked, and
marks propagate to direct generalizations), hence so is every candidate
set, and on an upward-closed set those patterns yield exactly the one-step
edges built here.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Mapping, Sequence

from repro.lattice.graph import CandidateGraph
from repro.lattice.node import LatticeNode


def initial_graph(
    attributes: Sequence[str], heights: Mapping[str, int] | Sequence[int]
) -> CandidateGraph:
    """Build C1/E1: every single-attribute chain, merged into one graph.

    Nodes are ⟨A0⟩..⟨Ah⟩ for each attribute A; edges are the hierarchy
    steps.  Attribute order follows ``attributes`` and fixes the global
    dimension ordering used by all subsequent join phases.
    """
    if not isinstance(heights, Mapping):
        heights = dict(zip(attributes, heights))
    graph = CandidateGraph()
    for attribute in attributes:
        height = heights[attribute]
        for level in range(height + 1):
            graph.add_node(LatticeNode((attribute,), (level,)))
        for level in range(height):
            graph.add_edge(
                LatticeNode((attribute,), (level,)),
                LatticeNode((attribute,), (level + 1,)),
            )
    return graph


def _ordered(node: LatticeNode, rank: Mapping[str, int]) -> LatticeNode:
    """Normalise a node's attributes to the global dimension order."""
    items = sorted(node.items(), key=lambda item: rank[item[0]])
    return LatticeNode.of(items)


def join_phase(
    survivors: Sequence[LatticeNode], order: Sequence[str]
) -> list[LatticeNode]:
    """Pair survivors into (i+1)-attribute candidates."""
    rank = {name: position for position, name in enumerate(order)}
    normalised = [_ordered(node, rank) for node in survivors]
    by_prefix: dict[tuple, list[LatticeNode]] = defaultdict(list)
    for node in normalised:
        prefix = tuple(zip(node.attributes[:-1], node.levels[:-1]))
        by_prefix[prefix].append(node)

    candidates: list[LatticeNode] = []
    for group in by_prefix.values():
        group = sorted(
            group, key=lambda node: (rank[node.attributes[-1]], node.levels[-1])
        )
        for left_pos, p in enumerate(group):
            p_last_rank = rank[p.attributes[-1]]
            for q in group[left_pos + 1:]:
                if rank[q.attributes[-1]] <= p_last_rank:
                    continue  # requires p.dim_i < q.dim_i
                candidate = LatticeNode(
                    p.attributes + (q.attributes[-1],),
                    p.levels + (q.levels[-1],),
                )
                candidates.append(candidate)
    return candidates


def prune_phase(
    candidates: Sequence[LatticeNode], survivors: Sequence[LatticeNode]
) -> list[LatticeNode]:
    """Keep candidates whose every i-attribute projection survived.

    Survivors are keyed by their (attribute, level) item set, so attribute
    order does not matter.
    """
    survived = {frozenset(node.items()) for node in survivors}
    return [
        candidate
        for candidate in candidates
        if all(
            frozenset(items) in survived
            for items in combinations(candidate.items(), candidate.size - 1)
        )
    ]


def edge_generation(graph: CandidateGraph) -> None:
    """Add every one-attribute, one-level edge between ``graph``'s nodes.

    Edges are inserted in ``(start, end)`` sort-key order, which fixes the
    order of each node's direct generalizations and so the search's BFS.
    """
    by_key = {(node.attributes, node.levels): node for node in graph}
    edges = []
    for (attributes, levels), start in by_key.items():
        for position, level in enumerate(levels):
            raised = levels[:position] + (level + 1,) + levels[position + 1:]
            end = by_key.get((attributes, raised))
            if end is not None:
                edges.append((start, end))
    edges.sort(key=lambda edge: (edge[0].sort_key(), edge[1].sort_key()))
    for start, end in edges:
        graph.add_edge(start, end)


def graph_generation(
    survivors: Sequence[LatticeNode], order: Sequence[str]
) -> CandidateGraph:
    """Run join, prune, and edge generation; return C_{i+1}/E_{i+1}.

    ``survivors`` are the k-anonymous nodes of the previous iteration (S_i,
    all the same subset size); ``order`` is the global attribute order.
    """
    candidates = prune_phase(join_phase(survivors, order), survivors)
    graph = CandidateGraph()
    for candidate in sorted(candidates, key=LatticeNode.sort_key):
        graph.add_node(candidate)
    edge_generation(graph)
    return graph
