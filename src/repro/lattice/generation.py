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

All three run on :data:`~repro.lattice.graph.Key` tuples, not
:class:`LatticeNode` objects: a node's ``(attribute rank, level)`` pairs
sorted by rank, the attribute's position in the global order.  The join
groups keys by ``key[:-1]``, the prune drops one pair and tests a set, and
the edge step raises one level and looks the result up.

The paper derives edges from the two join parents with three SQL patterns
and removes implied edges with an ``EXCEPT``.  Every ``S_i`` the search
produces is upward-closed (a node survives iff it passed or was marked, and
marks propagate to direct generalizations), hence so is every candidate
set, and on an upward-closed set those patterns yield exactly the one-step
edges built here.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, Sequence

from repro.lattice.graph import CandidateGraph, Key
from repro.lattice.node import LatticeNode


def initial_graph(
    attributes: Sequence[str], heights: Mapping[str, int]
) -> CandidateGraph:
    """Build C1/E1: every single-attribute chain, merged into one graph.

    Nodes are ⟨A0⟩..⟨Ah⟩ for each attribute A; edges are the hierarchy
    steps.  Attribute order follows ``attributes`` and fixes the global
    dimension ordering used by all subsequent join phases.
    """
    graph = CandidateGraph(attributes)
    for rank, attribute in enumerate(attributes):
        lower = graph.add_key(((rank, 0),))
        for level in range(1, heights[attribute] + 1):
            upper = graph.add_key(((rank, level),))
            graph.add_edge(lower, upper)
            lower = upper
    return graph


def node_key(node: LatticeNode, ranks: Mapping[str, int]) -> Key:
    """``node`` as a key: its (rank, level) pairs sorted by rank."""
    return tuple(sorted((ranks[name], level) for name, level in node.items()))


def join_phase(survivors: Iterable[Key]) -> list[Key]:
    """Pair survivors into (i+1)-attribute candidates."""
    by_prefix: dict[Key, list[tuple[int, int]]] = defaultdict(list)
    for key in survivors:
        by_prefix[key[:-1]].append(key[-1])
    candidates: list[Key] = []
    for prefix, lasts in by_prefix.items():
        lasts.sort()
        for position, last in enumerate(lasts):
            head, rank = prefix + (last,), last[0]
            # Later entries have rank >= this one; pair only strictly above.
            candidates.extend(
                head + (other,) for other in lasts[position + 1:] if other[0] != rank
            )
    return candidates


def prune_phase(candidates: Sequence[Key], survivors: Iterable[Key]) -> list[Key]:
    """Keep candidates whose every i-attribute projection survived."""
    survived = set(survivors)
    return [
        key
        for key in candidates
        if all(key[:drop] + key[drop + 1:] in survived for drop in range(len(key)))
    ]


def edge_generation(graph: CandidateGraph) -> None:
    """Add every one-attribute, one-level edge between ``graph``'s nodes.

    ``graph`` has no edges yet and its ids follow ``LatticeNode.sort_key``
    order (:func:`graph_generation` inserts the nodes sorted), so adding
    each node's ends in id order inserts the edges in ``(start, end)`` sort
    order.  That fixes each node's direct-generalization order and so the BFS.
    """
    ids, up, down = graph.ids, graph.up, graph.down
    for start, key in enumerate(graph.keys):
        ends = []
        for position, (rank, level) in enumerate(key):
            end = ids.get(key[:position] + ((rank, level + 1),) + key[position + 1:])
            if end is not None:
                ends.append(end)
        ends.sort()
        up[start] = ends
        for end in ends:
            down[end].append(start)


def graph_generation(
    survivors: Iterable[Key | LatticeNode], order: Sequence[str]
) -> CandidateGraph:
    """Run join, prune, and edge generation; return C_{i+1}/E_{i+1}.

    ``survivors`` are the k-anonymous nodes of the previous iteration (S_i,
    all the same subset size), as keys over ``order`` (the global attribute
    order) or as :class:`LatticeNode` objects in any attribute order.
    """
    ranks = {name: rank for rank, name in enumerate(order)}
    keys = [
        node if isinstance(node, tuple) else node_key(node, ranks)
        for node in survivors
    ]
    candidates = prune_phase(join_phase(keys), keys)
    # Rank → position among the sorted names: comparing these ints orders
    # keys exactly as comparing the attribute-name tuples would.
    names = sorted(order)
    name_positions = [names.index(name) for name in order]
    candidates.sort(
        key=lambda key: (
            sum(level for _, level in key),
            [name_positions[rank] for rank, _ in key],
            key,
        )
    )
    graph = CandidateGraph(order)
    for key in candidates:
        graph.add_key(key)
    edge_generation(graph)
    return graph
