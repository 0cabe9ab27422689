"""Candidate generalization graphs (paper Sections 3.1.1-3.1.2).

Each Incognito iteration works over a graph whose nodes are multi-attribute
generalizations of the iteration's candidate attribute subsets and whose
edges are direct multi-attribute generalization relationships.  The paper
stores the graph as two relations (Figure 6), a node being an integer id
plus ``(dim, index)`` pairs, and the in-memory form has the same shape: a
node is a :data:`Key` of ``(attribute rank, level)`` pairs, and the graph
holds a list of keys, a key → id dict and int adjacency lists.  A
:class:`LatticeNode` is built only when a caller asks for one
(:meth:`CandidateGraph.node_of` and the accessors built on it).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.lattice.node import LatticeNode
from repro.relational.schema import Schema
from repro.relational.table import Table

#: A node as ``(attribute rank, level)`` pairs.
Key = tuple[tuple[int, int], ...]


class CandidateGraph:
    """A set of candidate nodes plus direct-generalization edges.

    Node ids are assigned in insertion order starting at 1 (the paper's
    Figure 6 numbering), so slot 0 of ``keys``, ``up`` and ``down`` is a
    placeholder.  ``up[i]`` / ``down[i]`` list the ids of node *i*'s direct
    generalizations / specializations in edge insertion order.
    """

    def __init__(self, attributes: Sequence[str] = ()) -> None:
        #: Attribute names by rank; :meth:`add_node` appends unseen ones.
        self.attributes: list[str] = list(attributes)
        self._ranks = {name: rank for rank, name in enumerate(self.attributes)}
        self.keys: list[Key] = [()]
        self.ids: dict[Key, int] = {}
        self.up: list[list[int]] = [[]]
        self.down: list[list[int]] = [[]]

    def add_key(self, key: Key) -> int:
        """Insert the node ``key`` (idempotent); return its id."""
        node_id = self.ids.get(key)
        if node_id is None:
            node_id = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.up.append([])
            self.down.append([])
        return node_id

    def add_node(self, node: LatticeNode) -> int:
        """Insert ``node`` (idempotent); return its id."""
        for name in node.attributes:
            if name not in self._ranks:
                self._ranks[name] = len(self.attributes)
                self.attributes.append(name)
        return self.add_key(self.key_of(node))

    def add_edge(self, start: LatticeNode | int, end: LatticeNode | int) -> None:
        start_id = start if isinstance(start, int) else self.id_of(start)
        end_id = end if isinstance(end, int) else self.id_of(end)
        if end_id not in self.up[start_id]:
            self.up[start_id].append(end_id)
            self.down[end_id].append(start_id)

    def key_of(self, node: LatticeNode) -> Key:
        """``node``'s key, pairs in the node's own attribute order.

        An attribute the graph has never seen gets rank -1: such a key misses.
        """
        return tuple(
            (self._ranks.get(name, -1), level) for name, level in node.items()
        )

    def node_of(self, node_id: int) -> LatticeNode:
        key = self.keys[node_id]
        return LatticeNode(
            tuple(self.attributes[rank] for rank, _ in key),
            tuple(level for _, level in key),
        )

    def id_of(self, node: LatticeNode) -> int:
        try:
            return self.ids[self.key_of(node)]
        except KeyError:
            raise KeyError(f"{node} is not in this graph") from None

    def root_ids(self) -> list[int]:
        """Ids of the nodes with no incoming edge, in id order."""
        down = self.down
        return [node_id for node_id in range(1, len(down)) if not down[node_id]]

    def __len__(self) -> int:
        return len(self.keys) - 1

    def __contains__(self, node: LatticeNode) -> bool:
        return self.key_of(node) in self.ids

    def __iter__(self) -> Iterator[LatticeNode]:
        return map(self.node_of, range(1, len(self.keys)))

    @property
    def nodes(self) -> list[LatticeNode]:
        return list(self)

    def edges(self) -> Iterator[tuple[LatticeNode, LatticeNode]]:
        for start_id in range(1, len(self.keys)):
            for end_id in self.up[start_id]:
                yield self.node_of(start_id), self.node_of(end_id)

    def num_edges(self) -> int:
        return sum(len(ends) for ends in self.up)

    def direct_generalizations(self, node: LatticeNode | int) -> list[LatticeNode]:
        node_id = node if isinstance(node, int) else self.id_of(node)
        return [self.node_of(end) for end in self.up[node_id]]

    def direct_specializations(self, node: LatticeNode | int) -> list[LatticeNode]:
        node_id = node if isinstance(node, int) else self.id_of(node)
        return [self.node_of(start) for start in self.down[node_id]]

    def roots(self) -> list[LatticeNode]:
        """Nodes with no incoming direct-generalization edge."""
        return [self.node_of(node_id) for node_id in self.root_ids()]

    def families(self) -> dict[tuple[str, ...], list[LatticeNode]]:
        """Group nodes by attribute set (the paper's root 'families')."""
        grouped: dict[tuple[str, ...], list[LatticeNode]] = {}
        for node in self:
            grouped.setdefault(node.attributes, []).append(node)
        return grouped

    def generalizations_closure(self, node: LatticeNode) -> list[LatticeNode]:
        """All nodes reachable from ``node`` along edges (direct + implied)."""
        seen: set[int] = set()
        stack = [self.id_of(node)]
        order: list[LatticeNode] = []
        while stack:
            for end in self.up[stack.pop()]:
                if end not in seen:
                    seen.add(end)
                    order.append(self.node_of(end))
                    stack.append(end)
        return order

    # ------------------------------------------------------------------
    # relational export (Figure 6)
    # ------------------------------------------------------------------
    def to_tables(self) -> tuple[Table, Table]:
        """Export as the (Nodes, Edges) relations of Figure 6.

        The Nodes relation has columns ``ID, dim1, index1, ..., dimI, indexI``
        where I is the attribute-subset size (all nodes in one candidate
        graph share it); Edges has ``start, end``.
        """
        keys = self.keys[1:]
        size = len(keys[0]) if keys else 0
        if any(len(key) != size for key in keys):
            raise ValueError("mixed subset sizes cannot export to one relation")
        names = ["ID"]
        for position in range(1, size + 1):
            names.extend([f"dim{position}", f"index{position}"])
        rows = []
        for node_id, key in enumerate(keys, start=1):
            row: list = [node_id]
            for rank, level in key:
                row.extend([self.attributes[rank], level])
            rows.append(tuple(row))
        nodes_table = Table.from_rows(Schema.of(*names), rows)
        edge_rows = sorted(
            (start, end) for start, ends in enumerate(self.up) for end in ends
        )
        edges_table = Table.from_rows(Schema.of("start", "end"), edge_rows)
        return nodes_table, edges_table

    @classmethod
    def from_lattice(cls, lattice) -> "CandidateGraph":
        """Materialise a full :class:`GeneralizationLattice` as a graph."""
        graph = cls(lattice.attributes)
        for node in lattice.breadth_first():
            graph.add_node(node)
        for start, end in lattice.edges():
            graph.add_edge(start, end)
        return graph

    def __repr__(self) -> str:
        return f"CandidateGraph(nodes={len(self)}, edges={self.num_edges()})"


def subset_lattice_sizes(graph: CandidateGraph) -> dict[tuple[str, ...], int]:
    """Node count per family — handy for pruning-effect reports (Fig 7)."""
    return {family: len(nodes) for family, nodes in graph.families().items()}
