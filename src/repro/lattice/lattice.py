"""The complete multi-attribute generalization lattice (paper Section 2).

Given attribute names and their hierarchy heights, the lattice is the cross
product of per-attribute level chains.  Its bottom is the zero
generalization, its top the vector of maximum levels; edges are direct
multi-attribute domain generalizations (one attribute, one level step).
Figure 3(a) is ``GeneralizationLattice(("Sex", "Zipcode"), (1, 2))``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Mapping, Sequence

from repro.lattice.node import LatticeNode


class GeneralizationLattice:
    """The full lattice over a fixed attribute set."""

    def __init__(
        self, attributes: Sequence[str], heights: Sequence[int] | Mapping[str, int]
    ) -> None:
        attributes = tuple(attributes)
        if isinstance(heights, Mapping):
            heights = tuple(heights[name] for name in attributes)
        else:
            heights = tuple(heights)
        if len(attributes) != len(heights):
            raise ValueError(
                f"{len(attributes)} attributes but {len(heights)} heights"
            )
        if not attributes:
            raise ValueError("lattice needs at least one attribute")
        if any(height < 0 for height in heights):
            raise ValueError(f"negative height in {heights!r}")
        self._attributes = attributes
        self._heights = heights

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attributes

    @property
    def heights(self) -> tuple[int, ...]:
        return self._heights

    # ------------------------------------------------------------------
    # extremes and size
    # ------------------------------------------------------------------
    @property
    def bottom(self) -> LatticeNode:
        """The zero generalization (most specific domain vector)."""
        return LatticeNode(self._attributes, (0,) * len(self._attributes))

    @property
    def top(self) -> LatticeNode:
        """The most general domain vector."""
        return LatticeNode(self._attributes, self._heights)

    @property
    def max_height(self) -> int:
        return sum(self._heights)

    @property
    def size(self) -> int:
        """Total number of nodes: ∏ (height_i + 1)."""
        return math.prod(height + 1 for height in self._heights)

    def __contains__(self, node: LatticeNode) -> bool:
        return node.attributes == self._attributes and all(
            0 <= level <= height
            for level, height in zip(node.levels, self._heights)
        )

    def _require(self, node: LatticeNode) -> None:
        if node not in self:
            raise ValueError(f"{node} is not a node of {self!r}")

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[LatticeNode]:
        """All nodes, in lexicographic level order."""
        ranges = [range(height + 1) for height in self._heights]
        for levels in itertools.product(*ranges):
            yield LatticeNode(self._attributes, levels)

    def nodes_at_height(self, height: int) -> list[LatticeNode]:
        """All nodes whose distance-vector sum equals ``height``."""
        return [node for node in self.nodes() if node.height == height]

    def successors(self, node: LatticeNode) -> list[LatticeNode]:
        """Direct generalizations: one attribute, one level up."""
        return self._steps(node, 1)

    def predecessors(self, node: LatticeNode) -> list[LatticeNode]:
        """Direct specializations: one attribute, one level down."""
        return self._steps(node, -1)

    def _steps(self, node: LatticeNode, step: int) -> list[LatticeNode]:
        self._require(node)
        result = []
        for position, height in enumerate(self._heights):
            levels = list(node.levels)
            levels[position] += step
            if 0 <= levels[position] <= height:
                result.append(LatticeNode(self._attributes, tuple(levels)))
        return result

    def edges(self) -> Iterator[tuple[LatticeNode, LatticeNode]]:
        """All direct generalization edges (specific → general)."""
        for node in self.nodes():
            for successor in self.successors(node):
                yield node, successor

    def generalizations_of(self, node: LatticeNode) -> Iterator[LatticeNode]:
        """All direct and implied generalizations of ``node`` (excl. itself)."""
        self._require(node)
        ranges = [
            range(level, height + 1)
            for level, height in zip(node.levels, self._heights)
        ]
        for levels in itertools.product(*ranges):
            if levels != node.levels:
                yield LatticeNode(self._attributes, levels)

    def breadth_first(self) -> Iterator[LatticeNode]:
        """Nodes in non-decreasing height order (bottom-up BFS order)."""
        for height in range(self.max_height + 1):
            yield from self.nodes_at_height(height)

    def meet(self, nodes: Sequence[LatticeNode]) -> LatticeNode:
        """Greatest lower bound: componentwise minimum level."""
        return self._bound(nodes, min, "meet")

    def join(self, nodes: Sequence[LatticeNode]) -> LatticeNode:
        """Least upper bound: componentwise maximum level."""
        return self._bound(nodes, max, "join")

    def _bound(self, nodes: Sequence[LatticeNode], pick, name: str) -> LatticeNode:
        if not nodes:
            raise ValueError(f"{name} of no nodes")
        for node in nodes:
            self._require(node)
        levels = zip(*(node.levels for node in nodes))
        return LatticeNode(self._attributes, tuple(map(pick, levels)))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}:{height}" for name, height in zip(self._attributes, self._heights)
        )
        return f"GeneralizationLattice({pairs})"
