"""Lattice nodes: multi-attribute domain vectors.

A :class:`LatticeNode` names a subset of the quasi-identifier attributes and
assigns each a generalization level — e.g. ``⟨S1, Z0⟩`` from Figure 3 is
``LatticeNode(("Sex", "Zipcode"), (1, 0))``.  Nodes are immutable, hashable
value objects.  They define no ``<``; sort them with
``key=LatticeNode.sort_key`` — (height, attributes, levels) — which keeps
breadth-first queues and candidate graphs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence


@dataclass(frozen=True, order=False)
class LatticeNode:
    """A domain vector: one generalization level per named attribute."""

    attributes: tuple[str, ...]
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.attributes) != len(self.levels):
            raise ValueError(
                f"{len(self.attributes)} attributes but {len(self.levels)} levels"
            )
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError(f"duplicate attributes in {self.attributes!r}")
        if any(level < 0 for level in self.levels):
            raise ValueError(f"negative level in {self.levels!r}")

    @classmethod
    def of(cls, mapping: Mapping[str, int] | Sequence[tuple[str, int]]) -> "LatticeNode":
        """Build from {attribute: level} (order preserved)."""
        items = list(mapping.items()) if isinstance(mapping, Mapping) else list(mapping)
        return cls(tuple(name for name, _ in items), tuple(level for _, level in items))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of attributes in the vector."""
        return len(self.attributes)

    @property
    def height(self) -> int:
        """Sum of the distance vector from the zero generalization."""
        return sum(self.levels)

    def level_of(self, attribute: str) -> int:
        try:
            return self.levels[self.attributes.index(attribute)]
        except ValueError:
            raise KeyError(
                f"{attribute!r} not in node over {self.attributes}"
            ) from None

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.attributes, self.levels))

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(zip(self.attributes, self.levels))

    def __str__(self) -> str:
        inner = ", ".join(
            f"{name[0].upper()}{level}" for name, level in self.items()
        )
        return f"<{inner}>"

    def label(self) -> str:
        """Verbose label, e.g. ``Sex=1, Zipcode=0``."""
        return ", ".join(f"{name}={level}" for name, level in self.items())

    # ------------------------------------------------------------------
    # lattice relations
    # ------------------------------------------------------------------
    def same_attributes(self, other: "LatticeNode") -> bool:
        return self.attributes == other.attributes

    def distance_vector(self, other: "LatticeNode") -> tuple[int, ...]:
        """Per-attribute level distance to ``other`` (paper Figure 3b).

        Requires the same attribute set; ``other`` must be at a level >=
        this node's in every component.
        """
        if not self.same_attributes(other):
            raise ValueError(
                f"distance vector needs matching attributes: "
                f"{self.attributes} vs {other.attributes}"
            )
        vector = tuple(b - a for a, b in zip(self.levels, other.levels))
        if any(d < 0 for d in vector):
            raise ValueError(f"{other} is not a generalization of {self}")
        return vector

    def generalizes(self, other: "LatticeNode") -> bool:
        """True when this node is ``other`` or an (implied) generalization.

        Componentwise ``>=`` over a shared attribute set (paper: Di <=_D Dj
        in every dimension).
        """
        return self.same_attributes(other) and all(
            mine >= theirs for mine, theirs in zip(self.levels, other.levels)
        )

    def is_direct_generalization_of(self, other: "LatticeNode") -> bool:
        """True when exactly one component is one step higher (an edge)."""
        if not self.same_attributes(other):
            return False
        deltas = [mine - theirs for mine, theirs in zip(self.levels, other.levels)]
        return sorted(deltas) == [0] * (len(deltas) - 1) + [1]

    def with_level(self, attribute: str, level: int) -> "LatticeNode":
        """Copy with ``attribute``'s level replaced."""
        position = self.attributes.index(attribute)
        levels = list(self.levels)
        levels[position] = level
        return LatticeNode(self.attributes, tuple(levels))

    def subset(self, attributes: Sequence[str]) -> "LatticeNode":
        """Project onto a subset of attributes, keeping their levels."""
        return LatticeNode(
            tuple(attributes), tuple(self.level_of(name) for name in attributes)
        )

    def drop(self, attribute: str) -> "LatticeNode":
        """Project out one attribute."""
        return self.subset(tuple(a for a in self.attributes if a != attribute))

    def merge(self, other: "LatticeNode") -> "LatticeNode":
        """Union of two nodes over disjoint attribute sets (levels kept)."""
        overlap = set(self.attributes) & set(other.attributes)
        if overlap:
            raise ValueError(f"attributes overlap: {sorted(overlap)}")
        return LatticeNode(
            self.attributes + other.attributes, self.levels + other.levels
        )

    def sort_key(self) -> tuple:
        return (self.height, self.attributes, self.levels)
