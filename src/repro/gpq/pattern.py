"""Graph patterns: triple patterns closed under AND (Section 2.1).

The paper's grammar is minimal — a graph pattern is either a triple
pattern or ``(GP₁ AND GP₂)``.  :class:`GraphPattern` keeps that recursive
structure (useful for pretty-printing and for the SPARQL bridge) while
also exposing a flattened conjunct list, which is what evaluation and the
data-exchange translation consume.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import QueryError
from repro.rdf.terms import IRI, Literal, Term, Variable
from repro.rdf.triples import TriplePattern

__all__ = ["GraphPattern", "make_pattern"]


class GraphPattern:
    """A graph pattern: a non-empty AND-tree of triple patterns.

    Construct leaves with ``GraphPattern.leaf(tp)`` and conjunctions with
    ``GraphPattern.conjunction([...])``.
    """

    __slots__ = ("_leaf", "_left", "_right", "_hash")

    def __init__(
        self,
        leaf: Optional[TriplePattern] = None,
        left: Optional["GraphPattern"] = None,
        right: Optional["GraphPattern"] = None,
    ) -> None:
        if leaf is not None:
            if left is not None or right is not None:
                raise QueryError("a pattern is either a leaf or an AND, not both")
        else:
            if left is None or right is None:
                raise QueryError("AND pattern needs both operands")
        object.__setattr__(self, "_leaf", leaf)
        object.__setattr__(self, "_left", left)
        object.__setattr__(self, "_right", right)
        object.__setattr__(self, "_hash", hash(("GP", leaf, left, right)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GraphPattern is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def leaf(tp: TriplePattern) -> "GraphPattern":
        """Wrap a single triple pattern."""
        return GraphPattern(leaf=tp)

    @staticmethod
    def conjunction(
        patterns: Sequence[Union[TriplePattern, "GraphPattern"]]
    ) -> "GraphPattern":
        """Left-deep AND of the given patterns.

        Raises:
            QueryError: if ``patterns`` is empty.
        """
        if not patterns:
            raise QueryError("a graph pattern must contain at least one triple pattern")
        nodes = [
            p if isinstance(p, GraphPattern) else GraphPattern.leaf(p)
            for p in patterns
        ]
        out = nodes[0]
        for node in nodes[1:]:
            out = GraphPattern(left=out, right=node)
        return out

    # -- structure -------------------------------------------------------

    def conjuncts(self) -> List[TriplePattern]:
        """Flatten the AND-tree into its leaf triple patterns, in order."""
        out: List[TriplePattern] = []
        stack: List[GraphPattern] = [self]
        while stack:
            node = stack.pop()
            if node._leaf is not None:
                out.append(node._leaf)
            else:
                # push right first so left comes out first
                assert node._right is not None and node._left is not None
                stack.append(node._right)
                stack.append(node._left)
        return out

    def __iter__(self) -> Iterator[TriplePattern]:
        return iter(self.conjuncts())

    def __len__(self) -> int:
        return len(self.conjuncts())

    # -- variables & terms -------------------------------------------------

    def variables(self) -> FrozenSet[Variable]:
        """The set ``var(GP)``."""
        out: set = set()
        for tp in self.conjuncts():
            out.update(tp.variables())
        return frozenset(out)

    def iris(self) -> FrozenSet[IRI]:
        """All IRIs mentioned (used for peer-schema validation)."""
        out: set = set()
        for tp in self.conjuncts():
            out.update(t for t in tp if isinstance(t, IRI))
        return frozenset(out)

    def literals(self) -> FrozenSet[Literal]:
        out: set = set()
        for tp in self.conjuncts():
            out.update(t for t in tp if isinstance(t, Literal))
        return frozenset(out)

    def substitute(self, mapping: Dict[Variable, Term]) -> "GraphPattern":
        """Apply a partial substitution to every leaf."""
        if self._leaf is not None:
            return GraphPattern.leaf(self._leaf.substitute(mapping))
        assert self._left is not None and self._right is not None
        return GraphPattern(
            left=self._left.substitute(mapping),
            right=self._right.substitute(mapping),
        )

    # -- value object ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphPattern):
            return NotImplemented
        return (
            self._leaf == other._leaf
            and self._left == other._left
            and self._right == other._right
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GraphPattern({self.to_text()})"

    def to_text(self) -> str:
        """Paper-style rendering: ``(tp₁ AND tp₂)``."""
        if self._leaf is not None:
            tp = self._leaf
            return (
                f"({tp.subject.n3()}, {tp.predicate.n3()}, {tp.object.n3()})"
            )
        assert self._left is not None and self._right is not None
        return f"({self._left.to_text()} AND {self._right.to_text()})"


def make_pattern(
    *patterns: Union[TriplePattern, Tuple[Term, Term, Term]]
) -> GraphPattern:
    """Convenience constructor from triple patterns or raw 3-tuples.

    Example:
        >>> make_pattern((s, p, Variable("x")), (Variable("x"), q, o))
    """
    tps = [
        p if isinstance(p, TriplePattern) else TriplePattern(*p)
        for p in patterns
    ]
    return GraphPattern.conjunction(tps)
