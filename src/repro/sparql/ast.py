"""Abstract syntax tree for the SPARQL conjunctive fragment.

The AST mirrors the grammar accepted by :mod:`repro.sparql.parser`:

* a query is ``SELECT`` (with projection, modifiers) or ``ASK``;
* the ``WHERE`` clause is a *group*: a sequence of triple patterns,
  nested groups, ``UNION`` alternatives, ``OPTIONAL`` extensions and
  ``FILTER`` constraints.

Nodes are immutable dataclasses; the algebra translation lives in
:mod:`repro.sparql.algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple, Union

from repro.rdf.terms import Term, Variable
from repro.rdf.triples import TriplePattern

__all__ = [
    "Comparison",
    "BooleanExpr",
    "FilterExpr",
    "GroupPattern",
    "UnionPattern",
    "OptionalPattern",
    "PatternElement",
    "SelectQuery",
    "AskQuery",
    "Query",
    "OrderCondition",
]


@dataclass(frozen=True)
class Comparison:
    """An (in)equality test between two terms/variables."""

    left: Term
    op: str  # "=" or "!="
    right: Term

    def variables(self) -> FrozenSet[Variable]:
        out = set()
        for side in (self.left, self.right):
            if isinstance(side, Variable):
                out.add(side)
        return frozenset(out)


@dataclass(frozen=True)
class BooleanExpr:
    """Conjunction/disjunction of comparisons: ``expr (&&/||) expr``."""

    op: str  # "&&" or "||"
    left: "FilterExpr"
    right: "FilterExpr"

    def variables(self) -> FrozenSet[Variable]:
        return self.left.variables() | self.right.variables()


FilterExpr = Union[Comparison, BooleanExpr]


@dataclass(frozen=True)
class UnionPattern:
    """``{...} UNION {...} UNION ...`` — two or more alternatives."""

    alternatives: Tuple["GroupPattern", ...]

    def variables(self) -> FrozenSet[Variable]:
        out: set = set()
        for alt in self.alternatives:
            out.update(alt.variables())
        return frozenset(out)


@dataclass(frozen=True)
class OptionalPattern:
    """``OPTIONAL { ... }`` — a left-join extension of what precedes it.

    SPARQL semantics: solutions of the group so far are extended with
    compatible solutions of ``group`` where any exist and kept unchanged
    where none do (the algebra's ``LeftJoin``).
    """

    group: "GroupPattern"

    def variables(self) -> FrozenSet[Variable]:
        return self.group.variables()


PatternElement = Union[TriplePattern, "GroupPattern", UnionPattern,
                       OptionalPattern, Comparison, BooleanExpr]


@dataclass(frozen=True)
class GroupPattern:
    """A brace-delimited group: triple patterns, groups, unions, filters."""

    elements: Tuple[PatternElement, ...]

    def variables(self) -> FrozenSet[Variable]:
        out: set = set()
        for element in self.elements:
            if isinstance(element, TriplePattern):
                out.update(element.variables())
            else:
                out.update(element.variables())
        return frozenset(out)

    def triple_patterns(self) -> List[TriplePattern]:
        """All triple patterns at this level (not inside nested groups)."""
        return [e for e in self.elements if isinstance(e, TriplePattern)]


@dataclass(frozen=True)
class OrderCondition:
    """One ``ORDER BY`` key."""

    variable: Variable
    descending: bool = False


@dataclass(frozen=True)
class SelectQuery:
    """A ``SELECT`` query.

    Attributes:
        variables: projected variables; empty tuple means ``SELECT *``.
        where: the WHERE group.
        distinct: ``SELECT DISTINCT`` (set semantics is the default in
            this library; DISTINCT only affects result *sequences*).
        reduced: ``SELECT REDUCED`` (treated as DISTINCT).
        order: ORDER BY conditions.
        limit / offset: result slicing; ``None`` means unbounded.
    """

    variables: Tuple[Variable, ...]
    where: GroupPattern
    distinct: bool = False
    reduced: bool = False
    order: Tuple[OrderCondition, ...] = field(default_factory=tuple)
    limit: Optional[int] = None
    offset: Optional[int] = None

    def projected(self) -> Tuple[Variable, ...]:
        """Projection list; for ``SELECT *``, all WHERE variables sorted."""
        if self.variables:
            return self.variables
        return tuple(sorted(self.where.variables(), key=lambda v: v.name))


@dataclass(frozen=True)
class AskQuery:
    """An ``ASK`` query (Boolean)."""

    where: GroupPattern


Query = Union[SelectQuery, AskQuery]
