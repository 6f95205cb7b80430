"""Graph pattern queries ``q(x) ← GP`` and the subjQ/predQ/objQ probes.

A :class:`GraphPatternQuery` of arity *n* pairs a graph pattern with an
ordered tuple of free variables drawn from ``var(GP)``; the remaining
pattern variables are existentially quantified (Section 2.1).  The module
also defines the three special probe queries of Section 2.3 —
``subjQ(c)``, ``predQ(c)`` and ``objQ(c)`` — used by the semantics of
equivalence mappings.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.errors import QueryError
from repro.rdf.terms import Term, Variable
from repro.rdf.triples import TriplePattern
from repro.gpq.pattern import GraphPattern

__all__ = [
    "GraphPatternQuery",
    "subj_query",
    "pred_query",
    "obj_query",
]


class GraphPatternQuery:
    """A graph pattern query ``q(x₁,…,xₙ) ← GP``.

    Args:
        head: ordered free variables ``x``; duplicates are not allowed.
        pattern: the body graph pattern ``GP``.
        name: optional label used in diagnostics (defaults to ``q``).

    Raises:
        QueryError: if a head variable does not occur in the body, or the
            head contains duplicates.
    """

    __slots__ = ("head", "pattern", "name", "_hash")

    def __init__(
        self,
        head: Sequence[Variable],
        pattern: GraphPattern,
        name: str = "q",
    ) -> None:
        head_tuple: Tuple[Variable, ...] = tuple(head)
        for var in head_tuple:
            if not isinstance(var, Variable):
                raise QueryError(f"head element must be a Variable, got {var!r}")
        if len(set(head_tuple)) != len(head_tuple):
            raise QueryError("duplicate variable in query head")
        body_vars = pattern.variables()
        missing = [v for v in head_tuple if v not in body_vars]
        if missing:
            names = ", ".join(v.name for v in missing)
            raise QueryError(
                f"free variable(s) {names} do not occur in the query body"
            )
        object.__setattr__(self, "head", head_tuple)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((head_tuple, pattern)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GraphPatternQuery is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.head)

    def existential_variables(self) -> FrozenSet[Variable]:
        """Variables of the body that are not free (the paper's ``y``)."""
        return self.pattern.variables() - set(self.head)

    def conjuncts(self) -> List[TriplePattern]:
        return self.pattern.conjuncts()

    def is_boolean(self) -> bool:
        """True for arity-0 queries (the BCQs of Section 4)."""
        return self.arity == 0

    def iris(self) -> FrozenSet:
        return self.pattern.iris()

    # -- operations ----------------------------------------------------------

    def substitute(self, mapping: Dict[Variable, Term]) -> "GraphPatternQuery":
        """Substitute ground terms for some *free* variables.

        Substituted variables leave the head (they are no longer free);
        this is how the Listing-2 tuple check turns a SELECT query into an
        ASK query.

        Raises:
            QueryError: if an existential variable is being substituted.
        """
        existential = self.existential_variables()
        for var in mapping:
            if var in existential:
                raise QueryError(
                    f"cannot substitute existential variable {var}"
                )
        new_head = tuple(v for v in self.head if v not in mapping)
        return GraphPatternQuery(
            new_head, self.pattern.substitute(mapping), name=self.name
        )

    def bind_tuple(self, values: Sequence[Term]) -> "GraphPatternQuery":
        """Substitute the whole head with a candidate answer tuple.

        Returns the Boolean query asking "is ``values`` an answer?"
        (the reduction used in Example 3 / Listing 2).

        Raises:
            QueryError: if the tuple arity does not match.
        """
        if len(values) != self.arity:
            raise QueryError(
                f"expected {self.arity} values, got {len(values)}"
            )
        return self.substitute(dict(zip(self.head, values)))

    # -- value object ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphPatternQuery):
            return NotImplemented
        return self.head == other.head and self.pattern == other.pattern

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GraphPatternQuery({self.to_text()})"

    def to_text(self) -> str:
        """Paper-style rendering ``q(x, y) <- GP``."""
        head = ", ".join(v.n3() for v in self.head)
        return f"{self.name}({head}) <- {self.pattern.to_text()}"


# ---------------------------------------------------------------------------
# The three probe queries of Section 2.3.
# ---------------------------------------------------------------------------

_X_SUBJ = Variable("xsubj")
_X_PRED = Variable("xpred")
_X_OBJ = Variable("xobj")


def subj_query(constant: Term) -> GraphPatternQuery:
    """``subjQ(c) := q(x_pred, x_obj) ← (c, x_pred, x_obj)``."""
    tp = TriplePattern(constant, _X_PRED, _X_OBJ)
    return GraphPatternQuery(
        (_X_PRED, _X_OBJ), GraphPattern.leaf(tp), name="subjQ"
    )


def pred_query(constant: Term) -> GraphPatternQuery:
    """``predQ(c) := q(x_subj, x_obj) ← (x_subj, c, x_obj)``."""
    tp = TriplePattern(_X_SUBJ, constant, _X_OBJ)
    return GraphPatternQuery(
        (_X_SUBJ, _X_OBJ), GraphPattern.leaf(tp), name="predQ"
    )


def obj_query(constant: Term) -> GraphPatternQuery:
    """``objQ(c) := q(x_subj, x_pred) ← (x_subj, x_pred, c)``."""
    tp = TriplePattern(_X_SUBJ, _X_PRED, constant)
    return GraphPatternQuery(
        (_X_SUBJ, _X_PRED), GraphPattern.leaf(tp), name="objQ"
    )
