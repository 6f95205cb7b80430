"""Translation from SPARQL to graph pattern queries.

The paper notes (end of Section 2.1) that the graph pattern query
language "can be seen as a conjunctive fragment of SPARQL, so a graph
pattern query can always be translated to a conjunctive SPARQL query and
vice versa".  This module translates from SPARQL:

* :func:`sparql_to_gpq` — SELECT/ASK with a pure-BGP WHERE clause becomes
  a :class:`~repro.gpq.query.GraphPatternQuery`;
* :func:`sparql_to_branches` — the general form: any SELECT/ASK in the
  supported fragment (BGP + UNION + FILTER + OPTIONAL, arbitrarily
  nested) becomes a projection head plus a *union of conjunctive
  branches*, each branch a BGP with its FILTER constraints and a
  sequence of :class:`OptionalBlock` left-join extensions.  This is the
  shape the federated executor runs: UNION branches become independent
  per-endpoint sub-queries, branch filters are pushed into them, and
  optional blocks become federated ``LeftJoin`` operators evaluated
  after the required part.

``OPTIONAL`` is supported for *well-designed* patterns (Pérez et al.):
a variable occurring inside an optional group and outside it must also
occur in the group's required side.  Distributing joins over the left
side of a ``LeftJoin`` is exact only under that restriction, so
non-well-designed queries are rejected rather than silently answered
wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple, Union

from repro.errors import UnsupportedSparqlError
from repro.gpq.pattern import GraphPattern
from repro.gpq.query import GraphPatternQuery
from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.algebra import (
    AlgebraNode,
    Bgp,
    Filter,
    Join,
    LeftJoin,
    translate_group,
)
from repro.sparql.algebra import Union as AlgebraUnion
from repro.sparql.ast import (
    AskQuery,
    BooleanExpr,
    Comparison,
    FilterExpr,
    GroupPattern,
    OptionalPattern,
    Query,
    SelectQuery,
    UnionPattern,
)
from repro.sparql.parser import parse_query

__all__ = [
    "ConjunctiveBranch",
    "OptionalBlock",
    "sparql_to_gpq",
    "sparql_to_branches",
]

#: Normalisation cap: a query whose disjunctive normal form exceeds this
#: many branches is rejected rather than silently exploding (each UNION
#: under a join multiplies branch counts).
MAX_BRANCHES = 64


def _flatten_bgp(group: GroupPattern) -> List:
    """Collect triple patterns from a group, recursing into plain groups.

    Raises:
        UnsupportedSparqlError: if the group contains UNION or FILTER.
    """
    patterns = []
    for element in group.elements:
        if isinstance(element, GroupPattern):
            patterns.extend(_flatten_bgp(element))
        elif isinstance(element, UnionPattern):
            raise UnsupportedSparqlError(
                "UNION cannot be translated to a single graph pattern query"
            )
        elif isinstance(element, OptionalPattern):
            raise UnsupportedSparqlError(
                "OPTIONAL cannot be translated to a graph pattern query"
            )
        elif hasattr(element, "op"):  # Comparison / BooleanExpr
            raise UnsupportedSparqlError(
                "FILTER cannot be translated to a graph pattern query"
            )
        else:
            patterns.append(element)
    return patterns


def sparql_to_gpq(
    query: Union[str, Query], nsm: Optional[NamespaceManager] = None
) -> GraphPatternQuery:
    """Translate a conjunctive SELECT/ASK query into a graph pattern query.

    SELECT's projection becomes the head; ASK becomes an arity-0 query.

    Raises:
        UnsupportedSparqlError: if the WHERE clause is not a pure BGP, or
            the query uses solution modifiers that have no GPQ equivalent
            (ORDER BY / LIMIT / OFFSET).
    """
    ast = parse_query(query, nsm) if isinstance(query, str) else query
    if isinstance(ast, SelectQuery):
        if ast.order or ast.limit is not None or ast.offset is not None:
            raise UnsupportedSparqlError(
                "ORDER BY/LIMIT/OFFSET have no graph-pattern-query equivalent"
            )
        patterns = _flatten_bgp(ast.where)
        if not patterns:
            raise UnsupportedSparqlError("empty WHERE clause")
        head = ast.projected()
        return GraphPatternQuery(head, GraphPattern.conjunction(patterns))
    if isinstance(ast, AskQuery):
        patterns = _flatten_bgp(ast.where)
        if not patterns:
            raise UnsupportedSparqlError("empty WHERE clause")
        return GraphPatternQuery((), GraphPattern.conjunction(patterns))
    raise UnsupportedSparqlError(f"cannot translate {type(ast).__name__}")


@dataclass(frozen=True)
class OptionalBlock:
    """One ``OPTIONAL`` extension attached to a conjunctive branch.

    Attributes:
        branches: the optional group normalised to its own union of
            conjunctive branches (a UNION inside OPTIONAL stays *inside*
            the block — left joins do not distribute over their right
            side).  Optional branches carry no nested optionals.
        expr: the optional group's top-level FILTER condition, evaluated
            on the *merged* row (required ∪ optional bindings), or
            ``None`` for unconditional extension.
    """

    branches: Tuple["ConjunctiveBranch", ...]
    expr: Optional[FilterExpr] = None

    def variables(self) -> FrozenSet[Variable]:
        """Variables the optional side itself can bind."""
        out: set = set()
        for branch in self.branches:
            out.update(branch.variables())
        return frozenset(out)

    def condition_variables(self) -> FrozenSet[Variable]:
        """Variables the block's LeftJoin condition mentions."""
        if self.expr is None:
            return frozenset()
        return frozenset(self.expr.variables())


@dataclass(frozen=True)
class ConjunctiveBranch:
    """One disjunct of a normalised WHERE clause.

    Attributes:
        patterns: the branch's required BGP (conjunction of patterns).
        filters: FILTER expressions scoped to this branch.  A filter
            mentioning a variable the branch never binds keeps SPARQL's
            error semantics: the comparison evaluates to false.  A
            filter mentioning an optional variable is decidable only
            after the optional extension ran.
        optionals: left-join extensions applied, in order, after the
            required part (and before filters that need their
            variables).
    """

    patterns: Tuple[TriplePattern, ...]
    filters: Tuple[FilterExpr, ...] = ()
    optionals: Tuple[OptionalBlock, ...] = ()

    def required_variables(self) -> FrozenSet[Variable]:
        out: set = set()
        for tp in self.patterns:
            out.update(tp.variables())
        return frozenset(out)

    def variables(self) -> FrozenSet[Variable]:
        out: set = set(self.required_variables())
        for block in self.optionals:
            out.update(block.variables())
        return frozenset(out)


def _specialize(expr: FilterExpr, scope: FrozenSet[Variable]):
    """Specialise a filter to the variables its group can ever bind.

    SPARQL filters scope to their group: a comparison over a variable
    the group never binds evaluates under an unbound variable and
    error-collapses to false — even if an *enclosing* group later binds
    the variable through a join.  This rewrite bakes that in before the
    filter leaves its group during normalisation: out-of-scope
    comparisons become constant false and the boolean structure is
    simplified.  Returns ``False`` when the whole filter is statically
    false (the branch is empty), else a (possibly smaller) expression.
    """
    if isinstance(expr, Comparison):
        for side in (expr.left, expr.right):
            if isinstance(side, Variable) and side not in scope:
                return False
        return expr
    assert isinstance(expr, BooleanExpr)
    left = _specialize(expr.left, scope)
    right = _specialize(expr.right, scope)
    if expr.op == "&&":
        if left is False or right is False:
            return False
    else:  # "||"
        if left is False:
            return right
        if right is False:
            return left
    if left is expr.left and right is expr.right:
        return expr
    return BooleanExpr(expr.op, left, right)


def _dnf(node: AlgebraNode) -> List[ConjunctiveBranch]:
    """Distribute joins and filters over unions: the DNF of the algebra.

    Exact under set semantics — ``(A UNION B) JOIN C`` equals
    ``(A JOIN C) UNION (B JOIN C)`` and filters distribute over both —
    which the pushdown test suite asserts against the single-graph
    planner on randomized workloads.  Filters are specialised to their
    group's variable scope before they attach to a branch (see
    :func:`_specialize`), so group-scoped unbound-variable semantics
    survive the flattening.
    """
    if isinstance(node, Bgp):
        return [ConjunctiveBranch(node.patterns)]
    if isinstance(node, Join):
        left = _dnf(node.left)
        right = _dnf(node.right)
        if len(left) * len(right) > MAX_BRANCHES:
            raise UnsupportedSparqlError(
                f"query normalises to more than {MAX_BRANCHES} conjunctive "
                "branches"
            )
        out = []
        for lhs in left:
            for rhs in right:
                _check_well_designed(lhs, rhs)
                _check_well_designed(rhs, lhs)
                out.append(
                    ConjunctiveBranch(
                        lhs.patterns + rhs.patterns,
                        lhs.filters + rhs.filters,
                        lhs.optionals + rhs.optionals,
                    )
                )
        return out
    if isinstance(node, AlgebraUnion):
        return _dnf(node.left) + _dnf(node.right)
    if isinstance(node, LeftJoin):
        left = _dnf(node.left)
        right = _dnf(node.right)
        if len(right) > MAX_BRANCHES:
            raise UnsupportedSparqlError(
                f"OPTIONAL group normalises to more than {MAX_BRANCHES} "
                "conjunctive branches"
            )
        for branch in right:
            if branch.optionals:
                raise UnsupportedSparqlError(
                    "nested OPTIONAL is outside the supported fragment"
                )
        block = OptionalBlock(tuple(right), node.expr)
        # LeftJoin distributes over a UNION on its *left* side (each
        # solution of the union extends independently), so each left
        # branch carries its own copy of the block.
        return [
            ConjunctiveBranch(
                lhs.patterns, lhs.filters, lhs.optionals + (block,)
            )
            for lhs in left
        ]
    if isinstance(node, Filter):
        out = []
        for branch in _dnf(node.child):
            expr = _specialize(node.expr, branch.variables())
            if expr is False:
                continue  # statically false: the branch yields nothing
            out.append(
                ConjunctiveBranch(
                    branch.patterns, branch.filters + (expr,), branch.optionals
                )
            )
        return out
    raise UnsupportedSparqlError(f"cannot normalise {type(node).__name__}")


def _check_well_designed(
    lhs: ConjunctiveBranch, rhs: ConjunctiveBranch
) -> None:
    """Reject a join that would break ``lhs``'s optional blocks.

    Evaluating a branch's optionals after its whole required join is
    exact only when the pattern is *well-designed*: a variable occurring
    inside an optional block — in its patterns *or* its hoisted FILTER
    condition — and not bound by the block's own required side may not
    also occur in the other join operand (``Join(LeftJoin(A, B), C)``
    equals ``LeftJoin(Join(A, C), B)`` only when
    ``var(B) ∩ var(C) ⊆ var(A)``).  The condition variables matter
    because the algebra evaluates the condition *at* the inner LeftJoin,
    where a variable the outer join would later bind is still unbound
    (error-collapsing the comparison to false).
    """
    required = lhs.required_variables()
    other = set(rhs.variables())
    for block in rhs.optionals:
        other |= block.condition_variables()
    for block in lhs.optionals:
        block_vars = block.variables() | block.condition_variables()
        leaked = (block_vars - required) & other
        if leaked:
            names = ", ".join(sorted(f"?{v.name}" for v in leaked))
            raise UnsupportedSparqlError(
                f"OPTIONAL pattern is not well-designed: {names} occur(s) "
                "inside an optional group and in a pattern joined from "
                "outside it"
            )


def sparql_to_branches(
    query: Union[str, Query], nsm: Optional[NamespaceManager] = None
) -> Tuple[Tuple[Variable, ...], List[ConjunctiveBranch]]:
    """Normalise a SELECT/ASK query into ``(head, conjunctive branches)``.

    The union of the branches (each a BGP plus its filters, projected on
    ``head``) has exactly the query's answer set; a branch that does not
    bind a head variable leaves its cell unbound (``None`` in projected
    rows), matching the single-graph planner.

    Solution modifiers (ORDER BY/LIMIT/OFFSET) are *not* applied here —
    branches describe the WHERE clause only.  The federated executor
    reads the modifiers off the AST itself and applies them through its
    demand-aware operator layer (:mod:`repro.federation.plan`).

    Raises:
        UnsupportedSparqlError: for non-SELECT/ASK queries, queries
            whose DNF exceeds :data:`MAX_BRANCHES`, nested OPTIONAL, or
            non-well-designed OPTIONAL patterns.
    """
    ast = parse_query(query, nsm) if isinstance(query, str) else query
    if isinstance(ast, SelectQuery):
        head = ast.projected()
        where = ast.where
    elif isinstance(ast, AskQuery):
        head = ()
        where = ast.where
    else:
        raise UnsupportedSparqlError(f"cannot translate {type(ast).__name__}")
    branches = _dnf(translate_group(where))
    if len(branches) > MAX_BRANCHES:
        raise UnsupportedSparqlError(
            f"query normalises to more than {MAX_BRANCHES} conjunctive "
            "branches"
        )
    # Drop exact duplicates (a UNION of identical groups is legal SPARQL).
    seen = set()
    unique: List[ConjunctiveBranch] = []
    for branch in branches:
        if branch not in seen:
            seen.add(branch)
            unique.append(branch)
    return head, unique
