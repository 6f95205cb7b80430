"""SPARQL algebra: translation from the AST and evaluation over a graph.

The algebra has six operators — ``BGP``, ``Join``, ``Union``,
``LeftJoin`` (the ``OPTIONAL`` construct), ``Filter`` and ``Project``
(plus the ``Distinct``/``Slice``/``OrderBy`` solution modifiers applied
at result construction).  Per the SPARQL translation, filters at the
top level of an ``OPTIONAL`` group become the ``LeftJoin``'s embedded
condition and are evaluated over the *merged* solution, so they may
reference variables of the required side.

:func:`evaluate_algebra` is the *reference* evaluator: it materialises
sets of :class:`~repro.gpq.bindings.SolutionMapping` at every node,
reusing the paper-faithful join semantics from :mod:`repro.gpq`.  The
production path is the ID-native columnar engine in
:mod:`repro.sparql.batch`, which must produce exactly the same solution
sets, read whole or in chunks (asserted by the test suite and the
``sparql`` benchmark suite); this module stays deliberately naive so it
can serve as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple
from typing import Union as TypingUnion

from repro.errors import SparqlEvaluationError
from repro.gpq.bindings import SolutionMapping, join as omega_join, union as omega_union
from repro.gpq.evaluation import evaluate_pattern
from repro.gpq.pattern import GraphPattern
from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.ast import (
    BooleanExpr,
    Comparison,
    FilterExpr,
    GroupPattern,
    OptionalPattern,
    UnionPattern,
)
from repro.sparql.results import _row_key

__all__ = [
    "AlgebraNode",
    "Bgp",
    "Join",
    "Union",
    "LeftJoin",
    "Filter",
    "translate_group",
    "evaluate_algebra",
    "reference_select",
]


@dataclass(frozen=True)
class Bgp:
    """A basic graph pattern: conjunction of triple patterns."""

    patterns: Tuple[TriplePattern, ...]


@dataclass(frozen=True)
class Join:
    left: "AlgebraNode"
    right: "AlgebraNode"


@dataclass(frozen=True)
class Union:
    left: "AlgebraNode"
    right: "AlgebraNode"


@dataclass(frozen=True)
class LeftJoin:
    """``OPTIONAL``: extend left solutions with compatible right ones.

    ``expr`` is the optional group's top-level FILTER condition (``None``
    for unconditional extension); per the SPARQL translation it is
    evaluated on the *merged* solution, unlike filters nested deeper in
    the optional group, which scope to their own group.
    """

    left: "AlgebraNode"
    right: "AlgebraNode"
    expr: Optional[FilterExpr] = None


@dataclass(frozen=True)
class Filter:
    expr: FilterExpr
    child: "AlgebraNode"


AlgebraNode = TypingUnion[Bgp, Join, Union, LeftJoin, Filter]


def translate_group(group: GroupPattern) -> AlgebraNode:
    """Translate a parsed WHERE group into an algebra tree.

    Adjacent triple patterns merge into one BGP (so the optimizer can
    reorder them); nested groups and unions join with what came before;
    ``OPTIONAL`` left-joins everything accumulated so far (the SPARQL
    left-to-right translation), hoisting the optional group's top-level
    filters into the ``LeftJoin`` condition; filters of the group itself
    wrap the whole group (SPARQL filters scope to their group).
    """
    filters: List[FilterExpr] = []
    operands: List[AlgebraNode] = []
    bgp_buffer: List[TriplePattern] = []

    def flush_bgp() -> None:
        if bgp_buffer:
            operands.append(Bgp(tuple(bgp_buffer)))
            bgp_buffer.clear()

    def fold() -> AlgebraNode:
        if not operands:
            # Empty group matches the empty mapping.
            return Bgp(())
        node = operands[0]
        for operand in operands[1:]:
            node = Join(node, operand)
        return node

    for element in group.elements:
        if isinstance(element, TriplePattern):
            bgp_buffer.append(element)
        elif isinstance(element, GroupPattern):
            flush_bgp()
            operands.append(translate_group(element))
        elif isinstance(element, UnionPattern):
            flush_bgp()
            node = translate_group(element.alternatives[0])
            for alt in element.alternatives[1:]:
                node = Union(node, translate_group(alt))
            operands.append(node)
        elif isinstance(element, OptionalPattern):
            flush_bgp()
            # Only the optional group's *direct* filters become the
            # LeftJoin condition (they see the merged solution, per the
            # SPARQL translation's FS collection); a filter inside a
            # nested group keeps that group's scope and stays a Filter
            # node in the translated sub-tree — peeling Filter wrappers
            # off the translated tree instead would wrongly hoist it.
            direct = [
                e
                for e in element.group.elements
                if isinstance(e, (Comparison, BooleanExpr))
            ]
            rest = GroupPattern(
                tuple(
                    e
                    for e in element.group.elements
                    if not isinstance(e, (Comparison, BooleanExpr))
                )
            )
            inner = translate_group(rest)
            expr: Optional[FilterExpr] = None
            for condition in direct:
                expr = (
                    condition
                    if expr is None
                    else BooleanExpr("&&", expr, condition)
                )
            operands[:] = [LeftJoin(fold(), inner, expr)]
        elif isinstance(element, (Comparison, BooleanExpr)):
            filters.append(element)
        else:  # pragma: no cover - parser guarantees element types
            raise SparqlEvaluationError(f"unknown group element {element!r}")
    flush_bgp()

    node = fold()
    for expr in filters:
        node = Filter(expr, node)
    return node


def reference_select(graph: Graph, ast) -> List[Tuple[Optional[Term], ...]]:
    """Naive-but-correct SELECT with solution modifiers (the oracle).

    Evaluates the WHERE clause with :func:`evaluate_algebra`, sorts the
    *full* solution mappings (ORDER BY may name non-projected
    variables), projects, deduplicates keeping the first occurrence, and
    slices — a direct transcription of the SPARQL result-construction
    pipeline, independent of the streaming operators it checks.

    Returns the projected term rows in query order (``None`` = unbound).
    """
    solutions = list(evaluate_algebra(graph, translate_group(ast.where)))
    variables = ast.projected()

    # Canonical tiebreak first, then each ORDER BY condition via stable
    # sorts applied right-to-left, on the terms' own sort keys — a
    # deliberately different algorithm from the engines' packed ranks.
    solutions.sort(key=lambda mu: _row_key([mu.get(v) for v in variables]))
    for condition in reversed(ast.order):
        solutions.sort(
            key=lambda mu: _row_key((mu.get(condition.variable),)),
            reverse=condition.descending,
        )
    rows: List[Tuple[Optional[Term], ...]] = []
    seen: Set[Tuple[Optional[Term], ...]] = set()
    for mu in solutions:
        row = tuple(mu.get(v) for v in variables)
        if row in seen:
            continue
        seen.add(row)
        rows.append(row)
    offset = ast.offset or 0
    rows = rows[offset:]
    if ast.limit is not None:
        rows = rows[: ast.limit]
    return rows


def _eval_filter_expr(expr: FilterExpr, mu: SolutionMapping) -> bool:
    """Evaluate a filter expression under a mapping.

    Unbound variables make the comparison fail (SPARQL error semantics
    collapse to ``false`` in this fragment).
    """
    if isinstance(expr, BooleanExpr):
        left = _eval_filter_expr(expr.left, mu)
        right = _eval_filter_expr(expr.right, mu)
        return (left and right) if expr.op == "&&" else (left or right)
    left = _resolve(expr.left, mu)
    right = _resolve(expr.right, mu)
    if left is None or right is None:
        return False
    return (left == right) if expr.op == "=" else (left != right)


def _resolve(term: Term, mu: SolutionMapping):
    if isinstance(term, Variable):
        return mu.get(term)
    return term


def evaluate_algebra(graph: Graph, node: AlgebraNode) -> Set[SolutionMapping]:
    """Evaluate an algebra tree over a graph (set semantics)."""
    if isinstance(node, Bgp):
        if not node.patterns:
            return {SolutionMapping()}
        pattern = GraphPattern.conjunction(list(node.patterns))
        return evaluate_pattern(graph, pattern)
    if isinstance(node, Join):
        left = evaluate_algebra(graph, node.left)
        if not left:
            return set()
        right = evaluate_algebra(graph, node.right)
        return omega_join(left, right)
    if isinstance(node, Union):
        return omega_union(
            evaluate_algebra(graph, node.left),
            evaluate_algebra(graph, node.right),
        )
    if isinstance(node, LeftJoin):
        left = evaluate_algebra(graph, node.left)
        if not left:
            return set()
        right = evaluate_algebra(graph, node.right)
        out: Set[SolutionMapping] = set()
        for mu1 in left:
            extended = [
                mu1.merge(mu2)
                for mu2 in right
                if mu1.compatible_with(mu2)
            ]
            if node.expr is not None:
                extended = [
                    mu for mu in extended if _eval_filter_expr(node.expr, mu)
                ]
            if extended:
                out.update(extended)
            else:
                out.add(mu1)
        return out
    if isinstance(node, Filter):
        child = evaluate_algebra(graph, node.child)
        return {mu for mu in child if _eval_filter_expr(node.expr, mu)}
    raise SparqlEvaluationError(f"unknown algebra node {node!r}")
