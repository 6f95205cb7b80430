"""Planner pieces shared by the local and the federated engine.

Two things live here, both on dictionary IDs:

* :func:`plan_bgp` — cost-based conjunct ordering for one basic graph
  pattern, driven by the per-index counts of
  :meth:`repro.rdf.graph.Graph.count_ids`.  The batch engine
  (:mod:`repro.sparql.batch`) executes the order it returns.
* :func:`compile_filter` — a FILTER expression as a predicate over one
  ``{Variable: int}`` binding (ground comparison terms are resolved to
  IDs at compile time; constants absent from the dictionary get fresh
  sentinel IDs that can never collide with data).  The federated
  executor pushes these predicates into per-endpoint sub-queries; the
  batch engine compiles FILTERs to column masks of its own
  (``batch._compile_mask``), with the same sentinel scheme.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import SparqlEvaluationError
from repro.gpq.evaluation import compile_conjunct
from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.ast import (
    BooleanExpr,
    Comparison,
    FilterExpr,
)

__all__ = ["compile_filter", "plan_bgp"]

#: A compiled conjunct position: an integer ID or a still-free Variable.
_Slot = Union[int, Variable]

#: One solution: variable -> integer term ID.
_IDBinding = Dict[Variable, int]

#: A BGP's compiled conjuncts, or None when one is unsatisfiable.
_CompiledBgp = Optional[List[Tuple[_Slot, _Slot, _Slot]]]

#: Selectivity credit for a variable position that will be bound (to an
#: unknown value) by the time a conjunct runs: its index count is divided
#: by this per bound position.  Any constant > 1 gives the right *shape*
#: of preference; 8 keeps estimates integral-ish without overflow games.
_BOUND_SELECTIVITY = 8.0


def _estimate(
    graph: Graph, slots: Tuple[_Slot, _Slot, _Slot], bound: Set[Variable]
) -> Tuple[float, int]:
    """(estimated extensions, free-variable count) for one conjunct."""
    args: List[Optional[int]] = [None, None, None]
    discount = 1.0
    free = 0
    for pos, slot in enumerate(slots):
        if isinstance(slot, int):
            args[pos] = slot
        elif slot in bound:
            discount *= _BOUND_SELECTIVITY
        else:
            free += 1
    count = graph.count_ids(args[0], args[1], args[2])
    return (count / discount, free)


def plan_bgp(
    graph: Graph, patterns: Sequence[TriplePattern]
) -> Tuple[List[TriplePattern], _CompiledBgp, float]:
    """Cost-order a BGP's conjuncts.

    Returns ``(ordered patterns, compiled slots or None, estimate)``.
    Conjuncts are ordered greedily: the next conjunct is the one with
    the smallest estimated extension count given the variables bound so
    far, where the estimate is the exact per-index count of the
    conjunct's ground positions discounted for already-bound variable
    positions.  The slots are None when a ground term was never
    interned, so the pattern cannot match.
    """
    patterns = list(patterns)
    compiled: List[Optional[Tuple[_Slot, _Slot, _Slot]]] = []
    for tp in patterns:
        compiled.append(compile_conjunct(graph, tp))
    if any(slots is None for slots in compiled):
        return (patterns, None, 0.0)
    remaining = list(range(len(patterns)))
    order: List[int] = []
    bound: Set[Variable] = set()
    total = 1.0
    while remaining:
        best = min(
            remaining,
            key=lambda i: _estimate(graph, compiled[i], bound) + (i,),
        )
        remaining.remove(best)
        order.append(best)
        estimate, _ = _estimate(graph, compiled[best], bound)
        total = min(total * max(estimate, 1.0), 1e18)
        bound.update(patterns[best].variables())
    ordered = [patterns[i] for i in order]
    slots = [compiled[i] for i in order]
    return (ordered, slots, total)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# FILTER compilation
# ---------------------------------------------------------------------------


def _compile_filter(
    graph: Graph, expr: FilterExpr, sentinels: Dict[Term, int]
) -> Callable[[_IDBinding], bool]:
    """Compile a FILTER expression into an ID-level predicate.

    Ground terms resolve to their dictionary ID once, at compile time.
    A ground term the dictionary has never seen cannot equal any data
    term, so it receives a fresh *negative* sentinel ID (distinct per
    term) — ``=`` against it is always false and ``!=`` always true,
    exactly matching the term-level semantics.  Ground-vs-ground
    comparisons are constant-folded on the terms themselves.  An unbound
    variable makes any comparison false (SPARQL error semantics collapse
    to false in this fragment).
    """
    if isinstance(expr, BooleanExpr):
        left = _compile_filter(graph, expr.left, sentinels)
        right = _compile_filter(graph, expr.right, sentinels)
        if expr.op == "&&":
            return lambda b: left(b) and right(b)
        return lambda b: left(b) or right(b)
    if not isinstance(expr, Comparison):  # pragma: no cover - parser invariant
        raise SparqlEvaluationError(f"unknown filter expression {expr!r}")
    equals = expr.op == "="
    if not isinstance(expr.left, Variable) and not isinstance(
        expr.right, Variable
    ):
        verdict = (expr.left == expr.right) is equals
        return lambda b: verdict

    def resolve_ground(term: Term) -> int:
        tid = graph.term_id(term)
        if tid is None:
            tid = sentinels.setdefault(term, -1 - len(sentinels))
        return tid

    if isinstance(expr.left, Variable) and isinstance(expr.right, Variable):
        lvar, rvar = expr.left, expr.right

        def compare_vars(binding: _IDBinding) -> bool:
            left_id = binding.get(lvar)
            right_id = binding.get(rvar)
            if left_id is None or right_id is None:
                return False
            return (left_id == right_id) is equals

        return compare_vars

    if isinstance(expr.left, Variable):
        var, ground_id = expr.left, resolve_ground(expr.right)
    else:
        var, ground_id = expr.right, resolve_ground(expr.left)

    def compare_ground(binding: _IDBinding) -> bool:
        bound = binding.get(var)
        if bound is None:
            return False
        return (bound == ground_id) is equals

    return compare_ground


def compile_filter(
    graph: Graph,
    expr: FilterExpr,
    sentinels: Optional[Dict[Term, int]] = None,
) -> Callable[[_IDBinding], bool]:
    """Public entry to the FILTER compiler.

    ``graph`` only supplies the term dictionary (ground terms resolve to
    IDs through it), so any graph sharing the dictionary of the bindings
    the predicate will see works — the federated executor compiles
    filters once against a peer graph and pushes them into per-endpoint
    sub-queries.  ``sentinels`` may be shared across several filters of
    one query so uninterned constants keep stable sentinel IDs.
    """
    return _compile_filter(
        graph, expr, sentinels if sentinels is not None else {}
    )
