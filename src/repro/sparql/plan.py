"""The BGP planner: cost-based conjunct ordering on dictionary IDs.

:func:`plan_bgp` orders the conjuncts of one basic graph pattern from
the per-index counts of :meth:`repro.rdf.graph.Graph.count_ids`; the
batch engine (:mod:`repro.sparql.batch`) executes the order it returns.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple, Union

from repro.gpq.evaluation import compile_conjunct
from repro.rdf.graph import Graph
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern

__all__ = ["plan_bgp"]

#: A compiled conjunct position: an integer ID or a still-free Variable.
_Slot = Union[int, Variable]

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
        estimate, _, best = min(
            _estimate(graph, compiled[i], bound) + (i,) for i in remaining
        )
        remaining.remove(best)
        order.append(best)
        total = min(total * max(estimate, 1.0), 1e18)
        bound.update(patterns[best].variables())
    ordered = [patterns[i] for i in order]
    slots = [compiled[i] for i in order]
    return (ordered, slots, total)  # type: ignore[return-value]
