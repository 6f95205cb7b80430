"""Frozen pre-dictionary triple store and evaluator: a test oracle.

This module preserves the seed implementation that indexed full
:class:`~repro.rdf.terms.Term` objects in nested dicts and joined
conjuncts by substituting partial :class:`SolutionMapping` objects into
triple patterns.  ``test_evaluation.py`` uses it as an independent
reference: the dictionary-encoded store and the ID-level evaluator must
produce identical matches and query answers on random workloads.

It is deliberately not optimised further.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.gpq.bindings import SolutionMapping
from repro.gpq.query import GraphPatternQuery
from repro.rdf.terms import Literal, Term, Variable
from repro.rdf.triples import Triple, TriplePattern

__all__ = ["BaselineGraph", "baseline_evaluate_query", "baseline_match_bindings"]

_Index = Dict[Term, Dict[Term, Set[Term]]]


def _index_add(index: _Index, a: Term, b: Term, c: Term) -> None:
    index.setdefault(a, {}).setdefault(b, set()).add(c)


class BaselineGraph:
    """The seed term-object store: SPO/POS/OSP over ``Term`` keys."""

    __slots__ = ("_triples", "_spo", "_pos", "_osp")

    def __init__(self, triples: Optional[Iterable[Triple]] = None) -> None:
        self._triples: Set[Triple] = set()
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        if triples is not None:
            for triple in triples:
                self.add(triple)

    def add(self, triple: Triple) -> bool:
        if triple in self._triples:
            return False
        self._triples.add(triple)
        s, p, o = triple.subject, triple.predicate, triple.object
        _index_add(self._spo, s, p, o)
        _index_add(self._pos, p, o, s)
        _index_add(self._osp, o, s, p)
        return True

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> int:
        has_p = predicate is not None and not isinstance(predicate, Variable)
        if has_p and subject is None and object is None:
            by_obj = self._pos.get(predicate, {})
            return sum(len(subjs) for subjs in by_obj.values())
        return sum(1 for _ in self.triples(subject, predicate, object))

    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> Iterator[Triple]:
        if isinstance(subject, Variable):
            subject = None
        if isinstance(predicate, Variable):
            predicate = None
        if isinstance(object, Variable):
            object = None

        if subject is not None and predicate is not None and object is not None:
            candidate = Triple(subject, predicate, object)
            if candidate in self._triples:
                yield candidate
            return

        if subject is not None:
            by_pred = self._spo.get(subject)
            if not by_pred:
                return
            if predicate is not None:
                for obj in by_pred.get(predicate, ()):
                    yield Triple(subject, predicate, obj)
            elif object is not None:
                by_subj = self._osp.get(object)
                if not by_subj:
                    return
                for pred in by_subj.get(subject, ()):
                    yield Triple(subject, pred, object)
            else:
                for pred, objs in by_pred.items():
                    for obj in objs:
                        yield Triple(subject, pred, obj)
            return

        if predicate is not None:
            by_obj = self._pos.get(predicate)
            if not by_obj:
                return
            if object is not None:
                for subj in by_obj.get(object, ()):
                    yield Triple(subj, predicate, object)
            else:
                for obj, subjs in by_obj.items():
                    for subj in subjs:
                        yield Triple(subj, predicate, obj)
            return

        if object is not None:
            by_subj = self._osp.get(object)
            if not by_subj:
                return
            for subj, preds in by_subj.items():
                for pred in preds:
                    yield Triple(subj, pred, object)
            return

        yield from self._triples

    def match(self, pattern: TriplePattern) -> Iterator[Triple]:
        subject = None if isinstance(pattern.subject, Variable) else pattern.subject
        predicate = (
            None if isinstance(pattern.predicate, Variable) else pattern.predicate
        )
        object = None if isinstance(pattern.object, Variable) else pattern.object
        if isinstance(subject, Literal):
            return
        for triple in self.triples(subject, predicate, object):
            if pattern.matches(triple) is not None:
                yield triple


def baseline_match_bindings(
    graph: BaselineGraph, tp: TriplePattern, partial: SolutionMapping
) -> Iterator[SolutionMapping]:
    """The seed conjunct step: substitute, match, extend term-by-term."""
    instantiated = tp.substitute(partial.as_dict())
    for triple in graph.match(instantiated):
        binding = instantiated.matches(triple)
        if binding is None:
            continue
        extended = partial
        ok = True
        for var, term in binding.items():
            bound = extended.get(var)
            if bound is None:
                extended = extended.extend(var, term)
            elif bound != term:
                ok = False
                break
        if ok:
            yield extended


def _order_conjuncts(
    graph: BaselineGraph, conjuncts: List[TriplePattern]
) -> List[TriplePattern]:
    remaining = list(conjuncts)
    ordered: List[TriplePattern] = []
    bound: Set[Variable] = set()

    def cost(tp: TriplePattern) -> Tuple[int, int]:
        bound_positions = sum(
            1
            for term in tp
            if not isinstance(term, Variable) or term in bound
        )
        if isinstance(tp.predicate, Variable):
            predicate_count = len(graph)
        else:
            predicate_count = graph.count(predicate=tp.predicate)
        return (-bound_positions, predicate_count)

    while remaining:
        best = min(remaining, key=cost)
        remaining.remove(best)
        ordered.append(best)
        bound.update(best.variables())
    return ordered


def baseline_evaluate_query(
    graph: BaselineGraph, query: GraphPatternQuery
) -> Set[Tuple[Term, ...]]:
    """The seed INL join under the blank-keeping ``Q*`` semantics."""
    conjuncts = _order_conjuncts(graph, query.pattern.conjuncts())
    frontier: List[SolutionMapping] = [SolutionMapping()]
    for tp in conjuncts:
        next_frontier: List[SolutionMapping] = []
        for partial in frontier:
            next_frontier.extend(baseline_match_bindings(graph, tp, partial))
        if not next_frontier:
            return set()
        frontier = next_frontier
    return {tuple(mu[v] for v in query.head) for mu in set(frontier)}
