"""Certain answers over an RPS (Definition 3 + Algorithm 1).

``ans(q, P, D)`` is the set of answer tuples of constants (IRIs and
literals — no blank nodes) present in *every* solution of P.  Per
Section 3, evaluating q over a universal solution under the
blank-dropping ``Q_D`` semantics yields exactly the certain answers;
:func:`certain_answers` implements that pipeline and
:func:`certain_answers_report` additionally returns the chase statistics
for instrumentation.

Queries run on the columnar batch engine and stay on dictionary IDs up
to the result boundary: blank-carrying rows are dropped as ID tuples
(:func:`blank_free_rows`, shared with :mod:`repro.rewriting.perfect`)
and only the surviving rows are decoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Collection, Optional, Set, Tuple, Union

from repro.gpq.evaluation import ask as gpq_ask
from repro.gpq.query import GraphPatternQuery
from repro.rdf.graph import Graph
from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import BlankNode, Term
from repro.sparql.algebra import Bgp
from repro.sparql.batch import select_id_rows_batch
from repro.sparql.bridge import sparql_to_gpq
from repro.peers.chase import PeerChaseResult, chase_universal_solution
from repro.peers.system import RPS

__all__ = [
    "CertainAnswerReport",
    "blank_free_rows",
    "certain_answers",
    "certain_answers_report",
    "certain_ask",
]

QueryLike = Union[str, GraphPatternQuery]

IDRow = Tuple[int, ...]


def _to_gpq(
    query: QueryLike, nsm: Optional[NamespaceManager]
) -> GraphPatternQuery:
    if isinstance(query, GraphPatternQuery):
        return query
    return sparql_to_gpq(query, nsm)


def blank_free_rows(
    graph: Graph, rows: Collection[IDRow]
) -> Collection[IDRow]:
    """The ID rows that mention no blank node (``Q_D`` from ``Q*_D``).

    Each distinct ID is classified once, so the cost follows the number
    of distinct terms in the answer, not the number of cells.
    """
    decode = graph.decode_id
    blanks = {
        tid
        for tid in set(chain.from_iterable(rows))
        if isinstance(decode(tid), BlankNode)
    }
    if not blanks:
        return rows
    return [row for row in rows if blanks.isdisjoint(row)]


def _decode_rows(
    graph: Graph, rows: Collection[IDRow]
) -> Set[Tuple[Term, ...]]:
    """Decode ID rows into answer tuples — the result boundary.

    Each distinct ID is decoded once.
    """
    decode = graph.decode_id
    terms = {tid: decode(tid) for tid in set(chain.from_iterable(rows))}
    return {tuple(map(terms.__getitem__, row)) for row in rows}


def _id_answers(solution: Graph, gpq: GraphPatternQuery) -> Collection[IDRow]:
    """``Q_J`` as ID rows: the batch engine's head rows minus blanks."""
    rows = select_id_rows_batch(
        solution, Bgp(tuple(gpq.conjuncts())), gpq.head
    )
    return blank_free_rows(solution, rows)


@dataclass
class CertainAnswerReport:
    """Certain answers plus the chase run that produced them.

    Attributes:
        answers: the certain answer tuples.
        chase: statistics of the Algorithm-1 run.
        universal_solution: the materialised J (shared, not copied).
    """

    answers: Set[Tuple[Term, ...]]
    chase: PeerChaseResult
    universal_solution: Graph


def certain_answers(
    system: RPS,
    query: QueryLike,
    nsm: Optional[NamespaceManager] = None,
    solution: Optional[Graph] = None,
) -> Set[Tuple[Term, ...]]:
    """Compute ``ans(q, P, D)`` by the chase (Algorithm 1).

    Args:
        system: the RPS.
        query: a graph pattern query, or conjunctive SPARQL text.
        nsm: namespace manager for SPARQL parsing.
        solution: a pre-materialised universal solution to reuse
            (skips the chase; callers answering many queries over the
            same data should materialise once).

    Returns:
        The set of certain answer tuples (blank-free).
    """
    gpq = _to_gpq(query, nsm)
    if solution is None:
        solution = chase_universal_solution(system).solution
    return _decode_rows(solution, _id_answers(solution, gpq))


def certain_answers_report(
    system: RPS,
    query: QueryLike,
    nsm: Optional[NamespaceManager] = None,
) -> CertainAnswerReport:
    """Certain answers with full chase instrumentation."""
    gpq = _to_gpq(query, nsm)
    chase_result = chase_universal_solution(system)
    answers = certain_answers(system, gpq, solution=chase_result.solution)
    return CertainAnswerReport(
        answers=answers,
        chase=chase_result,
        universal_solution=chase_result.solution,
    )


def certain_ask(
    system: RPS,
    query: QueryLike,
    nsm: Optional[NamespaceManager] = None,
    solution: Optional[Graph] = None,
) -> bool:
    """Boolean certain answering: does the query hold in every solution?

    For an arity-0 query this asks whether the (certain) Boolean answer
    is true; for higher arities it asks whether any certain answer
    exists.
    """
    gpq = _to_gpq(query, nsm)
    if solution is None:
        solution = chase_universal_solution(system).solution
    if gpq.is_boolean():
        return gpq_ask(solution, gpq)
    return bool(_id_answers(solution, gpq))
