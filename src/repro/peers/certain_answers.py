"""Certain answers over an RPS (Definition 3 + Algorithm 1).

``ans(q, P, D)`` is the set of answer tuples of constants (IRIs and
literals — no blank nodes) present in *every* solution of P.  Per
Section 3, evaluating q over a universal solution under the
blank-dropping ``Q_D`` semantics yields exactly the certain answers;
:func:`certain_answers` implements that pipeline and
:func:`certain_answers_report` additionally returns the chase statistics
for instrumentation.

Queries run on the columnar batch engine and stay on dictionary IDs up
to one result boundary, :func:`answer_rows`, which both routes share
(:mod:`repro.rewriting.perfect` hands it the ID rows of every rewritten
disjunct at once): blank-carrying rows are dropped as ID tuples, each
distinct ID is decoded once, and the surviving rows are decoded column
by column.  No other function here or there builds a row of terms.
:func:`certain_ask` reads the batch plan in chunks and stops at the
first row that crosses the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, Optional, Set, Tuple, Union

from repro.gpq.query import GraphPatternQuery
from repro.rdf.graph import Graph
from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import BlankNode, Term
from repro.sparql.algebra import Bgp
from repro.sparql.batch import (
    build_batch_plan,
    column_rows,
    select_id_rows_batch,
)
from repro.sparql.bridge import sparql_to_gpq
from repro.peers.chase import PeerChaseResult, chase_universal_solution
from repro.peers.system import RPS

__all__ = [
    "CertainAnswerReport",
    "answer_rows",
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


def answer_rows(
    graph: Graph,
    rows: Collection[IDRow],
    private: Optional[Mapping[int, Term]] = None,
) -> Set[Tuple[Term, ...]]:
    """The result boundary: distinct ID rows to blank-free answer tuples.

    ``Q_D`` from ``Q*_D``: a row that mentions a blank node is dropped.
    Each distinct ID is decoded once, so the cost follows the number of
    distinct terms, and the surviving rows are decoded column by
    column.  A negative ID stands for a constant ``graph``'s dictionary
    lacks; ``private`` maps it to its term.
    """
    if not rows:
        return set()
    columns = list(zip(*rows))
    if not columns:
        return {()}
    decode = graph.decode_id
    private = private or {}
    terms = {
        tid: decode(tid) if tid >= 0 else private[tid]
        for tid in set().union(*columns)
    }
    blanks = {tid for tid, term in terms.items() if isinstance(term, BlankNode)}
    if blanks:
        kept = [row for row in rows if blanks.isdisjoint(row)]
        if not kept:
            return set()
        columns = list(zip(*kept))
    return set(zip(*[list(map(terms.__getitem__, col)) for col in columns]))


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
    rows = select_id_rows_batch(
        solution, Bgp(tuple(gpq.conjuncts())), gpq.head
    )
    return answer_rows(solution, rows)


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
    exists.  The batch plan is read chunk by chunk, and the read stops
    at the first row (the first match, for an arity-0 query) that
    mentions no blank node.
    """
    gpq = _to_gpq(query, nsm)
    if solution is None:
        solution = chase_universal_solution(system).solution
    plan = build_batch_plan(solution, Bgp(tuple(gpq.conjuncts())))
    head = gpq.head
    for batch in plan.chunks():
        if not head:
            return True
        for row in column_rows(batch.project(head), batch.n):
            if answer_rows(solution, (row,)):
                return True
    return False
