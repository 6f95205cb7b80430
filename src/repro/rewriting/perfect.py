"""Proposition 2: certain answers via perfect rewriting (no chase).

Two complete strategies are provided for FO-rewritable mapping sets:

* :func:`certain_answers_by_rewriting` — the *answer-atom* method: the
  SELECT query's head is reified as a reserved ``_ans(x₁,…,xₙ)`` body
  atom, the resulting Boolean query is UCQ-rewritten, and each disjunct
  is evaluated over the stored ``Graph`` by the columnar batch engine,
  projected on the ``_ans`` atom's positions as ID columns.  A constant
  that an assertion TGD substituted into an answer position is a column
  of its dictionary ID — or of a private negative ID when the stored
  dictionary lacks it, so nothing is interned.  The rows of all
  disjuncts are deduplicated once, as ID tuples, and cross the one
  result boundary of both routes,
  :func:`repro.peers.certain_answers.answer_rows`, which drops blank
  rows and decodes each distinct ID once.  One rewriting, no candidate
  enumeration, no relational copy of the stored database.
* :func:`certain_answers_by_tuple_check` — the paper's own Example-3
  reduction: enumerate candidate tuples, substitute each into the query,
  rewrite the Boolean query and evaluate it.  Exponentially more
  rewritings (one per candidate) but exactly the construction in the
  paper; kept for fidelity and as the tests' cross-check of the
  answer-atom method.

Both work modulo ``≡ₑ``
(:class:`repro.rewriting.redundancy.EquivalenceQuotient`): the rewriter
sees the graph mapping assertions and the query over class
representatives, the disjuncts are matched against the quotient of the
stored database (the stored graph itself when E is empty), and each
answer cell is expanded by its class at the boundary.  The un-expanded
rows are Listing 1's "Result without redundancy".  Both agree with the
chase on every FO-rewritable system (property-tested).

The stored graph and its quotient are the ones the system keeps
(:meth:`repro.peers.system.RPS.stored_graph`,
:meth:`~repro.peers.system.RPS.stored_quotient`): built on first use
and rebuilt only when the peer set, a peer's graph object or its
``epoch``, or the equivalences change.  They are shared by every call,
so they are read-only, like the canonical database of
:meth:`repro.tgd.cq.ConjunctiveQuery.freeze`: read them, do not add to
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import (
    NotRewritableError,
    QueryError,
    RewritingError,
    TripleError,
)
from repro.gpq.query import GraphPatternQuery
from repro.rdf.graph import Graph
from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import BlankNode, Term, Variable
from repro.sparql.batch import column_rows
from repro.sparql.bridge import sparql_to_gpq
from repro.tgd.atoms import Atom, Constant, RelVar
from repro.tgd.classes import classify
from repro.tgd.cq import ConjunctiveQuery
from repro.tgd.rewrite import rewrite_ucq
from repro.peers.certain_answers import answer_rows
from repro.peers.system import RPS
from repro.rewriting.boolean import disjunct_plan, rewrite_over_quotient
from repro.rewriting.redundancy import EquivalenceQuotient, canonical_map

__all__ = [
    "ANS",
    "RewritingAnswers",
    "certain_answers_by_rewriting",
    "certain_answers_by_tuple_check",
    "candidate_tuples",
    "check_fo_rewritable",
]

ANS = "_ans"


def check_fo_rewritable(system: RPS) -> bool:
    """Does Proposition 2 syntactically apply to this system's mappings?

    True when the guard-free assertion TGDs — the set the rewriter is
    given; equivalences reach it as classes — are linear, sticky or
    sticky-join.
    """
    return classify(EquivalenceQuotient(system).tgds).fo_rewritable_fragment()


@dataclass
class RewritingAnswers:
    """Certain answers computed via rewriting, with statistics.

    Attributes:
        answers: the certain answer tuples.
        disjuncts: number of UCQ disjuncts evaluated.
        explored: CQs explored during rewriting.
        rewritings: number of rewriting runs (1 for the answer-atom
            method; |candidates| for the tuple-check method).
        nonredundant: the answers before expansion by equivalence class
            (one representative per class — Listing 1's "Result without
            redundancy").
    """

    answers: Set[Tuple[Term, ...]]
    disjuncts: int = 0
    explored: int = 0
    rewritings: int = 1
    nonredundant: Set[Tuple[Term, ...]] = field(default_factory=set)


def _answer_columns(
    stored: Graph, disjunct: ConjunctiveQuery, constant_id: Callable[[Term], int]
) -> Tuple[List[Sequence[int]], int]:
    """One rewritten disjunct's answer positions as ID columns, and the
    number of rows (duplicates and blanks included)."""
    ans_atoms = [a for a in disjunct.body if a.predicate == ANS]
    if len(ans_atoms) != 1:
        raise RewritingError(f"disjunct lost its answer atom: {disjunct!r}")
    rest = [a for a in disjunct.body if a.predicate != ANS]
    if not rest:
        return [], 0
    bound = {arg for atom in rest for arg in atom.args}
    # Per answer position: a variable of the match, or a constant's ID.
    picks: List[Union[Variable, int]] = []
    for arg in ans_atoms[0].args:
        if isinstance(arg, RelVar) and arg in bound:
            picks.append(Variable(arg.name))
        elif isinstance(arg, Constant) and not isinstance(
            arg.value, BlankNode
        ):
            picks.append(constant_id(arg.value))
        else:  # unbound, a null or a blank: no certain answer here
            return [], 0
    head = list(dict.fromkeys(p for p in picks if isinstance(p, Variable)))
    batch = disjunct_plan(stored, rest).execute()
    n = batch.n
    if not n:
        return [], 0
    column = dict(zip(head, batch.project(head)))
    return [
        column[pick] if isinstance(pick, Variable) else [pick] * n
        for pick in picks
    ], n


def certain_answers_by_rewriting(
    system: RPS,
    query: Union[str, GraphPatternQuery],
    nsm: Optional[NamespaceManager] = None,
    max_queries: int = 20_000,
    require_fo_rewritable: bool = True,
) -> RewritingAnswers:
    """Certain answers via the answer-atom UCQ rewriting.

    Args:
        system: the RPS.
        query: graph pattern query or conjunctive SELECT SPARQL.
        nsm: namespaces for SPARQL parsing.
        max_queries: rewriting budget.
        require_fo_rewritable: raise upfront when the mapping TGDs are
            outside the Proposition-2 fragment instead of letting the
            budget catch it.

    Raises:
        NotRewritableError: outside the FO-rewritable fragment.
        RewritingError: the rewriting budget ran out.
    """
    quotient = EquivalenceQuotient(system)
    if (
        require_fo_rewritable
        and not classify(quotient.tgds).fo_rewritable_fragment()
    ):
        raise NotRewritableError(
            "mapping TGDs are neither linear nor sticky; Proposition 2 "
            "does not apply (see Proposition 3) — use the chase instead"
        )
    gpq = query if isinstance(query, GraphPatternQuery) else sparql_to_gpq(query, nsm)
    base = quotient.query(gpq, label="q")
    # Reify the head as a reserved body atom so rewriting can specialise
    # answer positions; the query becomes Boolean.
    ans_atom = Atom(ANS, *[RelVar(v.name) for v in gpq.head])
    reified = ConjunctiveQuery([], list(base.body) + [ans_atom], label="q_ans")
    stats = rewrite_ucq(reified, quotient.tgds, max_queries=max_queries)

    stored = quotient.stored()
    lookup = stored.term_id
    private: Dict[Term, int] = {}

    def constant_id(term: Term) -> int:
        tid = lookup(term)
        if tid is None:
            tid = private.setdefault(term, -1 - len(private))
        return tid

    rows: Set[Tuple[int, ...]] = set()
    for disjunct in stats.ucq:
        columns, n = _answer_columns(stored, disjunct, constant_id)
        rows.update(column_rows(columns, n))
    nonredundant = answer_rows(
        stored, rows, {tid: term for term, tid in private.items()}
    )
    return RewritingAnswers(
        answers=quotient.expand(nonredundant),
        disjuncts=len(stats.ucq),
        explored=stats.explored,
        rewritings=1,
        nonredundant=nonredundant,
    )


def candidate_tuples(
    system: RPS, arity: int, max_candidates: int = 200_000
) -> List[Tuple[Term, ...]]:
    """The paper's candidate space, one tuple per combination of classes.

    Candidates are drawn from the IRIs and literals of the stored
    database plus the constants mentioned in mappings (equivalence sides
    and assertion-target IRIs) — every term a certain answer can contain
    — each replaced by the representative of its ``≡ₑ`` class; expanding
    the accepted tuples by class recovers the rest.

    Raises:
        RewritingError: if the Cartesian product exceeds the guard.
    """
    stored = system.stored_graph()
    terms: Set[Term] = set()
    for term in stored.terms():
        if not isinstance(term, BlankNode):
            terms.add(term)
    for equivalence in system.equivalences:
        terms.update(equivalence.terms())
    for assertion in system.assertions:
        terms.update(assertion.target.iris())
        terms.update(assertion.target.pattern.literals())
    representative = canonical_map(system)
    universe = sorted(
        {representative.get(term, term) for term in terms},
        key=lambda t: t.sort_key(),
    )
    total = len(universe) ** arity if arity else 1
    if total > max_candidates:
        raise RewritingError(
            f"candidate space of {total} tuples exceeds the guard of "
            f"{max_candidates}; use certain_answers_by_rewriting instead"
        )
    return list(itertools.product(universe, repeat=arity))


def certain_answers_by_tuple_check(
    system: RPS,
    query: Union[str, GraphPatternQuery],
    nsm: Optional[NamespaceManager] = None,
    max_queries: int = 20_000,
    max_candidates: int = 200_000,
) -> RewritingAnswers:
    """The paper's Example-3 reduction, verbatim.

    Enumerate all candidate answer tuples (over class representatives),
    substitute each into the query to obtain a Boolean query, rewrite
    it, evaluate the union over the quotient of the stored database,
    and expand the accepted tuples by class.
    """
    gpq = query if isinstance(query, GraphPatternQuery) else sparql_to_gpq(query, nsm)
    quotient = EquivalenceQuotient(system)
    stored = quotient.stored()
    accepted: Set[Tuple[Term, ...]] = set()
    total_disjuncts = 0
    total_explored = 0
    candidates = candidate_tuples(system, gpq.arity, max_candidates)
    rewritings = 0
    for candidate in candidates:
        try:
            boolean_query = gpq.bind_tuple(candidate)
        except (TripleError, QueryError):
            # An ill-typed candidate (a literal where the query has a
            # predicate) is no answer; anything else is a bug and
            # propagates.
            continue
        rewriting = rewrite_over_quotient(
            quotient, boolean_query, max_queries=max_queries
        )
        rewritings += 1
        total_disjuncts += len(rewriting)
        total_explored += rewriting.stats.explored
        if rewriting.holds_in(stored):
            accepted.add(candidate)
    return RewritingAnswers(
        answers=quotient.expand(accepted),
        disjuncts=total_disjuncts,
        explored=total_explored,
        rewritings=rewritings,
        nonredundant=accepted,
    )
