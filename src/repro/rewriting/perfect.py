"""Proposition 2: certain answers via perfect rewriting (no chase).

Two complete strategies are provided for FO-rewritable mapping sets:

* :func:`certain_answers_by_rewriting` — the *answer-atom* method: the
  SELECT query's head is reified as a reserved ``_ans(x₁,…,xₙ)`` body
  atom, the resulting Boolean query is UCQ-rewritten, and each disjunct
  is evaluated over the stored ``Graph`` by the columnar batch engine,
  projected on the ``_ans`` atom's variables.  Answer positions are
  read off the ID rows (blank-carrying rows dropped as integers),
  constants that assertion TGDs substituted into answer positions are
  spliced in, and only the distinct surviving rows are decoded.  One
  rewriting, no candidate enumeration, no relational copy of the stored
  database.
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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, Tuple, Union

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
from repro.sparql.bridge import sparql_to_gpq
from repro.tgd.atoms import Atom, Constant, RelVar
from repro.tgd.classes import classify
from repro.tgd.cq import ConjunctiveQuery
from repro.tgd.rewrite import rewrite_ucq
from repro.peers.certain_answers import blank_free_rows
from repro.peers.system import RPS
from repro.rewriting.boolean import disjunct_id_rows, rewrite_over_quotient
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


#: An answer row before decoding: a cell is a dictionary ID read off a
#: disjunct's row, or the ground term of a constant answer position.
_Cells = Tuple[Union[int, Term], ...]


def _disjunct_cells(
    stored: Graph, disjunct: ConjunctiveQuery
) -> Iterable[_Cells]:
    """The blank-free answer rows one rewritten disjunct contributes."""
    ans_atoms = [a for a in disjunct.body if a.predicate == ANS]
    if len(ans_atoms) != 1:
        raise RewritingError(f"disjunct lost its answer atom: {disjunct!r}")
    rest = [a for a in disjunct.body if a.predicate != ANS]
    if not rest:
        return ()
    bound = {arg for atom in rest for arg in atom.args}
    # Per answer position: a ground term, or a column of ``head``.
    head: List[Variable] = []
    picks: List[Union[int, Term]] = []
    for arg in ans_atoms[0].args:
        if isinstance(arg, RelVar) and arg in bound:
            var = Variable(arg.name)
            if var not in head:
                head.append(var)
            picks.append(head.index(var))
        elif isinstance(arg, Constant) and not isinstance(
            arg.value, BlankNode
        ):
            picks.append(arg.value)
        else:  # unbound, a null or a blank: no certain answer here
            return ()
    rows = blank_free_rows(stored, disjunct_id_rows(stored, rest, head))
    return (
        tuple(row[pick] if isinstance(pick, int) else pick for pick in picks)
        for row in rows
    )


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
    cells: Set[_Cells] = set()
    for disjunct in stats.ucq:
        cells.update(_disjunct_cells(stored, disjunct))
    decode = stored.decode_id
    terms = {
        cell: decode(cell)
        for cell in set(itertools.chain.from_iterable(cells))
        if isinstance(cell, int)
    }
    nonredundant = {tuple([terms.get(c, c) for c in row]) for row in cells}
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
    stored = system.stored_database()
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
    return [tuple(combo) for combo in itertools.product(universe, repeat=arity)]


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
