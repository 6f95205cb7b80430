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

Both work modulo ``≡ₑ``, by the class map the system keeps
(:meth:`repro.peers.system.RPS.class_map`, the one Algorithm 1 chases
by): the rewriter sees the graph mapping assertions and the query over
class representatives
(:func:`repro.peers.data_exchange.quotient_tgds`,
:func:`~repro.peers.data_exchange.quotient_atoms`), the disjuncts are
matched against the quotient of the stored database (the stored graph
itself when E is empty), and each answer cell is expanded by its class
at the boundary (:func:`repro.peers.quotient.expand_by_class`).  The
un-expanded rows are Listing 1's "Result without redundancy".  Both
agree with the chase on every FO-rewritable system (property-tested).

The class map, the stored graph and its quotient are the ones the
system keeps (:meth:`~repro.peers.system.RPS.class_map`,
:meth:`~repro.peers.system.RPS.stored_graph`,
:meth:`~repro.peers.system.RPS.stored_quotient`): built on first use
and rebuilt only when the peer set, a peer's graph object or its
``epoch``, or the equivalences change.  They are shared by every call,
so they are read-only, like the canonical database of
:meth:`repro.tgd.cq.ConjunctiveQuery.freeze`: read them, do not add to
them.

By Proposition 2 the rewriting itself depends on the query, the
assertion TGDs and the classes, never on the data, so
:func:`certain_answers_by_rewriting` keeps it in the system's
:meth:`~repro.peers.system.RPS.prepared_rewritings`, filled only by
:func:`_prepared`.  An entry is keyed on the query (the parsed query,
or its text and namespace fingerprint), ``tuple(system.assertions)``,
the kept class map by identity, ``max_queries`` and
``require_fo_rewritable``; it holds the UCQ with its statistics and,
per disjunct, its answer picks and its batch plan, the plans (and the
private IDs of pick constants) made for one ``(serial, epoch)`` of the
stored quotient and made again when it moves.  A new assertion, a new
equivalence or another budget therefore rewrites once more, a data
change only re-plans, and a repeated call runs the kept plans alone.
A rewriting that raises is never kept, and every call's answer sets
are its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

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
from repro.sparql.batch import BatchOp, column_rows
from repro.sparql.bridge import sparql_to_gpq
from repro.sparql.cache import nsm_fingerprint
from repro.tgd.atoms import Atom, Constant, RelVar
from repro.tgd.classes import classify
from repro.tgd.cq import ConjunctiveQuery
from repro.tgd.rewrite import RewriteResult, rewrite_ucq
from repro.peers.certain_answers import answer_rows
from repro.peers.data_exchange import gpq_to_cq, quotient_atoms, quotient_tgds
from repro.peers.quotient import ClassMap, expand_by_class
from repro.peers.system import RPS
from repro.rewriting.boolean import disjunct_plan, rewrite_over_quotient

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
    tgds = quotient_tgds(system, system.class_map().representative)
    return classify(tgds).fo_rewritable_fragment()


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


#: Per answer position: a variable of the match, or a constant — its
#: term when prepared, its dictionary (or private) ID when planned.
Pick = Union[Variable, Term, int]


class _Prepared:
    """One kept rewriting: the data-independent part of a SELECT query's
    perfect rewriting, and its disjunct plans over one stored quotient.

    Attributes:
        classes: the class map the rewriting was made under; holding it
            keeps the identity its key was made from alive.
        stats: the UCQ and its statistics.
        disjuncts: per disjunct that can give a certain answer, its
            answer picks (variables and constant terms) and its body
            without the answer atom.
        graph: the ``(serial, epoch)`` of the stored quotient ``plans``
            and ``private`` were made against, or None before the first.
        plans: per entry of ``disjuncts``, its picks with constants as
            IDs, its distinct pick variables and its batch plan.
        private: the negative ID of each pick constant the stored
            dictionary lacks, to its term.
    """

    __slots__ = ("classes", "stats", "disjuncts", "graph", "plans", "private")

    def __init__(
        self,
        classes: ClassMap,
        stats: RewriteResult,
        disjuncts: List[Tuple[List[Pick], List[Atom]]],
    ) -> None:
        self.classes = classes
        self.stats = stats
        self.disjuncts = disjuncts
        self.graph: Optional[Tuple[int, int]] = None
        self.plans: List[Tuple[List[Pick], List[Variable], BatchOp]] = []
        self.private: Dict[int, Term] = {}


def _answer_picks(
    disjunct: ConjunctiveQuery,
) -> Optional[Tuple[List[Pick], List[Atom]]]:
    """One rewritten disjunct's answer picks and the rest of its body,
    or None when it can give no certain answer."""
    ans_atoms = [a for a in disjunct.body if a.predicate == ANS]
    if len(ans_atoms) != 1:
        raise RewritingError(f"disjunct lost its answer atom: {disjunct!r}")
    rest = [a for a in disjunct.body if a.predicate != ANS]
    if not rest:
        return None
    bound = {arg for atom in rest for arg in atom.args}
    picks: List[Pick] = []
    for arg in ans_atoms[0].args:
        if isinstance(arg, RelVar) and arg in bound:
            picks.append(Variable(arg.name))
        elif isinstance(arg, Constant) and not isinstance(
            arg.value, BlankNode
        ):
            picks.append(arg.value)
        else:  # unbound, a null or a blank: no certain answer here
            return None
    return picks, rest


def _prepared(
    system: RPS,
    query: Union[str, GraphPatternQuery],
    nsm: Optional[NamespaceManager],
    max_queries: int,
    require_fo_rewritable: bool,
) -> Tuple[_Prepared, Graph]:
    """The kept rewriting of ``query``, its plans made against the
    stored quotient the system keeps now; the one place this module
    rewrites or plans.

    A miss rewrites and keeps the entry, a moved quotient re-plans the
    kept disjuncts; a rewriting that raises is not kept.
    """
    classes = system.class_map()
    key = (
        query
        if isinstance(query, GraphPatternQuery)
        else (query, nsm_fingerprint(nsm)),
        tuple(system.assertions),
        id(classes),
        max_queries,
        require_fo_rewritable,
    )
    kept = system.prepared_rewritings()
    entry: Optional[_Prepared] = kept.get(key)
    if entry is None:
        tgds = quotient_tgds(system, classes.representative)
        if (
            require_fo_rewritable
            and not classify(tgds).fo_rewritable_fragment()
        ):
            raise NotRewritableError(
                "mapping TGDs are neither linear nor sticky; Proposition 2 "
                "does not apply (see Proposition 3) — use the chase instead"
            )
        gpq = (
            query
            if isinstance(query, GraphPatternQuery)
            else sparql_to_gpq(query, nsm)
        )
        body = quotient_atoms(gpq_to_cq(gpq).body, classes.representative)
        # Reify the head as a reserved body atom so rewriting can
        # specialise answer positions; the query becomes Boolean.
        ans_atom = Atom(ANS, *[RelVar(v.name) for v in gpq.head])
        reified = ConjunctiveQuery([], body + [ans_atom], label="q_ans")
        stats = rewrite_ucq(reified, tgds, max_queries=max_queries)
        picked = (_answer_picks(disjunct) for disjunct in stats.ucq)
        entry = _Prepared(
            classes, stats, [p for p in picked if p is not None]
        )
        kept.put(key, entry)
    stored = system.stored_quotient()
    graph = (stored.serial, stored.epoch)
    if entry.graph != graph:
        lookup = stored.term_id
        private: Dict[Term, int] = {}
        plans = []
        for picks, rest in entry.disjuncts:
            ids: List[Pick] = []
            for pick in picks:
                if isinstance(pick, Variable):
                    ids.append(pick)
                    continue
                tid = lookup(pick)
                if tid is None:
                    tid = private.setdefault(pick, -1 - len(private))
                ids.append(tid)
            head = list(
                dict.fromkeys(p for p in ids if isinstance(p, Variable))
            )
            plans.append((ids, head, disjunct_plan(stored, rest)))
        entry.plans = plans
        entry.private = {tid: term for term, tid in private.items()}
        entry.graph = graph
    return entry, stored


def certain_answers_by_rewriting(
    system: RPS,
    query: Union[str, GraphPatternQuery],
    nsm: Optional[NamespaceManager] = None,
    max_queries: int = 20_000,
    require_fo_rewritable: bool = True,
) -> RewritingAnswers:
    """Certain answers via the answer-atom UCQ rewriting.

    The rewriting and its disjunct plans are the ones the system keeps
    (:meth:`~repro.peers.system.RPS.prepared_rewritings`): a repeated
    query only runs the kept plans over the data.

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
    entry, stored = _prepared(
        system, query, nsm, max_queries, require_fo_rewritable
    )
    rows: Set[Tuple[int, ...]] = set()
    for picks, head, plan in entry.plans:
        batch = plan.execute()
        n = batch.n
        if not n:
            continue
        column = dict(zip(head, batch.project(head)))
        columns = [
            column[pick] if isinstance(pick, Variable) else [pick] * n
            for pick in picks
        ]
        rows.update(column_rows(columns, n))
    nonredundant = answer_rows(stored, rows, entry.private)
    return RewritingAnswers(
        answers=set(expand_by_class(nonredundant, entry.classes.classes)),
        disjuncts=len(entry.stats.ucq),
        explored=entry.stats.explored,
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
    representative = system.class_map().representative
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
    classes = system.class_map()
    tgds = quotient_tgds(system, classes.representative)
    stored = system.stored_quotient()
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
            classes.representative,
            tgds,
            boolean_query,
            max_queries=max_queries,
        )
        rewritings += 1
        total_disjuncts += len(rewriting)
        total_explored += rewriting.stats.explored
        if rewriting.holds_in(stored):
            accepted.add(candidate)
    return RewritingAnswers(
        answers=set(expand_by_class(accepted, classes.classes)),
        disjuncts=total_disjuncts,
        explored=total_explored,
        rewritings=rewritings,
        nonredundant=accepted,
    )
