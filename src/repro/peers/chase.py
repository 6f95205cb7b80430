"""Algorithm 1: the RDF-level chase computing a universal solution.

The paper's Algorithm 1 (Appendix) builds a peer-to-peer database J from
the stored database D by repeatedly repairing unsatisfied mappings:

* a **graph mapping assertion** Q ⇝ Q′ is repaired per violating tuple
  ``t ∈ Q_J \\ Q′_J``: substitute t into Q′'s free variables and add the
  body triples of Q′, minting a fresh blank node for each existential
  variable of Q′ (the labelled nulls of the data-exchange view);
* an **equivalence mapping** c ≡ₑ c′ is never repaired pair by pair.
  Definition 2(3) makes ``≡ₑ`` a congruence (equal subject, predicate
  and object contexts on both sides), so the fixpoint runs on the
  quotient K of D by the classes of ``≡ₑ`` — every stored triple and
  every ground term of every assertion mapped to its class
  representative (:mod:`repro.peers.quotient`, the class map the
  rewriting route uses) — with the assertions alone, and J is K
  expanded by class, once, after the fixpoint: a K triple with a
  position in a non-trivial class contributes the product of its
  classes.  The six copy blocks of Algorithm 1's case 3 survive only
  in the oracle, as the copy TGDs of the Section-3 encoding
  (:mod:`repro.peers.data_exchange`).

Two equivalent constants that both violate an assertion are one
violating tuple of K, so they share one repair and its nulls: J is a
smaller universal solution than the pair-wise repair builds,
homomorphically equivalent to it, with the same certain answers.

New blank nodes never enable further assertion triggers through the free
variables (those range over IRIs/literals only — the ``rt`` guards of
the Section-3 encoding), so the chase terminates in polynomially many
steps (Theorem 1).

The whole run is on dictionary IDs.  J is encoded against a private
dictionary filled straight from the peers' ID triples (one ID → ID
remap per source dictionary); every assertion is compiled once into ID
slots (all its ground terms interned up front); Q and Q′ are evaluated
by the columnar batch engine
(:func:`repro.sparql.batch.select_id_rows_batch`) into sets of ID
tuples; ``Q_K`` drops the rows that meet the set of blank-node IDs,
which grows as nulls are minted; the violating difference is a set
difference of integer tuples; repairs are instantiated as ID triples
and land with one ``Graph.add_id_triples`` per assertion, the expansion
with one more.  No term is decoded and no term-level triple is built.

Repair order is a total order: assertions in ``system.assertions``
order; within an assertion, violating tuples in ascending ID-tuple
order and existential variables by name.  IDs follow the stored
database's first-encounter order (peers by name, each graph in
insertion order, subject-predicate-object), then the class members
(classes and members in term order), then the assertions' constants,
then nulls in minting order.  The order only decides which label a null
gets — the counters and the solution up to null renaming do not depend
on it, nor on the order or orientation of ``system.equivalences``.

Two evaluation policies are provided:

* ``semi_naive=False`` — faithful Algorithm 1: every assertion is
  re-checked in every fixpoint round;
* ``semi_naive=True`` (default) — a delta-driven ablation: an assertion
  is only re-checked when some triple added in the previous round could
  participate in a new violation (positional match against a source
  conjunct).  Results are identical (property-tested in
  ``tests/test_chase.py``); only the work differs, and
  ``PeerChaseResult.evaluated_mappings`` reports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ChaseNonTerminationError
from repro.gpq.evaluation import compile_conjunct
from repro.rdf.dictionary import IDTriple, TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import BlankNode, Term, Variable, fresh_blank_node
from repro.rdf.triples import TriplePattern
from repro.peers.mappings import GraphMappingAssertion
from repro.peers.quotient import (
    canonical_map,
    class_members,
    expand_by_class,
    quotient_triples,
    representative_ids,
)
from repro.peers.system import RPS
from repro.sparql.algebra import Bgp
from repro.sparql.batch import select_id_rows_batch

__all__ = ["PeerChaseResult", "chase_universal_solution"]


@dataclass
class PeerChaseResult:
    """Outcome of an Algorithm-1 run.

    Attributes:
        solution: the universal solution J, materialised.
        stored_triples: |D| — distinct triples of the stored database.
        assertion_triples: triples added by graph mapping assertions
            (the *dashed arrows* of Figure 2), counted on the quotient.
        equivalence_triples: triples J owes to equivalence mappings
            (the *dotted arrows* of Figure 2) — derived, everything
            neither stored nor placed by an assertion repair:
            ``len(solution) − stored_triples − assertion_triples``.
        assertion_firings: number of assertion repair steps (one per
            violating tuple of the quotient).
        blank_nodes_created: fresh labelled nulls minted.
        rounds: fixpoint rounds executed.
        fired_per_assertion: repair steps per assertion, keyed by its
            label (``assertion#i`` when unlabelled); sums to
            ``assertion_firings``.
        evaluated_mappings: assertion repair passes actually run, over
            all rounds — ``rounds × |G|`` minus what the delta filter
            skipped.
    """

    solution: Graph
    stored_triples: int = 0
    assertion_triples: int = 0
    equivalence_triples: int = 0
    assertion_firings: int = 0
    blank_nodes_created: int = 0
    rounds: int = 0
    fired_per_assertion: Dict[str, int] = field(default_factory=dict)
    evaluated_mappings: int = 0

    @property
    def inferred_triples(self) -> int:
        return self.assertion_triples + self.equivalence_triples


#: What one source conjunct demands of a triple that matches it:
#: ``(position, ID)`` pairs for its ground positions and position pairs
#: a repeated variable forces equal.
_Demand = Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]


class _Assertion(NamedTuple):
    """A graph mapping assertion compiled against J's dictionary."""

    key: str
    source: Bgp
    source_head: Tuple[Variable, ...]
    target: Bgp
    target_head: Tuple[Variable, ...]
    #: One entry per source conjunct; empty when a conjunct can match
    #: no triple at all (the assertion then never fires).
    demands: Tuple[_Demand, ...]
    #: A repair's environment is ``constants + violating row + nulls``;
    #: ``template`` holds, per target conjunct, three indexes into it.
    constants: Tuple[int, ...]
    nulls: int
    template: Tuple[Tuple[int, int, int], ...]


class _Delta(NamedTuple):
    """The triples one round added, and every ID they mention."""

    triples: List[IDTriple]
    mentioned: Set[int]


def chase_universal_solution(
    system: RPS,
    max_rounds: int = 10_000,
    semi_naive: bool = True,
) -> PeerChaseResult:
    """Run Algorithm 1 and return the universal solution for the RPS.

    Args:
        system: the RPS ``(S, G, E)`` with its stored data.
        max_rounds: fixpoint-round budget (Theorem 1 guarantees
            termination; the budget guards against implementation bugs).
        semi_naive: enable the delta-driven relevance filter.

    Raises:
        ChaseNonTerminationError: if the round budget is exhausted.
    """
    # The chase mints globally fresh blank nodes (a process-wide counter),
    # so encoding the solution against the shared default dictionary would
    # grow it without bound across runs.  Each universal solution therefore
    # gets its own private dictionary, reclaimed when the solution is.
    dictionary = TermDictionary()
    blanks: Set[int] = set()

    def intern(term: Term) -> int:
        tid = dictionary.encode(term)
        if isinstance(term, BlankNode):
            blanks.add(tid)
        return tid

    stored = _stored_id_triples(system, intern)
    representative = canonical_map(system)
    classes = {
        intern(canonical): tuple(map(intern, members))
        for canonical, members in class_members(representative).items()
    }
    solution = Graph(name="universal-solution", dictionary=dictionary)
    solution.add_id_triples(
        quotient_triples(
            stored, representative_ids(representative, intern, intern)
        ),
        dictionary,
    )
    result = PeerChaseResult(solution=solution, stored_triples=len(stored))
    assertions = [
        _compile_assertion(solution, assertion, index, intern, representative)
        for index, assertion in enumerate(system.assertions)
    ]
    result.fired_per_assertion = {c.key: 0 for c in assertions}

    # None means "everything is new" (first round).
    delta: Optional[_Delta] = None

    while True:
        result.rounds += 1
        if result.rounds > max_rounds:
            raise ChaseNonTerminationError(
                f"Algorithm 1 exceeded {max_rounds} rounds",
                steps=result.rounds,
            )
        new_triples: List[IDTriple] = []

        for compiled in assertions:
            if delta is not None and not _assertion_relevant(
                compiled.demands, delta
            ):
                continue
            result.evaluated_mappings += 1
            new_triples.extend(
                _repair_assertion(solution, compiled, blanks, intern, result)
            )

        if not new_triples:
            break
        if semi_naive:
            delta = _Delta(
                new_triples, {tid for t in new_triples for tid in t}
            )

    # K is closed under the assertions; J is its expansion by class.
    if classes:
        solution.add_id_triples(
            list(expand_by_class(solution.id_triples(), classes)), dictionary
        )
    result.equivalence_triples = (
        len(solution) - result.stored_triples - result.assertion_triples
    )
    return result


def _stored_id_triples(
    system: RPS, intern: Callable[[Term], int]
) -> Dict[IDTriple, None]:
    """The stored database D as ID triples of the private dictionary.

    Peers in ``peer_names()`` order, each graph in insertion order, IDs
    assigned at first encounter over subject, predicate, object; one
    ID → ID remap per source dictionary.
    """
    stored: Dict[IDTriple, None] = {}
    remaps: Dict[TermDictionary, Dict[int, int]] = {}
    for name in system.peer_names():
        graph = system.peers[name].graph
        remap = remaps.setdefault(graph.dictionary, {})
        terms = graph.dictionary.terms()
        for triple in graph.id_triples():
            for tid in triple:
                if tid not in remap:
                    remap[tid] = intern(terms[tid])
            s, p, o = triple
            stored[remap[s], remap[p], remap[o]] = None
    return stored


def _compile_assertion(
    solution: Graph,
    assertion: GraphMappingAssertion,
    index: int,
    intern: Callable[[Term], int],
    representative: Mapping[Term, Term],
) -> _Assertion:
    """Intern an assertion's ground terms and lay out its repair.

    Ground terms are taken modulo ``representative`` first: the compiled
    assertion speaks of the quotient, like the graph it is run on.
    """
    source, target = assertion.source, assertion.target
    canonical = representative.get
    source_patterns, target_patterns = (
        tuple(
            TriplePattern(*[canonical(term, term) for term in pattern])
            for pattern in query.conjuncts()
        )
        for query in (source, target)
    )
    for pattern in source_patterns + target_patterns:
        for term in pattern:
            if not isinstance(term, Variable):
                intern(term)

    demands: List[_Demand] = []
    for pattern in source_patterns:
        slots = compile_conjunct(solution, pattern)
        if slots is None:  # literal subject: matches nothing, ever
            demands = []
            break
        ground: List[Tuple[int, int]] = []
        repeats: List[Tuple[int, int]] = []
        first: Dict[Variable, int] = {}
        for pos, slot in enumerate(slots):
            if isinstance(slot, int):
                ground.append((pos, slot))
            elif slot in first:
                repeats.append((first[slot], pos))
            else:
                first[slot] = pos
        demands.append((tuple(ground), tuple(repeats)))

    # Environment layout: target constants, then the head row, then one
    # null per existential variable (by name).
    env: Dict[Term, int] = {}
    for pattern in target_patterns:
        for term in pattern:
            if not isinstance(term, Variable):
                env.setdefault(term, len(env))
    constants = tuple(intern(term) for term in env)
    for var in target.head:
        env[var] = len(env)
    existentials = sorted(
        target.existential_variables(), key=lambda v: v.name
    )
    for var in existentials:
        env[var] = len(env)
    return _Assertion(
        key=assertion.label or f"assertion#{index}",
        source=Bgp(source_patterns),
        source_head=source.head,
        target=Bgp(target_patterns),
        target_head=target.head,
        demands=tuple(demands),
        constants=constants,
        nulls=len(existentials),
        template=tuple(
            (env[tp.subject], env[tp.predicate], env[tp.object])
            for tp in target_patterns
        ),
    )


def _assertion_relevant(demands: Sequence[_Demand], delta: _Delta) -> bool:
    """Could any new triple participate in a new source-pattern match?

    A new match of the source pattern must map at least one conjunct onto
    at least one new triple; the test is positional compatibility, on
    IDs.  A conjunct whose ground IDs the delta never mentions is
    rejected without scanning it.
    """
    mentioned = delta.mentioned
    for ground, repeats in demands:
        if any(tid not in mentioned for _, tid in ground):
            continue
        for triple in delta.triples:
            for pos, tid in ground:
                if triple[pos] != tid:
                    break
            else:
                for a, b in repeats:
                    if triple[a] != triple[b]:
                        break
                else:
                    return True
    return False


def _add_new(solution: Graph, candidates: List[IDTriple]) -> List[IDTriple]:
    """Bulk-add ``candidates``; returns those that were not in J yet."""
    contains = solution.contains_ids
    fresh = [t for t in dict.fromkeys(candidates) if not contains(*t)]
    if fresh:
        solution.add_id_triples(fresh, solution.dictionary)
    return fresh


def _repair_assertion(
    solution: Graph,
    assertion: _Assertion,
    blanks: Set[int],
    intern: Callable[[Term], int],
    result: PeerChaseResult,
) -> List[IDTriple]:
    """One repair pass for Q ⇝ Q′ (case 2 of Algorithm 1)."""
    source_rows = select_id_rows_batch(
        solution, assertion.source, assertion.source_head
    )
    if blanks:
        source_rows = {r for r in source_rows if blanks.isdisjoint(r)}
    if not source_rows:
        return []
    # Q′ rows are taken under Q*: one that carries a blank equals no
    # blank-free source row, so the difference is the same as under Q.
    violating = source_rows - select_id_rows_batch(
        solution, assertion.target, assertion.target_head
    )
    constants, nulls = assertion.constants, range(assertion.nulls)
    envs = [
        constants + row + tuple([intern(fresh_blank_node()) for _ in nulls])
        for row in sorted(violating)
    ]
    added = _add_new(
        solution,
        [
            (env[s], env[p], env[o])
            for env in envs
            for s, p, o in assertion.template
        ],
    )
    result.assertion_triples += len(added)
    result.assertion_firings += len(violating)
    result.fired_per_assertion[assertion.key] += len(violating)
    result.blank_nodes_created += assertion.nulls * len(violating)
    return added
