"""Algorithm 1: the RDF-level chase computing a universal solution.

The paper's Algorithm 1 (Appendix) builds a peer-to-peer database J from
the stored database D by repeatedly repairing unsatisfied mappings:

* a **graph mapping assertion** Q ⇝ Q′ is repaired per violating tuple
  ``t ∈ Q_J \\ Q′_J``: substitute t into Q′'s free variables and add the
  body triples of Q′, minting a fresh blank node for each existential
  variable of Q′ (the labelled nulls of the data-exchange view);
* an **equivalence mapping** c ≡ₑ c′ is repaired by copying each triple
  context between c and c′ in all three positions, under the
  blank-keeping ``Q*`` semantics.

New blank nodes never enable further assertion triggers through the free
variables (those range over IRIs/literals only — the ``rt`` guards of
the Section-3 encoding), so the chase terminates in polynomially many
steps (Theorem 1).

The whole fixpoint runs on dictionary IDs.  J is encoded against a
private dictionary; every mapping is compiled once into ID slots (all
its ground terms interned up front); Q and Q′ are evaluated by the
columnar batch engine (:func:`repro.sparql.batch.select_id_rows_batch`)
into sets of ID tuples; ``Q_J`` drops the rows that meet the set of
blank-node IDs, which grows as nulls are minted; the violating
difference is a set difference of integer tuples; repairs are
instantiated as ID triples and land with one ``Graph.add_id_triples``
per mapping.  No term is decoded anywhere in the loop.

Repair order is a total order: assertions in ``system.assertions``
order, then equivalences in ``system.equivalences`` order; within an
assertion, violating tuples in ascending ID-tuple order (IDs follow the
stored database's insertion order, then mapping constants, then nulls
in minting order) and existential variables by name.  The order only
decides which label a null gets — the counters and the solution up to
null renaming do not depend on it.

Two evaluation policies are provided:

* ``semi_naive=False`` — faithful Algorithm 1: every mapping is
  re-checked in every fixpoint round;
* ``semi_naive=True`` (default) — a delta-driven ablation: a mapping is
  only re-checked when some triple added in the previous round could
  participate in a new violation (positional match against a source
  conjunct, or mention of an equivalence constant).  Results are
  identical (property-tested in ``tests/test_chase.py``); only the work
  differs, and ``PeerChaseResult.evaluated_mappings`` reports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
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
from repro.peers.mappings import GraphMappingAssertion
from repro.peers.system import RPS
from repro.sparql.algebra import Bgp
from repro.sparql.batch import select_id_rows_batch

__all__ = ["PeerChaseResult", "chase_universal_solution"]


@dataclass
class PeerChaseResult:
    """Outcome of an Algorithm-1 run.

    Attributes:
        solution: the universal solution J.
        stored_triples: |D| — triples copied from the stored database.
        assertion_triples: triples added by graph mapping assertions
            (the *dashed arrows* of Figure 2).
        equivalence_triples: triples added by equivalence mappings
            (the *dotted arrows* of Figure 2).
        assertion_firings: number of assertion repair steps (one per
            violating tuple).
        blank_nodes_created: fresh labelled nulls minted.
        rounds: fixpoint rounds executed.
        fired_per_assertion: repair steps per assertion, keyed by its
            label (``assertion#i`` when unlabelled); sums to
            ``assertion_firings``.
        evaluated_mappings: repair passes actually run, over all rounds
            — ``rounds × (|G| + |E|)`` minus what the delta filter
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
    solution = Graph(
        system.stored_database(),
        name="universal-solution",
        dictionary=dictionary,
    )
    result = PeerChaseResult(solution=solution, stored_triples=len(solution))
    blanks: Set[int] = {
        tid
        for tid in range(len(dictionary))
        if isinstance(dictionary.decode(tid), BlankNode)
    }

    def intern(term: Term) -> int:
        tid = dictionary.encode(term)
        if isinstance(term, BlankNode):
            blanks.add(tid)
        return tid

    assertions = [
        _compile_assertion(solution, assertion, index, intern)
        for index, assertion in enumerate(system.assertions)
    ]
    result.fired_per_assertion = {c.key: 0 for c in assertions}
    equivalences = [
        (intern(eq.left), intern(eq.right)) for eq in system.equivalences
    ]

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

        for left, right in equivalences:
            if (
                delta is not None
                and left not in delta.mentioned
                and right not in delta.mentioned
            ):
                continue
            result.evaluated_mappings += 1
            new_triples.extend(
                _repair_equivalence(solution, left, right, result)
            )

        if not new_triples:
            break
        if semi_naive:
            delta = _Delta(
                new_triples, {tid for t in new_triples for tid in t}
            )
    return result


def _compile_assertion(
    solution: Graph,
    assertion: GraphMappingAssertion,
    index: int,
    intern: Callable[[Term], int],
) -> _Assertion:
    """Intern an assertion's ground terms and lay out its repair."""
    source, target = assertion.source, assertion.target
    for query in (source, target):
        for pattern in query.conjuncts():
            for term in pattern:
                if not isinstance(term, Variable):
                    intern(term)

    demands: List[_Demand] = []
    for pattern in source.conjuncts():
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
    for pattern in target.conjuncts():
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
        source=Bgp(tuple(source.conjuncts())),
        source_head=source.head,
        target=Bgp(tuple(target.conjuncts())),
        target_head=target.head,
        demands=tuple(demands),
        constants=constants,
        nulls=len(existentials),
        template=tuple(
            (env[tp.subject], env[tp.predicate], env[tp.object])
            for tp in target.conjuncts()
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


def _repair_equivalence(
    solution: Graph, left: int, right: int, result: PeerChaseResult
) -> List[IDTriple]:
    """One repair pass for c ≡ₑ c′ (case 3 of Algorithm 1).

    Copies subject, predicate and object contexts both ways using the
    graph's ID indexes directly — equivalent to the six switch blocks of
    Algorithm 1 under the ``Q*`` (blank-keeping) semantics.  Each block
    sees what the blocks before it added.
    """
    added: List[IDTriple] = []
    for source, target in ((left, right), (right, left)):
        for position in range(3):
            probe: List[Optional[int]] = [None, None, None]
            probe[position] = source
            copies = [
                triple[:position] + (target,) + triple[position + 1 :]
                for triple in solution.triples_ids(*probe)
            ]
            added.extend(_add_new(solution, copies))
    result.equivalence_triples += len(added)
    return added
