"""Algorithm 1 on the quotient by ``≡ₑ``, held to the paper's definitions.

The chase maps the stored database and the assertions' constants to
class representatives, runs the assertions alone and expands J by class
once.  Nothing here trusts that argument: on seeded chain/cycle/film
systems enriched with the awkward shapes of E (below), J must be a
solution by Definition 2, answer every query like the relational chase
with Section 3's six copy TGDs per pair (``chase_via_data_exchange``),
not depend on ``semi_naive`` nor on how E is written down, and be a
fixpoint (Theorem 1).  One hand-derived system pins what did change:
equivalent constants that violate an assertion share one repair.
"""

import random

import pytest

from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.peers import (
    RPS,
    EquivalenceMapping,
    GraphMappingAssertion,
    Peer,
    PeerSchema,
    certain_answers,
    chase_universal_solution,
    chase_via_data_exchange,
    is_solution,
)
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import IRI, BlankNode, Variable
from repro.rdf.triples import Triple

from test_chase import TestSemiNaiveEqualsNaive as _Seeded

EX = Namespace("http://example.org/")
X, Y, Z, P = Variable("x"), Variable("y"), Variable("z"), Variable("p")
COUNTERS = _Seeded.COUNTERS + ("evaluated_mappings",)


def enrich(system: RPS, rng: random.Random):
    """Add the awkward shapes of E to ``system``; returns two queries.

    * a transitive chain ``a ≡ b, b ≡ c`` over IRIs stored in subject
      and object position, and ``p ≡ q`` over two stored predicates;
    * one existing pair again, and once more flipped;
    * a constant that occurs in no stored triple (``ghost``), declared
      in the first peer's schema and linked to a stored entity;
    * an assertion ``(x p′ y) ⇝ ∃z (x r z), (z r c′)`` whose source
      predicate ``p′`` and target constant ``c′`` are members of their
      classes but not the representatives.
    """
    stored = system.stored_database()
    by_key = {"key": lambda term: term.sort_key()}
    predicates = sorted({t.predicate for t in stored}, **by_key)
    entities = sorted(
        (
            term
            for t in stored
            for term in (t.subject, t.object)
            if isinstance(term, IRI)
        ),
        **by_key,
    )
    a, b, c = rng.sample(entities, 3)
    p, q = rng.sample(predicates, 2)
    again = rng.choice(system.equivalences)
    first = system.peers[system.peer_names()[0]]
    ghost = IRI(entities[0].value + "_ghost")
    first.schema = PeerSchema(first.name, set(first.schema.iris) | {ghost})
    for left, right in (
        (a, b),
        (b, c),
        (p, q),
        (again.left, again.right),
        (again.right, again.left),
        (ghost, rng.choice(entities)),
    ):
        system.add_equivalence(EquivalenceMapping(left, right))
    representative = system.class_map().representative
    member = max((p, q), **by_key)
    constant = max((a, b, c), **by_key)
    assert representative[member] != member
    assert representative[constant] != constant
    via = rng.choice(predicates)
    system.add_assertion(
        GraphMappingAssertion(
            GraphPatternQuery((X,), make_pattern((X, member, Y))),
            GraphPatternQuery(
                (X,), make_pattern((X, via, Z), (Z, via, constant))
            ),
            label="non-representative",
        )
    )
    return (
        GraphPatternQuery((X, Y), make_pattern((X, member, Y))),
        GraphPatternQuery((P, Y), make_pattern((ghost, P, Y))),
    )


def enriched_systems(seed: int):
    rng = random.Random(seed)
    # Small: the relational oracle pays six copy TGDs per pair.
    for name, system, query in _Seeded.systems(seed, entities=4, facts=5):
        yield name, system, (query,) + enrich(system, rng)


def rewritten_equivalences(system: RPS, rng: random.Random) -> RPS:
    """The same system with E shuffled and every other pair flipped."""
    pairs = [
        EquivalenceMapping(eq.right, eq.left) if rng.random() < 0.5 else eq
        for eq in system.equivalences
    ]
    rng.shuffle(pairs)
    return RPS(
        list(system.peers.values()), system.assertions, pairs, validate=False
    )


@pytest.mark.parametrize("seed", range(3))
def test_class_chase_is_a_solution_with_the_oracles_answers(seed, graph_shape):
    for name, system, queries in enriched_systems(seed):
        result = chase_universal_solution(system)
        solution = result.solution
        assert is_solution(system, solution), name
        assert result.inferred_triples == len(solution) - result.stored_triples
        exchanged, _ = chase_via_data_exchange(system)
        found = 0
        for query in queries:
            answers = certain_answers(system, query, solution=solution)
            assert answers == certain_answers(
                system, query, solution=exchanged
            ), (name, query)
            found += len(answers)
        assert found, name

        naive = chase_universal_solution(system, semi_naive=False)
        other = chase_universal_solution(
            rewritten_equivalences(system, random.Random(seed))
        )
        for counter in COUNTERS:
            expected = getattr(result, counter)
            if counter != "evaluated_mappings":
                assert getattr(naive, counter) == expected, (name, counter)
            assert getattr(other, counter) == expected, (name, counter)
        shape = graph_shape(solution)
        assert graph_shape(naive.solution) == shape, name
        assert graph_shape(other.solution) == shape, name

        # Theorem 1's fixpoint: J as the stored database needs no repair.
        # (J lives in its own dictionary: the load remaps foreign IDs.)
        closed = RPS(
            [Peer.from_graph("J", solution)],
            system.assertions,
            system.equivalences,
            validate=False,
        )
        again = chase_universal_solution(closed)
        assert again.stored_triples == len(again.solution) == len(solution)
        assert (again.rounds, again.assertion_firings) == (1, 0), name
        assert again.inferred_triples == 0, name
        assert graph_shape(again.solution) == shape, name


def test_equivalent_violators_share_one_repair():
    """``a ≡ a2``, stored ``(a p b)``, ``(a2 p c)``, ``(x p y) ⇝ ∃z (x q z)``.

    K = {(a p b), (a p c)}: one violating tuple ``(a,)``, one null ``n``,
    K gains ``(a q n)``.  Expanded: J = {a, a2} × {p b, p c, q n} — six
    triples.  Repairing pair by pair fired for ``a`` and for ``a2``: two
    nulls, each copied to the other constant, eight triples.
    """
    graph = Graph(
        [Triple(EX.a, EX.p, EX.b), Triple(EX.a2, EX.p, EX.c)], name="peer"
    )
    system = RPS.from_graphs(
        {"peer": graph},
        assertions=[
            GraphMappingAssertion(
                GraphPatternQuery((X,), make_pattern((X, EX.p, Y))),
                GraphPatternQuery((X,), make_pattern((X, EX.q, Z))),
                label="p->q",
            )
        ],
        equivalences=[EquivalenceMapping(EX.a2, EX.a)],
    )
    result = chase_universal_solution(system)
    solution = result.solution
    assert result.assertion_firings == result.blank_nodes_created == 1
    assert result.fired_per_assertion == {"p->q": 1}
    assert (result.stored_triples, result.assertion_triples) == (2, 1)
    assert result.equivalence_triples == 3 and len(solution) == 6
    (null,) = {t for t in solution.terms() if isinstance(t, BlankNode)}
    assert set(solution) == {
        Triple(subject, *rest)
        for subject in (EX.a, EX.a2)
        for rest in ((EX.p, EX.b), (EX.p, EX.c), (EX.q, null))
    }
    assert is_solution(system, solution)

    exchanged, _ = chase_via_data_exchange(system)
    for query in (
        GraphPatternQuery((X, Y), make_pattern((X, EX.p, Y))),
        GraphPatternQuery((X,), make_pattern((X, EX.q, Y))),
        GraphPatternQuery((X, Y), make_pattern((X, EX.q, Y))),
    ):
        assert certain_answers(
            system, query, solution=solution
        ) == certain_answers(system, query, solution=exchanged)
    assert not any(
        isinstance(term, BlankNode)
        for row in certain_answers(
            system,
            GraphPatternQuery((X, Y), make_pattern((X, EX.q, Y))),
            solution=solution,
        )
        for term in row
    )
