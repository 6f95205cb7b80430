"""Proposition 2 over the stored ``Graph``: rewriting versus the chase.

The rewritten union is evaluated disjunct by disjunct on the columnar
batch engine, straight over the stored database (no relational copy).
These tests pin what that must preserve: agreement with chase-based
certain answers on the benchmark's cycle system, the blank-dropping
``Q_D`` boundary, constants substituted into answer positions, and the
Proposition-3 bounded rewriting.
"""

import pytest

from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.peers import (
    RPS,
    GraphMappingAssertion,
    certain_answers,
)
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import BlankNode, Literal, Variable
from repro.rdf.triples import Triple
from repro.rewriting import (
    ancestor_query,
    bounded_rewriting_answers,
    certain_answers_by_rewriting,
    certain_answers_by_tuple_check,
    rewrite_boolean_query,
    transitive_closure_rps,
)
from repro.workload import cycle_rps, path_query, peer_namespace

EX = Namespace("http://example.org/")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@pytest.mark.parametrize("hops", [1, 2])
def test_rewriting_equals_chase_on_the_benchmark_cycle(hops):
    """``rewriting.q1``/``q2`` of ``benchmarks/wl_certain_answers.py``."""
    system = cycle_rps(5, entities=100, facts=300, link_fraction=0.0, seed=7)
    knows = [peer_namespace(i).knows for i in range(hops)]
    query = path_query(knows, project_all=True)
    rewritten = certain_answers_by_rewriting(system, query)
    assert rewritten.answers == certain_answers(system, query)
    assert rewritten.rewritings == 1 and rewritten.disjuncts > 1


def _translation(source, target, label):
    return GraphMappingAssertion(
        GraphPatternQuery((X, Y), make_pattern((X, source, Y))),
        GraphPatternQuery((X, Y), make_pattern((X, target, Y))),
        label=label,
    )


class TestStoredBlanksNeverSurface:
    """A blank node of the stored database is a null, not an answer."""

    def system(self) -> RPS:
        source = Graph(
            [
                Triple(EX.a, EX.p, EX.b),
                Triple(EX.a, EX.p, BlankNode("source")),
            ],
            name="source",
        )
        target = Graph(
            [
                Triple(EX.d, EX.q, BlankNode("target")),
                Triple(BlankNode("target"), EX.q, EX.e),
            ],
            name="target",
        )
        return RPS.from_graphs(
            {"source": source, "target": target},
            assertions=[_translation(EX.p, EX.q, "p->q")],
        )

    def test_answer_positions_drop_blanks(self):
        system = self.system()
        query = GraphPatternQuery((X, Y), make_pattern((X, EX.q, Y)))
        answers = certain_answers_by_rewriting(system, query).answers
        assert answers == {(EX.a, EX.b)}
        assert answers == certain_answers(system, query)
        assert answers == certain_answers_by_tuple_check(system, query).answers

    def test_blank_still_joins_as_an_existential(self):
        """?z may bind a stored blank; only answer positions drop it."""
        system = self.system()
        query = GraphPatternQuery(
            (X, Y), make_pattern((X, EX.q, Z), (Z, EX.q, Y))
        )
        answers = certain_answers_by_rewriting(system, query).answers
        assert answers == {(EX.d, EX.e)}
        assert answers == certain_answers(system, query)
        stored = system.stored_database()
        hit = GraphPatternQuery(
            (), make_pattern((EX.d, EX.q, Z), (Z, EX.q, EX.e))
        )
        assert rewrite_boolean_query(system, hit).evaluate(stored)
        miss = GraphPatternQuery((), make_pattern((EX.e, EX.q, Z)))
        assert not rewrite_boolean_query(system, miss).evaluate(stored)


def test_mapping_constant_lands_in_an_answer_position():
    """``(x p y) ⇝ (x kind C)``: C occurs in no stored triple, yet it
    is an answer — spliced in as a term beside the decoded ID cells."""
    assertion = GraphMappingAssertion(
        GraphPatternQuery((X,), make_pattern((X, EX.p, Y))),
        GraphPatternQuery((X,), make_pattern((X, EX.kind, EX.C))),
        label="p->kind",
    )
    system = RPS.from_graphs(
        {
            "source": Graph([Triple(EX.a, EX.p, EX.b)], name="source"),
            "target": Graph([Triple(EX.d, EX.kind, EX.D)], name="target"),
        },
        assertions=[assertion],
    )
    query = GraphPatternQuery((X, Y), make_pattern((X, EX.kind, Y)))
    answers = certain_answers_by_rewriting(system, query).answers
    assert answers == {(EX.a, EX.C), (EX.d, EX.D)}
    assert answers == certain_answers(system, query)


def test_literal_moved_into_predicate_position_matches_nothing():
    """``(x ?p y) ⇝ (x q ?p)`` rewrites ``(e q "5")`` to ``(e "5" ?y)``:
    a well-formed ``tt`` atom that is no triple pattern.  The disjunct
    must count as empty, not raise."""
    p = Variable("p")
    assertion = GraphMappingAssertion(
        GraphPatternQuery((X, p), make_pattern((X, p, Y))),
        GraphPatternQuery((X, p), make_pattern((X, EX.q, p))),
        label="predicate->object",
    )
    system = RPS.from_graphs(
        {
            "source": Graph([Triple(EX.a, EX.r, EX.b)], name="source"),
            "target": Graph([Triple(EX.d, EX.q, Literal("5"))], name="target"),
        },
        assertions=[assertion],
    )
    stored = system.stored_database()
    five = Literal("5")
    miss = GraphPatternQuery((), make_pattern((EX.e, EX.q, five)))
    rewriting = rewrite_boolean_query(system, miss)
    assert len(rewriting) == 2
    assert not rewriting.evaluate(stored)
    query = GraphPatternQuery((X,), make_pattern((X, EX.q, five)))
    answers = certain_answers_by_rewriting(
        system, query, require_fo_rewritable=False
    ).answers
    assert answers == {(EX.d,)} == certain_answers(system, query)


def test_bounded_rewriting_misses_long_chains():
    """Proposition 3: a depth-d rewriting reaches only so far."""
    short, long_ = transitive_closure_rps(3), transitive_closure_rps(6)
    assert not bounded_rewriting_answers(short, ancestor_query(0, 3), 1)[0]
    holds, stats = bounded_rewriting_answers(short, ancestor_query(0, 3), 2)
    assert holds and len(stats.ucq) > 1
    assert not bounded_rewriting_answers(long_, ancestor_query(0, 6), 3)[0]
