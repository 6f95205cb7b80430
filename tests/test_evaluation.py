"""Equivalence tests for the ID-level GPQ evaluator.

The rewritten evaluator must agree with (a) the frozen seed store and
evaluator kept in ``tests/seed_store.py`` and (b) the paper's
definitions on small hand-checkable cases, under both the
blank-dropping ``Q_D`` and blank-keeping ``Q*_D`` semantics.
"""

import pytest

from seed_store import BaselineGraph, baseline_evaluate_query
from repro.gpq.evaluation import (
    ask,
    evaluate_pattern,
    evaluate_query,
    evaluate_query_star,
    match_pattern_bindings,
)
from repro.gpq.bindings import SolutionMapping
from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery, obj_query, pred_query, subj_query
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import BlankNode, Literal, Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.workload.generators import random_graph
from repro.workload.queries import path_query, random_queries, star_query

EX = Namespace("http://example.org/")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("blanks", [0.0, 0.3])
def test_query_star_agrees_with_seed_evaluator(seed, blanks):
    graph = random_graph(triples=250, seed=seed, blank_fraction=blanks)
    baseline = BaselineGraph(graph)
    predicates = sorted({t.predicate for t in graph})
    for query in random_queries(predicates, count=8, max_length=3, seed=seed):
        expected = baseline_evaluate_query(baseline, query)
        assert evaluate_query_star(graph, query) == expected
        assert evaluate_query_star(graph, query, optimize=False) == expected


def test_query_drops_blank_tuples_star_keeps_them():
    p = EX.term("p")
    b = BlankNode("null0")
    graph = Graph([Triple(EX.term("a"), p, b), Triple(EX.term("a"), p, EX.term("c"))])
    query = GraphPatternQuery((Y,), make_pattern((X, p, Y)))
    assert evaluate_query_star(graph, query) == {(b,), (EX.term("c"),)}
    assert evaluate_query(graph, query) == {(EX.term("c"),)}


def test_evaluate_pattern_domain_covers_all_variables(film_graph):
    pattern = make_pattern(
        (X, EX.term("directedBy"), Y), (X, EX.term("year"), Z)
    )
    omega = evaluate_pattern(film_graph, pattern)
    assert omega, "expected at least one mapping"
    for mu in omega:
        assert mu.domain() == {X, Y, Z}
        # Every conjunct instantiated by mu must be a graph triple.
        for tp in pattern.conjuncts():
            assert Triple(*tp.substitute(mu.as_dict())) in film_graph


def test_join_across_conjuncts_is_consistent(film_graph):
    directed, year = EX.term("directedBy"), EX.term("year")
    query = GraphPatternQuery(
        (X, Z), make_pattern((X, directed, EX.term("Raimi")), (X, year, Z))
    )
    assert evaluate_query(film_graph, query) == {
        (EX.term("Spiderman"), Literal("2002")),
        (EX.term("DarkMan"), Literal("1990")),
    }


def test_repeated_variable_across_positions():
    p = EX.term("p")
    a, b = EX.term("a"), EX.term("b")
    graph = Graph([Triple(a, p, a), Triple(a, p, b)])
    query = GraphPatternQuery((X,), make_pattern((X, p, X)))
    assert evaluate_query(graph, query) == {(a,)}


def test_unknown_ground_term_prunes_to_empty(medium_random_graph):
    query = GraphPatternQuery(
        (X,), make_pattern((X, EX.term("never-seen-predicate"), Y))
    )
    assert evaluate_query(medium_random_graph, query) == set()
    assert not ask(medium_random_graph, query)


def test_literal_subject_conjunct_yields_empty(medium_random_graph):
    predicate = sorted({t.predicate for t in medium_random_graph})[0]
    query = GraphPatternQuery(
        (X,), make_pattern((Literal("5"), predicate, X))
    )
    assert evaluate_query(medium_random_graph, query) == set()


def test_boolean_ask_semantics(film_graph):
    ground_true = GraphPatternQuery(
        (), make_pattern((EX.term("Spiderman"), EX.term("directedBy"), EX.term("Raimi")))
    )
    ground_false = GraphPatternQuery(
        (), make_pattern((EX.term("Raimi"), EX.term("directedBy"), EX.term("Spiderman")))
    )
    assert ask(film_graph, ground_true)
    assert not ask(film_graph, ground_false)
    assert evaluate_query_star(film_graph, ground_true) == {()}
    assert evaluate_query_star(film_graph, ground_false) == set()


def test_probe_queries(film_graph):
    spiderman = EX.term("Spiderman")
    raimi = EX.term("Raimi")
    directed = EX.term("directedBy")
    subj_answers = evaluate_query_star(film_graph, subj_query(spiderman))
    assert (directed, raimi) in subj_answers
    assert len(subj_answers) == 3
    pred_answers = evaluate_query_star(film_graph, pred_query(directed))
    assert pred_answers == {
        (spiderman, raimi),
        (EX.term("DarkMan"), raimi),
    }
    obj_answers = evaluate_query_star(film_graph, obj_query(raimi))
    assert obj_answers == {
        (spiderman, directed),
        (EX.term("DarkMan"), directed),
    }


def test_conjunct_order_does_not_change_results(medium_random_graph):
    predicates = sorted({t.predicate for t in medium_random_graph})[:3]
    query = path_query(predicates, project_all=True)
    reversed_pattern = make_pattern(*reversed(query.pattern.conjuncts()))
    reversed_query = GraphPatternQuery(query.head, reversed_pattern)
    assert evaluate_query_star(medium_random_graph, query) == evaluate_query_star(
        medium_random_graph, reversed_query
    )


def test_match_pattern_bindings_extends_partial(film_graph):
    partial = SolutionMapping({X: EX.term("Spiderman")})
    results = list(
        match_pattern_bindings(
            film_graph, TriplePattern(X, EX.term("directedBy"), Y), partial
        )
    )
    assert results == [
        SolutionMapping({X: EX.term("Spiderman"), Y: EX.term("Raimi")})
    ]


def test_star_query_on_workload(medium_random_graph):
    predicates = sorted({t.predicate for t in medium_random_graph})[:2]
    query = star_query(predicates)
    baseline = BaselineGraph(medium_random_graph)
    assert evaluate_query_star(medium_random_graph, query) == baseline_evaluate_query(
        baseline, query
    )
