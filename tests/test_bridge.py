"""SPARQL -> GPQ bridge: round trips and unsupported-feature errors.

The text side of a round trip is ``conftest.sparql_text``.
"""

import pytest

from conftest import sparql_text
from repro.errors import UnsupportedSparqlError
from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.rdf.namespaces import Namespace, NamespaceManager
from repro.rdf.terms import Variable
from repro.sparql.bridge import sparql_to_gpq
from repro.sparql.parser import parse_query
from repro.workload.generators import random_graph
from repro.workload.queries import random_queries

EX = Namespace("http://example.org/")


def roundtrip(gpq):
    return sparql_to_gpq(sparql_text(gpq))


def queries_equal(left, right):
    return left.head == right.head and set(left.conjuncts()) == set(
        right.conjuncts()
    )


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------


def test_select_round_trip():
    x, y = Variable("x"), Variable("y")
    gpq = GraphPatternQuery(
        (x, y), make_pattern((x, EX.term("p"), y), (y, EX.term("q"), x))
    )
    assert queries_equal(roundtrip(gpq), gpq)


def test_ask_round_trip():
    x = Variable("x")
    gpq = GraphPatternQuery((), make_pattern((x, EX.term("p"), x)))
    text = sparql_text(gpq)
    assert text.startswith("ASK")
    assert queries_equal(sparql_to_gpq(text), gpq)


def test_round_trip_with_namespace_manager():
    nsm = NamespaceManager()
    nsm.bind("ex", "http://example.org/")
    x, y = Variable("x"), Variable("y")
    gpq = GraphPatternQuery((x,), make_pattern((x, EX.term("p"), y)))
    text = sparql_text(gpq, nsm)
    assert "ex:p" in text
    assert queries_equal(sparql_to_gpq(text), gpq)


@pytest.mark.parametrize("seed", [4, 13, 29])
def test_randomized_round_trips(seed):
    graph = random_graph(triples=150, seed=seed)
    predicates = sorted({t.predicate for t in graph})
    for gpq in random_queries(predicates, count=15, max_length=4, seed=seed):
        back = roundtrip(gpq)
        assert queries_equal(back, gpq), sparql_text(gpq)


def test_rendered_text_parses_as_select_or_ask():
    x = Variable("x")
    select_q = GraphPatternQuery((x,), make_pattern((x, EX.term("p"), x)))
    ask_q = GraphPatternQuery((), make_pattern((x, EX.term("p"), x)))
    assert parse_query(sparql_text(select_q)).__class__.__name__ == "SelectQuery"
    assert parse_query(sparql_text(ask_q)).__class__.__name__ == "AskQuery"


# ---------------------------------------------------------------------------
# Unsupported structures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        # UNION cannot become a single GPQ.
        "SELECT ?x WHERE { { ?x <http://example.org/p> ?y } UNION "
        "{ ?x <http://example.org/q> ?y } }",
        # FILTER has no GPQ equivalent.
        "SELECT ?x WHERE { ?x <http://example.org/p> ?y . FILTER(?x != ?y) }",
        # Solution modifiers have no GPQ equivalent.
        "SELECT ?x WHERE { ?x <http://example.org/p> ?y } LIMIT 3",
        # Empty WHERE clause.
        "SELECT ?x WHERE { }",
    ],
)
def test_sparql_to_gpq_rejects_non_conjunctive(text):
    with pytest.raises(UnsupportedSparqlError):
        sparql_to_gpq(text)
