"""Round trips of the terms' surface syntax.

``escape_literal`` renders a literal's lexical form inside ``Term.n3``;
the SPARQL lexer reads it back with ``unescape_literal``.  Every tricky
lexical form must survive both, and a rendered triple must parse back
as a query pattern that finds it.
"""

import pytest

from repro.errors import TermError
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import (
    BlankNode,
    Literal,
    escape_literal,
    unescape_literal,
)
from repro.rdf.triples import Triple
from repro.sparql.engine import execute

EX = Namespace("http://example.org/")

TRICKY_LEXICALS = [
    "plain",
    'quote " inside',
    "back\\slash",
    "new\nline and\ttab and\rreturn",
    "unicode – dash … ellipsis ⊥ bottom",
    "mixed \\ \" \n end",
    "",
]


def tricky_graph():
    g = Graph(name="tricky")
    s = EX.term("s")
    p = EX.term("p")
    for i, lex in enumerate(TRICKY_LEXICALS):
        g.add(Triple(s, p, Literal(lex)))
        g.add(Triple(EX.term(f"s{i}"), p, Literal(lex, language="en-GB")))
        g.add(
            Triple(
                BlankNode(f"b{i}"),
                p,
                Literal(lex, datatype=EX.term("custom")),
            )
        )
    return g


@pytest.mark.parametrize("lexical", TRICKY_LEXICALS)
def test_escape_unescape_round_trip(lexical):
    assert unescape_literal(escape_literal(lexical)) == lexical


def test_unescape_handles_u_escapes():
    assert unescape_literal("\\u0041\\U0001F600") == "A\U0001f600"


@pytest.mark.parametrize(
    "bad", ["trailing\\", "\\u12", "\\uZZZZ", "\\q"]
)
def test_unescape_rejects_malformed_escapes(bad):
    with pytest.raises(TermError):
        unescape_literal(bad)


def test_rendered_triples_parse_back_as_query_patterns():
    graph = tricky_graph()
    for triple in graph:
        assert execute(graph, f"ASK {{ {triple.n3()} }}").value, triple.n3()
