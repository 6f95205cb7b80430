"""Parser and lexer coverage: accepted forms and precise error cases.

The lexer oracle (``TestLexerOracle``) checks every token against the
text it came from, without knowing how the lexer finds it: over every
query text under ``tests/``, the workload generators' texts and a
seeded random corpus, ``tokenize`` returns tokens or raises
``SparqlSyntaxError``, and each token's line and column lead back to
the offset where its source starts.
"""

import ast as pyast
import random
import re
from pathlib import Path

import pytest

from conftest import sparql_text
from repro.errors import (
    SparqlSyntaxError,
    UnsupportedSparqlError,
)
from repro.rdf.namespaces import FOAF_NS, NamespaceManager, RDF_TYPE
from repro.rdf.terms import IRI, Literal, Variable, XSD_INTEGER
from repro.sparql import parser as sparql_parser
from repro.sparql.ast import (
    AskQuery,
    BooleanExpr,
    Comparison,
    SelectQuery,
    UnionPattern,
)
from repro.sparql.lexer import Token, tokenize
from repro.sparql.parser import parse_query
from repro.workload import federation as fed_workload
from repro.workload.film_domain import paper_query_text
from repro.workload.queries import random_queries, star_query


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


def test_tokenize_positions_and_kinds():
    tokens = tokenize('SELECT ?x WHERE { ?x <http://e.org/p> "v" }')
    kinds = [t.kind for t in tokens]
    assert kinds == [
        "keyword", "var", "keyword", "punct", "var", "iri", "string",
        "punct", "eof",
    ]
    assert tokens[0].line == 1 and tokens[0].column == 1


def test_tokenize_tracks_line_numbers():
    tokens = tokenize("SELECT ?x\nWHERE\n{ }")
    where = next(t for t in tokens if t.value == "WHERE")
    assert where.line == 2


def test_tokenize_rejects_stray_character():
    with pytest.raises(SparqlSyntaxError) as excinfo:
        tokenize("SELECT ?x WHERE { ?x @@ ?y }")
    assert excinfo.value.line == 1


def test_tokenize_rejects_unknown_identifier():
    with pytest.raises(SparqlSyntaxError, match="unexpected identifier"):
        tokenize("SELECT ?x FROM { }")


def test_error_position_after_a_multiline_string():
    text = (
        'SELECT ?x WHERE { ?x <http://e.org/p> "two\nlines" . '
        "?x <http://e.org/q> ?y @@ }"
    )
    with pytest.raises(SparqlSyntaxError) as excinfo:
        parse_query(text)
    assert (excinfo.value.line, excinfo.value.column) == (2, 33)
    assert text.splitlines()[1][32] == "@"


def test_keywords_are_case_insensitive():
    ast = parse_query("select ?x where { ?x <http://e.org/p> ?y }")
    assert isinstance(ast, SelectQuery)


# ---------------------------------------------------------------------------
# Parser: accepted structure
# ---------------------------------------------------------------------------


def test_parse_prefixed_names_and_a_keyword():
    ast = parse_query(
        "PREFIX ex: <http://e.org/> SELECT ?x WHERE { ?x a ex:Film }"
    )
    tp = ast.where.elements[0]
    assert tp.predicate == RDF_TYPE
    assert tp.object == IRI("http://e.org/Film")


def test_parse_predicate_object_lists():
    ast = parse_query(
        "SELECT * WHERE { ?x <http://e.org/p> ?y ; <http://e.org/q> ?z , ?w }"
    )
    assert len(ast.where.elements) == 3
    subjects = {tp.subject for tp in ast.where.elements}
    assert subjects == {Variable("x")}


def test_parse_union_and_filter_structure():
    ast = parse_query(
        "SELECT ?s WHERE { { ?s <http://e.org/p> ?o } UNION "
        "{ ?s <http://e.org/q> ?o } FILTER(?s != ?o && ?o != <http://e.org/z>) }"
    )
    union, filter_expr = ast.where.elements
    assert isinstance(union, UnionPattern) and len(union.alternatives) == 2
    assert isinstance(filter_expr, BooleanExpr) and filter_expr.op == "&&"
    assert isinstance(filter_expr.left, Comparison)


def test_parse_typed_and_tagged_literals():
    ast = parse_query(
        'SELECT ?x WHERE { ?x <http://e.org/p> "5"^^'
        "<http://www.w3.org/2001/XMLSchema#integer> . "
        '?x <http://e.org/q> "hi"@en }'
    )
    first, second = ast.where.elements
    assert first.object == Literal("5", datatype=XSD_INTEGER)
    assert second.object == Literal("hi", language="en")


def test_parse_modifiers():
    ast = parse_query(
        "SELECT DISTINCT ?x WHERE { ?x <http://e.org/p> ?y } "
        "ORDER BY DESC(?x) LIMIT 5 OFFSET 2"
    )
    assert ast.distinct
    assert ast.order[0].descending
    assert (ast.limit, ast.offset) == (5, 2)


def test_parse_ask():
    ast = parse_query("ASK { ?x <http://e.org/p> ?y }")
    assert isinstance(ast, AskQuery)


def test_parser_does_not_mutate_callers_namespace_manager():
    nsm = NamespaceManager()
    parse_query(
        "PREFIX ex: <http://e.org/> SELECT ?x WHERE { ?x ex:p ?y }", nsm
    )
    with pytest.raises(Exception):
        nsm.expand("ex:p")


# ---------------------------------------------------------------------------
# Parser: error cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,match",
    [
        ("WHERE { ?x <http://e.org/p> ?y }", "expected SELECT or ASK"),
        ("SELECT WHERE { ?x <http://e.org/p> ?y }", "SELECT needs variables"),
        ("SELECT ?x { ?x <http://e.org/p> ?y } SELECT", "trailing input"),
        ("SELECT ?x WHERE { ?x <http://e.org/p> ?y", "unterminated group"),
        ("SELECT ?x WHERE { ?x <http://e.org/p> }", "object position"),
        ("SELECT ?x WHERE { <http://e.org/p> ?y }", "object position"),
        ("SELECT ?x WHERE { ?x ?p ?y } ORDER BY", "ORDER BY needs"),
        ("SELECT ?x WHERE { ?x ?p ?y } LIMIT ?x", "expected integer"),
        ("SELECT ?x WHERE { ?x ?p ?y } LIMIT -2", "non-negative"),
        ("SELECT ?x WHERE { ?x ?p ?y } OFFSET -3", "non-negative"),
        ("SELECT ?x WHERE { ?x ?p ?y } LIMIT 2 LIMIT 10", "duplicate LIMIT"),
        ("SELECT ?x WHERE { ?x ?p ?y } OFFSET 1 OFFSET 2", "duplicate OFFSET"),
        ("SELECT ?x WHERE { FILTER(?x) }", "expected '=' or '!='"),
        ("PREFIX ex <http://e.org/> SELECT ?x WHERE { }", "unexpected identifier"),
        ("PREFIX ex: SELECT ?x WHERE { }", "namespace IRI"),
        ("CONSTRUCT { ?x <http://e.org/p> ?y }", "expected SELECT or ASK"),
    ],
)
def test_syntax_errors(text, match):
    with pytest.raises(SparqlSyntaxError, match=match):
        parse_query(text)


def test_syntax_error_carries_position():
    with pytest.raises(SparqlSyntaxError) as excinfo:
        parse_query("SELECT ?x WHERE { ?x <http://e.org/p> }")
    assert excinfo.value.line == 1
    assert excinfo.value.column > 1


@pytest.mark.parametrize(
    "text",
    [
        "SELECT ?x WHERE { GRAPH <http://e.org/g> { ?x <http://e.org/p> ?y } }",
        "SELECT ?x WHERE { BIND(?x) }",
        "BASE <http://e.org/> SELECT ?x WHERE { }",
    ],
)
def test_unsupported_features_raise_unsupported(text):
    with pytest.raises(UnsupportedSparqlError):
        parse_query(text)


def test_optional_parses_into_optional_pattern():
    from repro.sparql.ast import OptionalPattern

    ast = parse_query(
        "SELECT ?x ?a WHERE { ?x <http://e.org/p> ?y "
        "OPTIONAL { ?y <http://e.org/age> ?a } }"
    )
    optionals = [
        e for e in ast.where.elements if isinstance(e, OptionalPattern)
    ]
    assert len(optionals) == 1
    assert len(optionals[0].group.elements) == 1


def test_literal_subject_parses_but_matches_nothing():
    # RDF forbids literal subjects, so the pattern is satisfiable by no
    # triple; the engine prunes it rather than the parser rejecting it.
    from repro.rdf.graph import Graph
    from repro.rdf.terms import IRI
    from repro.rdf.triples import Triple
    from repro.sparql.engine import execute

    g = Graph([Triple(IRI("http://e.org/s"), IRI("http://e.org/p"),
                      Literal("lit"))])
    result = execute(g, 'SELECT ?x WHERE { "lit" <http://e.org/p> ?x }')
    assert len(result) == 0


def test_unknown_prefix_is_an_error():
    with pytest.raises(Exception):
        parse_query("SELECT ?x WHERE { ?x ex:p ?y }")


# ---------------------------------------------------------------------------
# Lexer oracle
# ---------------------------------------------------------------------------

TESTS = Path(__file__).resolve().parent

#: Whitespace and comments: all that may stand between two tokens.
GAP = re.compile(r"(?:\s|#[^\n]*)*")

#: Fragments the random corpus is drawn from: tokens of every kind,
#: glued prefixed names, strings and comments holding newlines, and
#: characters that start no token.
ALPHABET = (
    "SELECT", "select", "Ask", "WHERE", "PREFIX", "OPTIONAL", "a", "x",
    "{", "}", "(", ")", ".", ";", ",", "*", "=", "!=", "&&", "||",
    "?x", "$y", "?x1", "<http://e.org/p>", "<>", "_:b1", "_:", "@en",
    "@en-GB", "^^", "1", "-2", "+2.5", ".5", "3e4", "1.e-2",
    '"s"', '"two\nlines"', '"esc\\"q"', '""', '"', "\\",
    "foaf:age", "a:", "SELECT:x", ":local", ":", "ex:a.b", "ex:-",
    "# comment\n", '# "quoted\n', "#", " ", "  ", "\t", "\n", "\r\n",
    "@", "!", "<", ">", "|", "&", "-", "+", "^", "%", "é", " ",
)


def _query_constants():
    """Every string constant under ``tests/`` that holds a query form.

    An f-string's replacement fields read as ``1``.
    """
    forms = re.compile(r"(?i)\b(?:SELECT|ASK|PREFIX)\b")
    for path in sorted(TESTS.glob("*.py")):
        for node in pyast.walk(pyast.parse(path.read_text())):
            if isinstance(node, pyast.JoinedStr):
                text = "".join(
                    part.value if isinstance(part, pyast.Constant) else "1"
                    for part in node.values
                )
            elif isinstance(node, pyast.Constant) and isinstance(
                node.value, str
            ):
                text = node.value
            else:
                continue
            if forms.search(text):
                yield text


def _generator_texts():
    """The texts the workload generators write."""
    yield paper_query_text()
    yield fed_workload.federated_optional_sparql()
    yield fed_workload.federated_optional_filter_sparql()
    yield fed_workload.federated_union_filter_sparql()
    for hops in (1, 2, 3):
        yield fed_workload.federated_ask_sparql(hops)
        yield fed_workload.federated_topk_sparql(hops)
        yield fed_workload.federated_limit_sparql(hops)
        yield fed_workload.federated_limit_sparql(hops, 10, 2, anchor=7)
    queries = [
        fed_workload.federated_path_query(2),
        fed_workload.federated_selective_query(3, 5),
        fed_workload.federated_exclusive_query(2),
        star_query([FOAF_NS.knows, FOAF_NS.age]),
    ]
    queries += random_queries([FOAF_NS.knows, FOAF_NS.age], 6, seed=3)
    for query in queries:
        yield sparql_text(query)
        yield sparql_text(query, NamespaceManager())


def _random_texts(seed, count=3000):
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(
            rng.choice(ALPHABET) + rng.choice(("", "", " ", "\n"))
            for _ in range(rng.randint(0, 14))
        )


CORPUS = {
    "tests": lambda: list(_query_constants()),
    "generators": lambda: list(_generator_texts()),
    "random-1": lambda: list(_random_texts(1)),
    "random-2": lambda: list(_random_texts(2)),
}


def _offset(text, line, column):
    """The text offset of a 1-based (line, column), which must exist."""
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    assert 1 <= line <= len(starts) and column >= 1, (line, column)
    offset = starts[line - 1] + column - 1
    end = starts[line] if line < len(starts) else len(text) + 1
    assert offset < end, (line, column)
    return offset


def check_tokens(text):
    """Check ``tokenize(text)`` against the text; the tokens, or None
    when it raised ``SparqlSyntaxError`` (any other error propagates).
    """
    try:
        tokens = tokenize(text)
    except SparqlSyntaxError as exc:
        offset = _offset(text, exc.line, exc.column)
        assert offset < len(text) and not text[offset].isspace(), exc
        return None
    assert all(type(token) is Token for token in tokens)
    assert [token.kind for token in tokens].count("eof") == 1
    assert tokens[-1][:2] == ("eof", "")
    cursor = 0
    for token in tokens:
        offset = _offset(text, token.line, token.column)
        assert GAP.fullmatch(text, cursor, offset), (token, text)
        source = text[offset:offset + len(token.value)]
        if token.kind == "keyword":
            assert source.upper() == token.value, (token, text)
        else:
            assert source == token.value, (token, text)
        cursor = offset + len(token.value)
    assert cursor == len(text)
    return tokens


class TestLexerOracle:
    @pytest.mark.parametrize("part", sorted(CORPUS))
    def test_tokens_lead_back_to_their_source(self, part):
        texts = CORPUS[part]()
        assert len(texts) >= 20
        lexed = [check_tokens(text) for text in texts]
        if part in ("tests", "generators"):
            assert sum(tokens is not None for tokens in lexed) >= 20
        else:  # the random corpus reaches both outcomes
            assert None in lexed
            assert any(tokens and len(tokens) > 3 for tokens in lexed)

    def test_newlines_inside_strings_and_comments_count(self):
        text = 'ASK {\n "a\nb" # c "d\n ?x }'
        tokens = check_tokens(text)
        assert [(t.kind, t.line, t.column) for t in tokens] == [
            ("keyword", 1, 1),
            ("punct", 1, 5),
            ("string", 2, 2),
            ("var", 4, 2),
            ("punct", 4, 5),
            ("eof", 4, 6),
        ]

    @pytest.mark.parametrize(
        "text,kind",
        [
            ("foaf:age", "pname"),
            ("a:", "pname"),
            ("SELECT:x", "pname"),
            ("select:x", "pname"),
            ("_:b1", "bnode"),
            (":local", "pname"),
            ("a", "a"),
            ("Select", "keyword"),
        ],
    )
    def test_prefixed_name_or_keyword(self, text, kind):
        first, eof = check_tokens(text)
        assert (first.kind, eof.kind) == (kind, "eof")
        assert first.value == (text.upper() if kind == "keyword" else text)


# ---------------------------------------------------------------------------
# The prologue: one shared default, copied at a text's first PREFIX
# ---------------------------------------------------------------------------


def test_a_text_prefix_never_leaves_its_parse():
    caller = NamespaceManager()
    caller.bind("ex", "http://caller.org/")
    before = list(caller.namespaces())
    shared = sparql_parser._DEFAULT_NAMESPACES
    defaults = list(shared.namespaces())
    text = (
        "PREFIX ex: <http://text.org/> PREFIX foaf: <http://text.org/f/> "
        "SELECT ?x WHERE { ?x ex:p foaf:q }"
    )
    for nsm in (None, caller):
        tp = parse_query(text, nsm).where.elements[0]
        assert tp.predicate == IRI("http://text.org/p")
        assert tp.object == IRI("http://text.org/f/q")
    assert list(caller.namespaces()) == before
    assert list(shared.namespaces()) == defaults
    # The next parse starts from the defaults again ...
    with pytest.raises(SparqlSyntaxError, match="unbound namespace prefix"):
        parse_query("SELECT ?x WHERE { ?x ex:p ?y }")
    tp = parse_query("SELECT ?x WHERE { ?x foaf:name ?y }").where.elements[0]
    assert tp.predicate == FOAF_NS.name
    # ... and a prefix the caller bound still resolves.
    query = parse_query("SELECT ?x WHERE { ?x ex:p ?y }", caller)
    assert query.where.elements[0].predicate == IRI("http://caller.org/p")


def test_prologue_is_built_only_when_the_text_declares_one(monkeypatch):
    caller = NamespaceManager()
    built = []
    init = NamespaceManager.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NamespaceManager, "__init__", counting)
    plain = "SELECT ?x WHERE { ?x foaf:name ?y . ?x <http://e.org/p> ?x }"
    declared = (
        "PREFIX ex: <http://e.org/> PREFIX ey: <http://e.org/y/> "
        "SELECT ?x WHERE { ?x ex:p ey:q }"
    )
    for nsm in (None, caller):
        del built[:]
        parse_query(plain, nsm)
        assert built == []
        parse_query(declared, nsm)
        assert len(built) == 1


def test_qname_picks_the_longest_base_after_a_later_bind():
    nsm = NamespaceManager(bind_defaults=False)
    nsm.bind("e", "http://e.org/")
    deep = IRI("http://e.org/a/b")
    assert nsm.qname(deep) is None
    assert nsm.qname(IRI("http://e.org/a")) == "e:a"
    nsm.bind("ea", "http://e.org/a/")
    assert nsm.qname(deep) == "ea:b"
    clone = nsm.copy()
    clone.bind("eab", "http://e.org/a/b/")
    deeper = IRI("http://e.org/a/b/c")
    assert clone.qname(deeper) == "eab:c"
    assert nsm.qname(deeper) is None and "eab" not in nsm
