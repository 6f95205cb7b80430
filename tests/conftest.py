"""Shared fixtures for the test suite.

Ensures ``src/`` is importable even when the package is not installed,
then exposes the small graphs, workloads and peer systems most test
modules build on.
"""

import pathlib
import signal
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest

from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import (
    BlankNode,
    Literal,
    Variable,
    reset_blank_node_counter,
)
from repro.rdf.triples import Triple
from repro.sparql.algebra import translate_group
from repro.sparql.ast import SelectQuery
from repro.sparql.batch import select_id_rows_batch
from repro.sparql.parser import parse_query
from repro.workload.generators import random_graph

EX = Namespace("http://example.org/")


def where_rows(graph, text):
    """Distinct projected rows of a query's WHERE clause, as terms.

    The single-graph comparator of the federated suites: the batch
    engine over the merged graph (itself held to ``sparql/algebra.py``
    by ``test_columnar.py``).  Solution modifiers are ignored and an
    ASK projects nothing.
    """
    ast = parse_query(text)
    head = ast.projected() if isinstance(ast, SelectQuery) else ()
    decode = graph.decode_id
    return {
        tuple(None if tid is None else decode(tid) for tid in row)
        for row in select_id_rows_batch(
            graph, translate_group(ast.where), head
        )
    }


# ---------------------------------------------------------------------------
# Join oracles: the nested loops the hash kernels replaced
# ---------------------------------------------------------------------------


def _compatible(left, right):
    for var, tid in right.items():
        bound = left.get(var)
        if bound is not None and bound != tid:
            return False
    return True


def nested_loop_pairs(left, right, condition=None):
    """SPARQL ``LeftJoin`` of two lists of ``{Variable: id}`` bindings
    as ``(merged, left index, right index | -1)``, before deduplication.

    ``condition`` is a predicate over one merged binding.  Without one,
    the entries with a right index are the inner join's pairs.
    """
    out = []
    for i, binding in enumerate(left):
        extended = 0
        for j, opt in enumerate(right):
            if not _compatible(binding, opt):
                continue
            merged = {**binding, **opt}
            if condition is not None and not condition(merged):
                continue
            out.append((merged, i, j))
            extended += 1
        if not extended:
            out.append((binding, i, -1))
    return out


def reference_join(left, right):
    """Compatible-merge nested loop (the paper's omega-join)."""
    return [
        merged for merged, _, j in nested_loop_pairs(left, right) if j >= 0
    ]


def as_mask(condition):
    """A per-binding predicate as the column mask the kernels take."""
    from repro.federation.bindings import bindings_of

    if condition is None:
        return None
    return lambda batch: [condition(b) for b in bindings_of(batch)]


# ---------------------------------------------------------------------------
# Per-test time cap
# ---------------------------------------------------------------------------

#: Wall-clock seconds one test (setup, call and teardown together) may
#: run before it fails: a hang — an endless loop in a chunk generator,
#: say — fails the suite instead of stalling it.
TEST_TIME_CAP_S = 60


def _time_cap_expired(signum, frame):
    pytest.fail(f"test ran longer than the {TEST_TIME_CAP_S} s cap")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Arm ``SIGALRM`` around one test; a no-op where it does not exist."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _time_cap_expired)
    signal.alarm(TEST_TIME_CAP_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _deterministic_blank_nodes():
    """Fresh blank-node labels start at 0 in every test."""
    reset_blank_node_counter()
    yield


@pytest.fixture
def graph_shape():
    """A graph's sorted triples with every blank node collapsed to one
    mark — equal shapes are a cheap necessary condition for isomorphism
    that ignores which label a chase null got."""

    def shape(graph):
        return sorted(
            tuple(
                "_" if isinstance(term, BlankNode) else term.n3()
                for term in triple
            )
            for triple in graph
        )

    return shape


@pytest.fixture
def ex():
    """The shared example namespace."""
    return EX


@pytest.fixture
def film_graph():
    """A hand-written graph mirroring the paper's film-domain examples."""
    g = Graph(name="films")
    spiderman = EX.term("Spiderman")
    raimi = EX.term("Raimi")
    directed = EX.term("directedBy")
    year = EX.term("year")
    title = EX.term("title")
    g.add(Triple(spiderman, directed, raimi))
    g.add(Triple(spiderman, year, Literal("2002")))
    g.add(Triple(spiderman, title, Literal("Spider-Man", language="en")))
    g.add(Triple(EX.term("DarkMan"), directed, raimi))
    g.add(Triple(EX.term("DarkMan"), year, Literal("1990")))
    return g


@pytest.fixture
def medium_random_graph():
    """A seeded ~300-triple generator graph (no blanks)."""
    return random_graph(triples=300, seed=5)


@pytest.fixture
def blanky_random_graph():
    """A seeded generator graph with a 30% blank-node fraction."""
    return random_graph(triples=200, seed=9, blank_fraction=0.3)


@pytest.fixture
def path_query_2(medium_random_graph):
    """A 2-hop path query over the generator vocabulary."""
    predicates = sorted(medium_random_graph.predicates())[:2]
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return GraphPatternQuery(
        (x, z), make_pattern((x, predicates[0], y), (y, predicates[1], z))
    )


@pytest.fixture
def three_peer_chain():
    """A 3-peer chain RPS with hand-computable certain answers.

    peer0 stores ``a knows0 b`` and ``b knows0 c``; assertions translate
    ``knows0 -> knows1 -> knows2``; peer1 and peer2 each hold one local
    fact; one equivalence identifies ``peer0:a`` with ``peer1:d``.
    Tests assert the exact certain-answer sets derived in
    ``tests/test_chase.py``.
    """
    from repro.peers.mappings import EquivalenceMapping, GraphMappingAssertion
    from repro.peers.system import RPS

    ns = [Namespace(f"http://peer{i}.example.org/") for i in range(3)]
    knows = [n.term("knows") for n in ns]
    a, b, c = (ns[0].term(x) for x in "abc")
    d, e = ns[1].term("d"), ns[1].term("e")
    f, g = ns[2].term("f"), ns[2].term("g")

    graphs = {
        "peer0": Graph([Triple(a, knows[0], b), Triple(b, knows[0], c)]),
        "peer1": Graph([Triple(d, knows[1], e)]),
        "peer2": Graph([Triple(f, knows[2], g)]),
    }

    def translation(i, j):
        x, y = Variable("x"), Variable("y")
        return GraphMappingAssertion(
            GraphPatternQuery((x, y), make_pattern((x, knows[i], y))),
            GraphPatternQuery((x, y), make_pattern((x, knows[j], y))),
            source_peer=f"peer{i}",
            target_peer=f"peer{j}",
            label=f"peer{i}->peer{j}",
        )

    rps = RPS.from_graphs(
        graphs,
        assertions=[translation(0, 1), translation(1, 2)],
        equivalences=[EquivalenceMapping(a, d)],
    )
    terms = {
        "a": a, "b": b, "c": c, "d": d, "e": e, "f": f, "g": g,
        "knows": knows,
    }
    return rps, terms
