"""Whole-stack differential: every federated strategy against the
local engine on the merged graph.

Both layers run the kernels of ``sparql/batch.py``; what differs is
where the triples are read.  Every text builder of
``workload/federation.py`` plus three shapes the simulated-clock
goldens do not have runs under every strategy at two batch sizes, and
must give the answer the local engine gives on
``RPS.stored_database()``.

The same sweep is also pinned by one sha256 over every execution's
answer rows and simulated-clock counters (:data:`FOOTPRINT_SHA256`).
Several strategies probe more than one pulled peer graph for one
conjunct (``collect`` always does), and no golden covers those reads.
The digest was regenerated when every bound join began to batch its
input in arrival order instead of term-ID order; only the timing of
bound-join batches moved, never an answer or a counter of traffic.
The same digest must come out on a dictionary that numbers every term
differently.  It is regenerated by::

    PYTHONPATH=<checkout>/src python tests/test_federation_differential.py
"""

import hashlib
import random
import sys

import pytest

from conftest import where_rows
from repro.federation import STRATEGIES, FederatedExecutor
from repro.gpq.evaluation import evaluate_query_star
from repro.gpq.query import GraphPatternQuery
from repro.peers.system import RPS
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.sparql.ast import AskQuery
from repro.sparql.engine import execute
from repro.sparql.parser import parse_query
from repro.workload.federation import federated_rps
from repro.workload.topologies import peer_namespace
from test_simclock_invariance import BUILDERS

#: sha256 of :func:`footprint_digest` (see the module docstring).
FOOTPRINT_SHA256 = (
    "5d8d5341ab790c69ba185f8d3139ea692ecf5b7b228ec0639eccfaaeb692b924"
)


def _extra_texts():
    p0, p1, p2 = (peer_namespace(k).knows.n3() for k in range(3))
    a1, a2 = peer_namespace(1).age.n3(), peer_namespace(2).age.n3()
    return {
        # A UNION of unequal domains joined to a third pattern.
        "union_join": (
            "SELECT ?x ?y ?z ?w WHERE { "
            f"{{ {{ ?x {p0} ?y }} UNION {{ ?y {p1} ?z }} }} . ?y {p2} ?w }}"
        ),
        # Two OPTIONAL blocks after a UNION: the second left join sees
        # a left side that mixes domains twice over.
        "union_two_optionals": (
            "SELECT ?x ?y ?z ?a ?b WHERE { "
            f"{{ {{ ?x {p0} ?y }} UNION {{ ?y {p1} ?z }} }} "
            f"OPTIONAL {{ ?y {a1} ?a }} OPTIONAL {{ ?y {a2} ?b }} }}"
        ),
        # An OPTIONAL whose condition mentions a variable only the
        # optional side binds (and one only the required side binds).
        "optional_condition": (
            "SELECT ?x ?y ?z WHERE { "
            f"?x {p0} ?y OPTIONAL {{ ?y {p1} ?z FILTER(?z != ?x) }} }}"
        ),
    }


@pytest.fixture(scope="module")
def system():
    return federated_rps(peers=3, entities=20, facts=60, seed=7)


@pytest.fixture(scope="module")
def queries():
    built = {name: build() for name, build in BUILDERS.items()}
    built.update(_extra_texts())
    return built


@pytest.mark.parametrize("batch_size", (2, 64))
def test_every_strategy_equals_the_local_engine(system, queries, batch_size):
    merged = system.stored_database()
    executor = FederatedExecutor(system, batch_size=batch_size)
    for name, query in queries.items():
        if isinstance(query, GraphPatternQuery):
            full, ast = evaluate_query_star(merged, query), None
        else:
            full, ast = where_rows(merged, query), parse_query(query)
        assert full or name == "ask", name  # no vacuous comparison
        prepared = executor.prepare(query)
        for strategy in STRATEGIES:
            rows = executor.execute(prepared, strategy).rows
            key = (name, strategy)
            if ast is None or isinstance(ast, AskQuery):
                assert rows == full, key
            elif ast.order:
                assert rows == set(execute(merged, query).rows), key
            elif ast.limit is not None or ast.offset:
                # Un-ordered LIMIT: any subset of the right size.
                window = max(0, len(full) - (ast.offset or 0))
                if ast.limit is not None:
                    window = min(window, ast.limit)
                assert len(rows) == window and rows <= full, key
            else:
                assert rows == full, key


def footprint_digest(system) -> str:
    """sha256 over every strategy x batch size x text on ``system``.

    Each execution contributes its answer rows (sorted: ``rows`` is a
    set) and its messages, transfer units, solutions transferred, busy
    and elapsed seconds.
    """
    texts = {name: build() for name, build in BUILDERS.items()}
    texts.update(_extra_texts())
    digest = hashlib.sha256()
    for batch_size in (2, 64):
        executor = FederatedExecutor(system, batch_size=batch_size)
        for name, query in texts.items():
            prepared = executor.prepare(query)
            for strategy in STRATEGIES:
                result = executor.execute(prepared, strategy)
                stats = result.stats
                record = (
                    batch_size,
                    name,
                    strategy,
                    sorted(map(repr, result.rows)),
                    stats.messages,
                    stats.transfer_units,
                    stats.solutions_transferred,
                    stats.busy_seconds,
                    stats.elapsed_seconds,
                )
                digest.update(repr(record).encode())
    return digest.hexdigest()


def _reencoded_system():
    """The fixture's system on a dictionary of its own that hands every
    term another ID: 37 filler IRIs first, then the stored terms in a
    seeded shuffle."""
    source = federated_rps(peers=3, entities=20, facts=60, seed=7)
    terms = list(
        dict.fromkeys(
            term
            for peer in source.peers.values()
            for triple in peer.graph
            for term in (triple.subject, triple.predicate, triple.object)
        )
    )
    random.Random(7).shuffle(terms)
    fillers = [IRI(f"http://example.org/filler/{i}") for i in range(37)]
    dictionary = TermDictionary(fillers + terms)
    return RPS.from_graphs(
        {
            name: Graph(peer.graph, name=name, dictionary=dictionary)
            for name, peer in source.peers.items()
        }
    )


def test_every_execution_matches_the_pinned_footprint(system):
    assert footprint_digest(system) == FOOTPRINT_SHA256


def test_the_footprint_does_not_depend_on_term_ids():
    # Answers are sets and bound joins batch in arrival order, so no
    # simulated number may move when every term gets another ID.
    assert footprint_digest(_reencoded_system()) == FOOTPRINT_SHA256


if __name__ == "__main__":
    system = federated_rps(peers=3, entities=20, facts=60, seed=7)
    print(footprint_digest(system))
    print("paste into FOOTPRINT_SHA256", file=sys.stderr)
