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
The digest was generated, over this sweep, from the last commit that
still had a wave-barrier bound-join mode beside the pipelined one (the
executions it covers had not moved since before pulls read the peers'
graphs in place), and is regenerated by::

    PYTHONPATH=<checkout>/src python tests/test_federation_differential.py
"""

import hashlib
import sys

import pytest

from conftest import where_rows
from repro.federation import STRATEGIES, FederatedExecutor
from repro.gpq.evaluation import evaluate_query_star
from repro.gpq.query import GraphPatternQuery
from repro.sparql.ast import AskQuery
from repro.sparql.engine import execute
from repro.sparql.parser import parse_query
from repro.workload.federation import federated_rps
from repro.workload.topologies import peer_namespace
from test_simclock_invariance import BUILDERS, _system

#: sha256 of :func:`footprint_digest` (see the module docstring).
FOOTPRINT_SHA256 = (
    "041667c40009802f9759bad7d63f51444d4a8cb76712aa0721d18d4269132832"
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


def footprint_digest() -> str:
    """sha256 over every strategy x batch size x text.

    Each execution contributes its answer rows (sorted: ``rows`` is a
    set) and its messages, transfer units, solutions transferred, busy
    and elapsed seconds.  The system is the fixture's, re-encoded
    against a private dictionary: bound-join batches form in term-ID
    order, which must not depend on what else the process interned.
    """
    system = _system()
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


def test_every_execution_matches_the_pinned_footprint():
    assert footprint_digest() == FOOTPRINT_SHA256


if __name__ == "__main__":
    print(footprint_digest())
    print("paste into FOOTPRINT_SHA256", file=sys.stderr)
