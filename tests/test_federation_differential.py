"""Whole-stack differential: every federated strategy against the
local engine on the merged graph.

Both layers run the kernels of ``sparql/batch.py``; what differs is
where the triples are read.  Every text builder of
``workload/federation.py`` plus three shapes the simulated-clock
goldens do not have runs under every strategy, with pipelined and
wave-barrier bound joins, at two batch sizes, and must give the answer
the local engine gives on ``RPS.stored_database()``.
"""

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
from test_simclock_invariance import BUILDERS


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
@pytest.mark.parametrize("streaming", (True, False))
def test_every_strategy_equals_the_local_engine(
    system, queries, streaming, batch_size
):
    merged = system.stored_database()
    executor = FederatedExecutor(
        system, streaming=streaming, batch_size=batch_size
    )
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
