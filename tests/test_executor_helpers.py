"""Shared binding-helper edge cases and explain-trace determinism."""

from repro.federation import FederatedExecutor
from repro.federation.bindings import dedupe as _dedupe
from repro.rdf.terms import Variable
from repro.workload.federation import (
    federated_exclusive_query,
    federated_rps,
    federated_selective_query,
    federated_union_filter_sparql,
)

X, Y = Variable("x"), Variable("y")


# ---------------------------------------------------------------------------
# _dedupe
# ---------------------------------------------------------------------------


def test_dedupe_keeps_first_occurrence_order():
    bindings = [{X: 1}, {X: 2}, {X: 1}, {Y: 1}, {X: 2}, {X: 1, Y: 1}]
    assert _dedupe(bindings) == [{X: 1}, {X: 2}, {Y: 1}, {X: 1, Y: 1}]


def test_dedupe_treats_insertion_order_as_equal():
    # Two dicts with the same items in different insertion order are the
    # same binding.
    first = {X: 1, Y: 2}
    second = {Y: 2, X: 1}
    assert _dedupe([first, second]) == [first]


def test_dedupe_of_empty_and_singleton():
    assert _dedupe([]) == []
    assert _dedupe([{}]) == [{}]
    assert _dedupe([{}, {}]) == [{}]


# ---------------------------------------------------------------------------
# explain determinism
# ---------------------------------------------------------------------------


def _stable_trace(trace: str) -> str:
    """An explain trace minus its cumulative metrics block.

    The ``metric``-prefixed lines report the executor's *cumulative*
    registry (plan-cache hits/misses, catalog epochs), which advances
    on every prepare by design; the plan tree and decisions must still
    be byte-identical across runs.
    """
    return "\n".join(
        line
        for line in trace.split("\n")
        if not line.startswith("metric ")
    )


def test_explain_is_deterministic_across_repeated_runs():
    system = federated_rps(peers=3, entities=20, facts=60, seed=7)
    executor = FederatedExecutor(system)
    for query in (
        federated_selective_query(entity=3, hops=2),
        federated_union_filter_sparql(),
        federated_exclusive_query(hops=1),
    ):
        raw = [executor.explain(query) for _ in range(3)]
        traces = {_stable_trace(trace) for trace in raw}
        assert len(traces) == 1
        # Repeats of the same text hit the prepared-plan cache.
        assert all("metric plan_cache.hits=" in trace for trace in raw)
        parallel_traces = {
            _stable_trace(executor.explain(query, strategy="parallel"))
            for _ in range(3)
        }
        assert len(parallel_traces) == 1
    stats = executor.plan_cache.stats()
    assert stats["hits"] > 0 and stats["misses"] > 0


def test_explain_is_deterministic_across_executors():
    query = federated_exclusive_query(hops=1)
    traces = set()
    for _ in range(2):
        system = federated_rps(peers=3, entities=20, facts=60, seed=7)
        traces.add(_stable_trace(FederatedExecutor(system).explain(query)))
    assert len(traces) == 1
