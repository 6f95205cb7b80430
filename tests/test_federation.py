"""Federated execution: strategy equivalence and message accounting."""

import pytest

from conftest import reference_join
from repro.errors import FederationError
from repro.federation import (
    ADAPTIVE,
    STRATEGIES,
    FederatedExecutor,
    NetworkModel,
    NetworkStats,
    execute_federated,
)
from repro.federation.bindings import hash_join as _hash_join
from repro.gpq.evaluation import evaluate_query_star
from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import Variable
from repro.rdf.triples import Triple
from repro.peers.system import RPS
from repro.workload.federation import federated_path_query, federated_rps
from repro.workload.topologies import peer_namespace


@pytest.fixture(scope="module")
def three_peer_system():
    return federated_rps(peers=3, entities=20, facts=60, seed=7)


@pytest.fixture(scope="module")
def path_query():
    return federated_path_query(hops=2)


@pytest.fixture(scope="module")
def expected_rows(three_peer_system, path_query):
    return evaluate_query_star(
        three_peer_system.stored_database(), path_query
    )


# ---------------------------------------------------------------------------
# Strategy equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_strategy_matches_single_graph_executor(
    three_peer_system, path_query, expected_rows, strategy
):
    result = execute_federated(three_peer_system, path_query, strategy)
    assert result.rows == expected_rows
    assert result.strategy == strategy
    assert result.stats.messages > 0


def test_run_all_strategies_asserts_equality(
    three_peer_system, path_query, expected_rows
):
    executor = FederatedExecutor(three_peer_system)
    results = executor.run_all_strategies(path_query)
    assert set(results) == set(STRATEGIES)
    for result in results.values():
        assert result.rows == expected_rows


def test_three_hop_query_across_all_peers(three_peer_system):
    query = federated_path_query(hops=3)
    expected = evaluate_query_star(
        three_peer_system.stored_database(), query
    )
    executor = FederatedExecutor(three_peer_system)
    for strategy in STRATEGIES:
        assert executor.execute(query, strategy).rows == expected


def test_sparql_text_queries_are_accepted(three_peer_system):
    p0 = peer_namespace(0).knows.n3()
    result = execute_federated(
        three_peer_system,
        f"SELECT ?x ?y WHERE {{ ?x {p0} ?y }}",
        strategy="bound",
    )
    expected = evaluate_query_star(
        three_peer_system.stored_database(),
        GraphPatternQuery(
            (Variable("x"), Variable("y")),
            make_pattern((Variable("x"), peer_namespace(0).knows,
                          Variable("y"))),
        ),
    )
    assert result.rows == expected


def test_batch_size_does_not_change_results(
    three_peer_system, path_query, expected_rows
):
    for batch_size in (1, 3, 1000):
        result = execute_federated(
            three_peer_system, path_query, "bound", batch_size=batch_size
        )
        assert result.rows == expected_rows


def test_empty_answer_query(three_peer_system):
    # A predicate nobody holds: naive still ships it everywhere, bound
    # and adaptive stop before sending anything; all agree on emptiness.
    x, y = Variable("x"), Variable("y")
    query = GraphPatternQuery(
        (x, y), make_pattern((x, peer_namespace(9).knows, y))
    )
    naive = execute_federated(three_peer_system, query, "naive")
    bound = execute_federated(three_peer_system, query, "bound")
    adaptive = execute_federated(three_peer_system, query, ADAPTIVE)
    assert naive.rows == bound.rows == adaptive.rows == set()
    assert naive.stats.messages == 3  # one per peer
    assert bound.stats.messages == 0  # no relevant source
    assert adaptive.stats.messages == 0  # zero-count sources cost nothing


# ---------------------------------------------------------------------------
# The hash join under heterogeneous binding domains
# ---------------------------------------------------------------------------


def _canonical_rows(rows):
    return sorted(
        tuple(sorted((v.name, tid) for v, tid in row.items())) for row in rows
    )


def test_hash_join_heterogeneous_domains_regression():
    # The old implementation read the shared variables off the *first*
    # row of each side; with mixed domains (possible once endpoints
    # return partially-bound rows under pushdown) it degenerated to a
    # cross product that even merged conflicting values silently.
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    left = [{x: 1}, {x: 1, y: 2}, {y: 3}]
    right = [{y: 2}, {x: 1, z: 5}, {x: 2, y: 3}]
    assert _canonical_rows(_hash_join(left, right)) == _canonical_rows(
        reference_join(left, right)
    )
    # The first-domain pair shares nothing, so the old code joined the
    # whole input as a cross product: 9 merged rows, some inconsistent.
    assert len(_hash_join(left, right)) == len(reference_join(left, right))


def test_hash_join_homogeneous_domains_unchanged():
    x, y = Variable("x"), Variable("y")
    left = [{x: 1}, {x: 2}]
    right = [{x: 1, y: 10}, {x: 1, y: 11}, {x: 3, y: 12}]
    assert _canonical_rows(_hash_join(left, right)) == _canonical_rows(
        reference_join(left, right)
    )


def test_hash_join_randomized_against_reference():
    import random

    variables = [Variable(name) for name in "abcd"]
    rng = random.Random(5)
    for _ in range(50):
        def rows():
            out = []
            for _ in range(rng.randint(0, 6)):
                domain = rng.sample(variables, rng.randint(1, 4))
                out.append({v: rng.randint(1, 3) for v in domain})
            return out

        left, right = rows(), rows()
        expected = _canonical_rows(reference_join(left, right))
        assert _canonical_rows(_hash_join(left, right)) == expected


# ---------------------------------------------------------------------------
# Message accounting
# ---------------------------------------------------------------------------


def test_bound_ships_strictly_fewer_messages_than_naive(path_query):
    for facts in (20, 60, 120):
        system = federated_rps(
            peers=3, entities=max(10, facts // 3), facts=facts, seed=7
        )
        expected = evaluate_query_star(system.stored_database(), path_query)
        results = FederatedExecutor(system).run_all_strategies(path_query)
        for strategy, result in results.items():
            assert result.rows == expected, (facts, strategy)
        naive, bound = results["naive"].stats, results["bound"].stats
        assert bound.messages < naive.messages, facts
        # Naive ships every pattern to every peer.
        assert naive.messages == 2 * 3, facts


def test_batching_splits_messages_deterministically(
    three_peer_system, path_query
):
    small = execute_federated(
        three_peer_system, path_query, "bound", batch_size=10
    )
    large = execute_federated(
        three_peer_system, path_query, "bound", batch_size=1000
    )
    assert small.stats.messages > large.stats.messages
    # Re-running is exactly reproducible.
    again = execute_federated(
        three_peer_system, path_query, "bound", batch_size=10
    )
    assert again.stats.messages == small.stats.messages
    assert (
        again.stats.solutions_transferred == small.stats.solutions_transferred
    )


def test_collect_dumps_every_triple_once(three_peer_system, path_query):
    result = execute_federated(three_peer_system, path_query, "collect")
    assert result.stats.messages == 3
    assert result.stats.triples_transferred == sum(
        len(peer.graph) for peer in three_peer_system.peers.values()
    )


def test_network_model_charges_latency_and_volume():
    model = NetworkModel(
        latency_seconds=1.0, per_solution_seconds=0.5, per_triple_seconds=0.25
    )
    stats = NetworkStats()
    model.charge_query(stats, "p0", solutions=4)
    model.charge_dump(stats, "p1", triples=8)
    assert stats.messages == 2
    assert stats.solutions_transferred == 4
    assert stats.triples_transferred == 8
    assert stats.busy_seconds == pytest.approx(1 + 4 * 0.5 + 1 + 8 * 0.25)
    assert stats.per_endpoint_messages == {"p0": 1, "p1": 1}


def test_stats_merge_accumulates():
    first, second = NetworkStats(), NetworkStats()
    model = NetworkModel()
    model.charge_query(first, "a", 2)
    model.charge_query(second, "a", 3)
    model.charge_query(second, "b", 1)
    first.merge(second)
    assert first.messages == 3
    assert first.solutions_transferred == 6
    assert first.per_endpoint_messages == {"a": 2, "b": 1}


def test_custom_network_model_scales_simulated_time(
    three_peer_system, path_query
):
    slow = execute_federated(
        three_peer_system, path_query, "naive",
        network=NetworkModel(latency_seconds=1.0),
    )
    fast = execute_federated(
        three_peer_system, path_query, "naive",
        network=NetworkModel(latency_seconds=0.001),
    )
    assert slow.stats.messages == fast.stats.messages
    assert slow.stats.busy_seconds > fast.stats.busy_seconds


# ---------------------------------------------------------------------------
# Validation errors
# ---------------------------------------------------------------------------


def test_unknown_strategy_is_rejected(three_peer_system, path_query):
    with pytest.raises(FederationError, match="unknown strategy"):
        execute_federated(three_peer_system, path_query, "psychic")


def test_empty_system_is_rejected():
    with pytest.raises(FederationError, match="empty peer system"):
        FederatedExecutor(RPS([]))


def test_bad_batch_size_is_rejected(three_peer_system):
    with pytest.raises(FederationError, match="batch_size"):
        FederatedExecutor(three_peer_system, batch_size=0)


def test_mixed_dictionaries_are_rejected():
    ns = peer_namespace(0)
    private = TermDictionary()
    shared_graph = Graph([Triple(ns.term("a"), ns.knows, ns.term("b"))])
    private_graph = Graph(dictionary=private)
    private_graph.add(Triple(ns.term("c"), ns.knows, ns.term("d")))
    system = RPS.from_graphs({"p0": shared_graph, "p1": private_graph})
    with pytest.raises(FederationError, match="share one dictionary"):
        FederatedExecutor(system)
