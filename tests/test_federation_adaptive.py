"""Adaptive federated optimizer: cost model, decisions, invariants."""

import pytest

from repro.federation import (
    ADAPTIVE,
    PARALLEL,
    FIXED_STRATEGIES,
    STRATEGIES,
    CostModel,
    EndpointStats,
    FederatedExecutor,
    NetworkModel,
)
from repro.federation.cost import FILTER_SELECTIVITY, bound_variable_positions
from repro.gpq.evaluation import evaluate_query_star
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.workload.federation import (
    federated_exclusive_query,
    federated_path_query,
    federated_rps,
    federated_selective_query,
    federated_union_filter_sparql,
)
from repro.workload.topologies import peer_namespace

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
TP = TriplePattern(X, peer_namespace(0).knows, Y)


@pytest.fixture(scope="module")
def three_peer_system():
    return federated_rps(peers=3, entities=20, facts=60, seed=7)


@pytest.fixture(scope="module")
def five_peer_system():
    return federated_rps(peers=5, entities=40, facts=150, seed=11)


def model(batch_size=64, **network_kwargs):
    return CostModel(NetworkModel(**network_kwargs), batch_size)


# ---------------------------------------------------------------------------
# Cost model unit behaviour
# ---------------------------------------------------------------------------


def test_ship_estimate_skips_empty_endpoints():
    stats = [
        EndpointStats("p0", 10, 12),
        EndpointStats("p1", 0, 0),
        EndpointStats("p2", 5, 9),
    ]
    estimate = model().estimate_ship(stats)
    assert estimate.messages == 2  # p1 has no matches, no message
    assert estimate.solutions == 15.0


def test_bound_estimate_infeasible_without_join_variable():
    stats = [EndpointStats("p0", 10, 12)]
    no_bindings = model().estimate_bound(stats, bindings=0, bound_positions=1)
    no_join_var = model().estimate_bound(stats, bindings=5, bound_positions=0)
    assert not no_bindings.feasible
    assert not no_join_var.feasible


def test_bound_estimate_batches_and_discount():
    stats = [EndpointStats("p0", 80, 90)]
    estimate = model(batch_size=10).estimate_bound(
        stats, bindings=25, bound_positions=1
    )
    assert estimate.messages == 3  # ceil(25/10) batches x 1 endpoint
    assert estimate.solutions == pytest.approx(25 * 80 / 8.0)


def test_pull_estimate_prices_only_uncached_relations():
    stats = [
        EndpointStats("p0", 10, 40, cached=True),
        EndpointStats("p1", 5, 25, cached=False),
    ]
    estimate = model().estimate_pull(stats)
    assert estimate.action == "pull"
    assert estimate.messages == 1
    assert estimate.triples == 25
    fully_cached = model().estimate_pull(
        [EndpointStats("p0", 10, 40, cached=True)]
    )
    assert fully_cached.action == "local"
    assert fully_cached.seconds == 0.0


def test_decide_prefers_bound_for_selective_bindings():
    # Few bindings against a big relation: batches are cheap, shipping
    # or pulling the whole relation is not.
    stats = [EndpointStats("p0", 1000, 1200)]
    decision = model(batch_size=64).decide(
        TP, stats, bindings=3, bound_positions=1
    )
    assert decision.action == "bound"
    assert decision.endpoints == ("p0",)
    # The trace keeps the rejected alternatives for explain().
    assert {e.action for e in decision.alternatives} >= {"ship", "bound"}


def test_decide_prefers_ship_when_bindings_explode():
    # Huge binding set: bound joins would cost many batch messages.
    stats = [EndpointStats("p0", 50, 60)]
    decision = model(batch_size=8).decide(
        TP, stats, bindings=1000, bound_positions=1
    )
    assert decision.action in ("ship", "pull")
    assert decision.chosen.messages == 1


def test_pushed_filters_discount_ship_and_bound_only():
    stats = [EndpointStats("p0", 100, 100)]
    plain = model().estimate_ship(stats, pushed_filters=0)
    filtered = model().estimate_ship(stats, pushed_filters=2)
    assert filtered.solutions == pytest.approx(
        plain.solutions * FILTER_SELECTIVITY**2
    )
    # Pull ships the raw relation; filters cannot discount it.
    assert model().estimate_pull(stats).triples == 100


def test_bound_variable_positions():
    tp = TriplePattern(X, peer_namespace(0).knows, Y)
    assert bound_variable_positions(tp, frozenset()) == 0
    assert bound_variable_positions(tp, frozenset({X})) == 1
    assert bound_variable_positions(tp, frozenset({X, Y})) == 2


# ---------------------------------------------------------------------------
# The group half of the cost model (exclusive groups, parallel only)
# ---------------------------------------------------------------------------


def test_decide_group_offers_only_ship_and_bound():
    # A cached relation makes `local` free: a single conjunct takes it,
    # a fused group may not (pulling would defeat the fusion).
    age = TriplePattern(X, peer_namespace(0).age, Z)
    group = (TP, age)
    stats = [EndpointStats("p0", 50, 60, cached=True)]
    single = model().decide(TP, stats, bindings=1000, bound_positions=1)
    assert single.action == "local"
    assert single.group == ()
    decision = model().decide_group(
        group, stats, bindings=1000, bound_positions=1
    )
    assert {e.action for e in decision.alternatives} <= {"ship", "bound"}
    assert decision.action in ("ship", "bound")
    assert decision.group == group
    assert decision.pattern == TP
    assert "group[2]" in decision.describe()


def test_order_estimates_discount_positions_versus_variables():
    # ``?x p ?x`` with ?x bound: the single-pattern key discounts per
    # bound *position* (8 * 8), the group key per distinct variable (8).
    loop = TriplePattern(X, peer_namespace(0).knows, X)
    stats = [EndpointStats("p0", 640, 700)]
    bound = frozenset({X})
    assert model().order_estimate(stats, bound, loop) == (10.0, 0)
    assert model().order_estimate_group(stats, bound, (loop,)) == (80.0, 0)
    assert bound_variable_positions(loop, bound) == 2


def test_exclusive_units_fuse_shared_owners_in_branch_order(
    three_peer_system,
):
    ns0, ns1 = peer_namespace(0), peer_namespace(1)
    anywhere = TriplePattern(Y, Variable("p"), Z)  # relevant to every peer
    patterns = (
        TriplePattern(Y, ns1.knows, Z),  # peer1's only conjunct
        TriplePattern(X, ns0.knows, Y),
        anywhere,
        TriplePattern(X, ns0.age, Z),
    )
    units = FederatedExecutor(three_peer_system).planner.exclusive_units(
        patterns
    )
    assert [unit.index for unit in units] == [0, 1, 2]
    assert [unit.patterns for unit in units] == [
        (patterns[0],),
        (patterns[1], patterns[3]),
        (anywhere,),
    ]
    assert [unit.exclusive for unit in units] == [False, True, False]
    assert [ep.name for ep in units[1].endpoints] == ["peer0"]
    assert len(units[2].endpoints) == 3


# ---------------------------------------------------------------------------
# Adaptive execution: answers and the Pareto invariant
# ---------------------------------------------------------------------------


def _transfer(result):
    return result.stats.transfer_units


@pytest.mark.parametrize(
    "query_factory",
    [
        lambda: federated_path_query(hops=2),
        lambda: federated_path_query(hops=3),
        lambda: federated_selective_query(entity=3, hops=2),
        federated_union_filter_sparql,
    ],
)
def test_adaptive_never_pareto_dominated(three_peer_system, query_factory):
    executor = FederatedExecutor(three_peer_system)
    results = executor.run_all_strategies(query_factory())
    adaptive = results[ADAPTIVE]
    for strategy in FIXED_STRATEGIES:
        other = results[strategy]
        dominated = (
            adaptive.stats.messages > other.stats.messages
            and _transfer(adaptive) > _transfer(other)
        )
        assert not dominated, (
            f"adaptive ({adaptive.stats.messages}m, {_transfer(adaptive)}t) "
            f"dominated by {strategy} ({other.stats.messages}m, "
            f"{_transfer(other)}t)"
        )


def test_adaptive_on_larger_shared_entity_workload(five_peer_system):
    executor = FederatedExecutor(five_peer_system)
    query = federated_path_query(hops=3)
    expected = evaluate_query_star(five_peer_system.stored_database(), query)
    results = executor.run_all_strategies(query)
    adaptive = results[ADAPTIVE]
    assert adaptive.rows == expected
    for strategy in FIXED_STRATEGIES:
        other = results[strategy]
        assert not (
            adaptive.stats.messages > other.stats.messages
            and _transfer(adaptive) > _transfer(other)
        )


def test_adaptive_is_default_strategy(three_peer_system):
    executor = FederatedExecutor(three_peer_system)
    result = executor.execute(federated_path_query(hops=2))
    assert result.strategy == ADAPTIVE
    assert result.decisions  # the cost model's trace is attached


def test_fixed_strategies_carry_no_decisions(three_peer_system):
    executor = FederatedExecutor(three_peer_system)
    for strategy in FIXED_STRATEGIES:
        result = executor.execute(federated_path_query(hops=2), strategy)
        assert result.decisions == ()


def test_adaptive_never_fuses_exclusive_groups(three_peer_system):
    # The simclock golden's `exclusive` scenario: parallel plans an
    # ExclusiveGroupScan there; adaptive keeps every conjunct its own
    # unit, so neither a group scan nor a grouped bound join appears.
    executor = FederatedExecutor(three_peer_system)
    query = federated_exclusive_query()
    parallel = executor.explain(query, strategy=PARALLEL)
    assert "ExclusiveGroupScan" in parallel
    adaptive = executor.execute(query, ADAPTIVE)
    assert adaptive.decisions
    assert all(not d.group for d in adaptive.decisions)
    text = executor.explain(query, strategy=ADAPTIVE)
    assert "ExclusiveGroupScan" not in text
    assert "[group" not in text and "group[" not in text


def test_strategy_constants():
    assert STRATEGIES[0] == ADAPTIVE
    assert set(STRATEGIES) == set(FIXED_STRATEGIES) | {ADAPTIVE, PARALLEL}


# ---------------------------------------------------------------------------
# Relation cache and cardinality feedback
# ---------------------------------------------------------------------------


def test_pulled_relation_is_reused_across_union_branches(three_peer_system):
    # Both branches touch peer0's knows relation; once pulled for the
    # first branch it answers the second locally, for free.
    p0 = peer_namespace(0).knows.n3()
    text = (
        f"SELECT ?x ?y WHERE {{ {{ ?x {p0} ?y }} UNION {{ ?y {p0} ?x }} }}"
    )
    executor = FederatedExecutor(three_peer_system)
    result = executor.execute(text, ADAPTIVE)
    pull_decisions = [d for d in result.decisions if d.action == "pull"]
    local_decisions = [d for d in result.decisions if d.action == "local"]
    if pull_decisions:  # the cost model chose to pull at all
        assert result.stats.messages == len(pull_decisions)
        assert local_decisions  # the second branch rode the cache


def test_decisions_record_cardinality_feedback(three_peer_system):
    executor = FederatedExecutor(three_peer_system)
    result = executor.execute(federated_path_query(hops=3), ADAPTIVE)
    assert len(result.decisions) == 3
    # The first conjunct decides with the singleton seed binding; later
    # conjuncts see the actual intermediate binding counts.
    assert result.decisions[0].bindings == 1
    assert all(d.bindings >= 1 for d in result.decisions)


def test_explain_trace_mentions_actions_and_estimates(three_peer_system):
    executor = FederatedExecutor(three_peer_system)
    trace = executor.explain(federated_selective_query(entity=3, hops=2))
    assert "adaptive:" in trace
    assert "messages=" in trace
    assert "est msgs=" in trace
    assert any(
        action in trace for action in ("ship", "bound", "pull", "local")
    )
    assert "rejected" in trace


# ---------------------------------------------------------------------------
# Conjunct ordering: relevance precomputed once (regression)
# ---------------------------------------------------------------------------


def test_order_conjuncts_checks_relevance_once_per_conjunct(
    three_peer_system,
):
    executor = FederatedExecutor(three_peer_system)
    calls = []
    original = executor._relevant

    def counting_relevant(tp):
        calls.append(tp)
        return original(tp)

    executor._relevant = counting_relevant
    conjuncts = federated_path_query(hops=3).conjuncts()
    ordered = executor._order_conjuncts(conjuncts)
    assert sorted(ordered, key=id) == sorted(conjuncts, key=id)
    # O(n) schema checks, not O(n^2) re-derivation inside the min() key.
    assert len(calls) == len(conjuncts)
