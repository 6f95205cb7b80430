"""Federated FILTER/UNION pushdown: answer equality and accounting."""

import random

import pytest

from conftest import where_rows
from repro.errors import UnsupportedSparqlError
from repro.federation import ADAPTIVE, STRATEGIES, FederatedExecutor
from repro.sparql.bridge import MAX_BRANCHES, sparql_to_branches
from repro.workload.federation import SHARED, federated_rps
from repro.workload.topologies import peer_namespace


@pytest.fixture(scope="module")
def system():
    return federated_rps(peers=3, entities=20, facts=60, seed=7)


@pytest.fixture(scope="module")
def merged(system):
    return system.stored_database()


def assert_all_strategies_match(system, merged, text):
    executor = FederatedExecutor(system)
    expected = where_rows(merged, text)
    for strategy in STRATEGIES:
        result = executor.execute(text, strategy)
        assert result.rows == expected, (
            f"{strategy}: {len(result.rows)} != {len(expected)} for {text}"
        )
    return expected


# ---------------------------------------------------------------------------
# Hand-picked shapes
# ---------------------------------------------------------------------------


def test_filter_inside_union_branch_scopes_to_branch(system, merged):
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    anchor = SHARED.term("e3").n3()
    text = (
        f"SELECT ?x ?y WHERE {{ {{ ?x {p0} ?y . FILTER(?x = {anchor}) }} "
        f"UNION {{ ?x {p1} ?y }} }}"
    )
    assert_all_strategies_match(system, merged, text)


def test_union_branches_with_unequal_domains_project_none(system, merged):
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    text = (
        f"SELECT ?x ?y ?w WHERE {{ {{ ?x {p0} ?y }} UNION "
        f"{{ ?x {p1} ?w }} }}"
    )
    expected = assert_all_strategies_match(system, merged, text)
    # Each branch leaves one head variable unbound.
    assert any(None in row for row in expected)


def test_filter_over_join_of_union(system, merged):
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    a0 = peer_namespace(0).age.n3()
    text = (
        f"SELECT ?x ?z WHERE {{ {{ ?x {p0} ?y }} UNION {{ ?x {p1} ?y }} . "
        f"?x {a0} ?z . FILTER(?x != ?y) }}"
    )
    assert_all_strategies_match(system, merged, text)


def test_group_scoped_filter_does_not_see_outer_bindings(system, merged):
    # SPARQL filters scope to their group: ?z is unbound *inside* the
    # braced group, so the filter error-collapses to false there even
    # though the outer pattern binds ?z.  A normalisation that hoists
    # the filter to the flattened branch would wrongly defer it until
    # ?z is bound and return 17 rows here instead of 0 (regression).
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    text = (
        f"SELECT ?x WHERE {{ {{ ?x {p0} ?y . FILTER(?z = ?x) }} "
        f"?z {p1} ?w }}"
    )
    expected = assert_all_strategies_match(system, merged, text)
    assert expected == set()
    # The same filter at top level *is* in scope of both patterns.
    joined = (
        f"SELECT ?x WHERE {{ {{ ?x {p0} ?y }} ?z {p1} ?w . "
        "FILTER(?z = ?x) }"
    )
    assert assert_all_strategies_match(system, merged, joined)


def test_group_scoped_filter_or_branch_survives(system, merged):
    # Inside the group only the ?x-side of the OR is decidable; the
    # ?z-side is out of scope and must simplify away, not kill the row.
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    anchor = SHARED.term("e3").n3()
    text = (
        f"SELECT ?x WHERE {{ {{ ?x {p0} ?y . "
        f"FILTER(?z = ?x || ?x = {anchor}) }} ?z {p1} ?w }}"
    )
    expected = assert_all_strategies_match(system, merged, text)
    assert expected  # the ?x = e3 disjunct keeps matching rows


def test_filter_on_never_bound_variable_is_false(system, merged):
    p0 = peer_namespace(0).knows.n3()
    text = f"SELECT ?x WHERE {{ ?x {p0} ?y . FILTER(?ghost = ?x) }}"
    expected = assert_all_strategies_match(system, merged, text)
    assert expected == set()


def test_filter_with_uninterned_constant(system, merged):
    p0 = peer_namespace(0).knows.n3()
    text = (
        f"SELECT ?x WHERE {{ ?x {p0} ?y . "
        "FILTER(?y != <http://nowhere.example.org/no>) }"
    )
    expected = assert_all_strategies_match(system, merged, text)
    assert expected  # != an impossible constant keeps every row


def test_ask_queries_execute_federated(system, merged):
    p0 = peer_namespace(0).knows.n3()
    assert_all_strategies_match(system, merged, f"ASK {{ ?x {p0} ?y }}")
    assert_all_strategies_match(
        system, merged, f"ASK {{ ?x <http://peer9.example.org/knows> ?y }}"
    )


def test_branch_explosion_is_rejected():
    p0 = peer_namespace(0).knows.n3()
    union = f"{{ ?x {p0} ?y }} UNION {{ ?y {p0} ?x }}"
    # 2^7 = 128 branches > MAX_BRANCHES.
    joined = " . ".join(f"{{ {union} }}" for _ in range(7))
    with pytest.raises(UnsupportedSparqlError, match="branches"):
        sparql_to_branches(f"SELECT ?x WHERE {{ {joined} }}")
    assert MAX_BRANCHES == 64


def test_duplicate_union_branches_are_collapsed():
    p0 = peer_namespace(0).knows.n3()
    head, branches = sparql_to_branches(
        f"SELECT ?x WHERE {{ {{ ?x {p0} ?y }} UNION {{ ?x {p0} ?y }} }}"
    )
    assert len(branches) == 1


# ---------------------------------------------------------------------------
# Randomized equality against the single-graph planner
# ---------------------------------------------------------------------------


def _random_query(rng, peers=3):
    """A random SELECT in the BGP + UNION + FILTER fragment over the
    federation vocabulary."""
    def predicate():
        ns = peer_namespace(rng.randrange(peers))
        return (ns.knows if rng.random() < 0.7 else ns.age).n3()

    variables = ["?x", "?y", "?z", "?w"]

    def filter_text():
        left = rng.choice(variables)
        if rng.random() < 0.5:
            right = rng.choice(variables)
        else:
            right = SHARED.term(f"e{rng.randrange(20)}").n3()
        op = rng.choice(["=", "!="])
        return f"FILTER({left} {op} {right})"

    def bgp(depth):
        patterns = []
        for _ in range(rng.randint(1, 3)):
            s = rng.choice(variables)
            o = rng.choice(variables + [SHARED.term(f"e{rng.randrange(20)}").n3()])
            patterns.append(f"{s} {predicate()} {o} .")
        body = " ".join(patterns)
        if rng.random() < 0.3:
            # Group-scoped filter: may reference out-of-scope variables,
            # exercising the unbound-collapse specialisation.
            body += " " + filter_text()
        return body

    parts = []
    if rng.random() < 0.6:
        parts.append(f"{{ {bgp(0)} }} UNION {{ {bgp(0)} }}")
    else:
        parts.append(bgp(0))
    if rng.random() < 0.5:
        parts.append(f"{{ {bgp(0)} }}" if rng.random() < 0.4 else bgp(0))
    filters = [filter_text() for _ in range(rng.randint(0, 2))]
    body = " . ".join(parts) + " " + " ".join(filters)
    projection = " ".join(rng.sample(variables, rng.randint(1, 3)))
    return f"SELECT {projection} WHERE {{ {body} }}"


@pytest.mark.parametrize("seed", range(12))
def test_randomized_pushdown_matches_single_graph_planner(
    system, merged, seed
):
    rng = random.Random(seed)
    for _ in range(4):
        text = _random_query(rng)
        try:
            assert_all_strategies_match(system, merged, text)
        except UnsupportedSparqlError:
            pytest.skip("randomized query fell outside the fragment")


# ---------------------------------------------------------------------------
# Accounting invariants
# ---------------------------------------------------------------------------


def test_bound_messages_monotone_in_batch_size(system):
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    text = f"SELECT ?x ?z WHERE {{ ?x {p0} ?y . ?y {p1} ?z }}"
    previous_messages = None
    solutions = set()
    for batch_size in (1, 2, 8, 32, 256):
        executor = FederatedExecutor(system, batch_size=batch_size)
        stats = executor.execute(text, "bound").stats
        if previous_messages is not None:
            # Bigger batches can only merge messages, never add them.
            assert stats.messages <= previous_messages
        previous_messages = stats.messages
        solutions.add(stats.solutions_transferred)
    # The payload is batching-invariant: same rows, different envelopes.
    assert len(solutions) == 1


def test_adaptive_transfer_never_exceeds_collect(system):
    # Collect ships every stored triple; any adaptive plan must move at
    # most that (it could always have chosen to pull everything).
    total = system.total_stored_triples()
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    for text in (
        f"SELECT ?x ?y WHERE {{ ?x {p0} ?y }}",
        f"SELECT ?x ?z WHERE {{ ?x {p0} ?y . ?y {p1} ?z }}",
    ):
        stats = FederatedExecutor(system).execute(text, ADAPTIVE).stats
        assert stats.transfer_units <= total


def test_accounting_is_deterministic(system):
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    text = (
        f"SELECT ?x ?y WHERE {{ {{ ?x {p0} ?y }} UNION {{ ?x {p1} ?y }} . "
        "FILTER(?x != ?y) }"
    )
    executor = FederatedExecutor(system)
    first = executor.execute(text, ADAPTIVE)
    second = executor.execute(text, ADAPTIVE)
    # Repeat runs on a fresh executor (empty relation cache) agree.
    third = FederatedExecutor(system).execute(text, ADAPTIVE)
    for other in (second, third):
        assert other.stats.messages == first.stats.messages
        assert other.stats.transfer_units == first.stats.transfer_units
        assert other.rows == first.rows


def test_filter_pushdown_reduces_transfer(system):
    # The same query with a highly selective pushable filter must ship
    # fewer solutions under the bound strategy than without it.
    p0 = peer_namespace(0).knows.n3()
    anchor = SHARED.term("e3").n3()
    executor = FederatedExecutor(system)
    plain = executor.execute(f"SELECT ?x ?y WHERE {{ ?x {p0} ?y }}", "bound")
    filtered = executor.execute(
        f"SELECT ?x ?y WHERE {{ ?x {p0} ?y . FILTER(?x = {anchor}) }}",
        "bound",
    )
    assert (
        filtered.stats.solutions_transferred
        < plain.stats.solutions_transferred
    )
