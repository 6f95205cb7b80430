"""Federated OPTIONAL: equivalence with the single-graph evaluator."""

import random

import pytest

from conftest import where_rows
from repro.errors import UnsupportedSparqlError
from repro.federation import STRATEGIES, FederatedExecutor
from repro.sparql.algebra import evaluate_algebra, translate_group
from repro.sparql.bridge import sparql_to_branches
from repro.sparql.parser import parse_query
from repro.workload.federation import (
    SHARED,
    federated_optional_filter_sparql,
    federated_optional_sparql,
    federated_rps,
)
from repro.workload.topologies import peer_namespace


@pytest.fixture(scope="module")
def system():
    # Sparse on purpose: some optional extensions must miss, so the
    # keep-unmatched path of the left join is exercised.
    return federated_rps(peers=3, entities=30, facts=25, seed=13)


@pytest.fixture(scope="module")
def merged(system):
    return system.stored_database()


def assert_all_strategies_match(system, merged, text):
    executor = FederatedExecutor(system)
    expected = where_rows(merged, text)
    prepared = executor.prepare(text)
    for strategy in STRATEGIES:
        result = executor.execute(prepared, strategy)
        assert result.rows == expected, (
            f"{strategy}: {len(result.rows)} != {len(expected)} for {text}"
        )
    return expected


# ---------------------------------------------------------------------------
# The two committed OPTIONAL workloads
# ---------------------------------------------------------------------------


def test_optional_workload_matches_single_graph(system, merged):
    expected = assert_all_strategies_match(
        system, merged, federated_optional_sparql()
    )
    assert expected
    # Some rows extend, some keep the optional cell unbound.
    assert any(None in row for row in expected)
    assert any(None not in row for row in expected)


def test_optional_filter_workload_matches_single_graph(system, merged):
    expected = assert_all_strategies_match(
        system, merged, federated_optional_filter_sparql()
    )
    assert expected
    assert any(None in row for row in expected)


# ---------------------------------------------------------------------------
# Hand-picked OPTIONAL shapes
# ---------------------------------------------------------------------------


def test_nested_group_filter_is_not_hoisted_into_the_condition(
    system, merged
):
    # A filter inside a *nested* group of the OPTIONAL keeps that
    # group's scope: ?x is unbound there, the comparison collapses to
    # false, the optional side is empty, and every row stays
    # unextended.  Hoisting it into the LeftJoin condition (where ?x IS
    # bound on the merged row) would wrongly extend rows.
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    anchor = SHARED.term("e3").n3()
    nested = (
        f"SELECT ?x ?z WHERE {{ ?x {p0} ?y "
        f"OPTIONAL {{ {{ ?y {p1} ?z FILTER(?x != {anchor}) }} }} }}"
    )
    expected = assert_all_strategies_match(system, merged, nested)
    assert expected and all(row[1] is None for row in expected)
    # The same filter placed directly in the OPTIONAL group *is* the
    # LeftJoin condition and does see ?x — some rows extend.
    direct = (
        f"SELECT ?x ?z WHERE {{ ?x {p0} ?y "
        f"OPTIONAL {{ ?y {p1} ?z FILTER(?x != {anchor}) }} }}"
    )
    extended = assert_all_strategies_match(system, merged, direct)
    assert any(row[1] is not None for row in extended)
    assert extended != expected


def test_optional_condition_references_required_side(system, merged):
    # The top-level FILTER of the optional group becomes the LeftJoin
    # condition and sees the *merged* row — ?x is bound by the required
    # side only.
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    text = (
        f"SELECT ?x ?z WHERE {{ ?x {p0} ?y "
        f"OPTIONAL {{ ?y {p1} ?z FILTER(?z != ?x) }} }}"
    )
    assert_all_strategies_match(system, merged, text)


def test_optional_over_union_stays_inside_the_block(system, merged):
    # A UNION inside OPTIONAL must not distribute out: a row matched by
    # one alternative may not also surface unextended via the other.
    p0, p1, p2 = (peer_namespace(i).knows.n3() for i in range(3))
    text = (
        f"SELECT ?x ?z WHERE {{ ?x {p0} ?y OPTIONAL {{ "
        f"{{ ?y {p1} ?z }} UNION {{ ?y {p2} ?z }} }} }}"
    )
    assert_all_strategies_match(system, merged, text)


def test_union_on_required_side_distributes(system, merged):
    p0, p1, p2 = (peer_namespace(i).knows.n3() for i in range(3))
    text = (
        f"SELECT ?x ?z WHERE {{ {{ ?x {p0} ?y }} UNION {{ ?x {p1} ?y }} "
        f"OPTIONAL {{ ?y {p2} ?z }} }}"
    )
    assert_all_strategies_match(system, merged, text)


def test_two_optional_blocks_apply_in_order(system, merged):
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    a1, a2 = peer_namespace(1).age.n3(), peer_namespace(2).age.n3()
    text = (
        f"SELECT ?x ?a ?b WHERE {{ ?x {p0} ?y "
        f"OPTIONAL {{ ?x {a1} ?a }} OPTIONAL {{ ?x {a2} ?b }} }}"
    )
    assert_all_strategies_match(system, merged, text)
    # Filter above both left joins sees optional variables.
    filtered = (
        f"SELECT ?x WHERE {{ ?x {p0} ?y "
        f"OPTIONAL {{ ?x {a1} ?a }} . FILTER(?a != ?x) }}"
    )
    assert_all_strategies_match(system, merged, filtered)


def test_optional_anchored_at_ground_term(system, merged):
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    anchor = SHARED.term("e3").n3()
    text = (
        f"SELECT ?y ?z WHERE {{ {anchor} {p0} ?y "
        f"OPTIONAL {{ ?y {p1} ?z }} }}"
    )
    assert_all_strategies_match(system, merged, text)


def test_empty_required_side_yields_nothing_and_ships_no_optional(system):
    # Nobody holds peer9's vocabulary: the required side is empty, so
    # the optional block is never contacted under bound/adaptive.
    p9 = "<http://peer9.example.org/knows>"
    p1 = peer_namespace(1).knows.n3()
    text = f"SELECT ?x ?z WHERE {{ ?x {p9} ?y OPTIONAL {{ ?y {p1} ?z }} }}"
    executor = FederatedExecutor(system)
    bound = executor.execute(text, "bound")
    adaptive = executor.execute(text, "adaptive")
    assert bound.rows == adaptive.rows == set()
    assert bound.stats.messages == 0
    assert adaptive.stats.messages == 0


def test_nested_optional_is_rejected():
    p0, p1 = peer_namespace(0).knows.n3(), peer_namespace(1).knows.n3()
    text = (
        f"SELECT ?x WHERE {{ ?x {p0} ?y OPTIONAL {{ ?y {p1} ?z "
        f"OPTIONAL {{ ?z {p0} ?w }} }} }}"
    )
    with pytest.raises(UnsupportedSparqlError, match="nested OPTIONAL"):
        sparql_to_branches(text)


def test_non_well_designed_optional_is_rejected():
    p0, p1, p2 = (peer_namespace(i).knows.n3() for i in range(3))
    # ?z is bound only inside the optional group but joined from outside.
    text = (
        f"SELECT ?x WHERE {{ {{ ?x {p0} ?y OPTIONAL {{ ?y {p1} ?z }} }} . "
        f"?z {p2} ?w }}"
    )
    with pytest.raises(UnsupportedSparqlError, match="well-designed"):
        sparql_to_branches(text)


def test_non_well_designed_optional_condition_is_rejected():
    # The leak can also hide in the block's hoisted FILTER condition:
    # per the SPARQL algebra the condition evaluates at the *inner*
    # LeftJoin where ?w is still unbound (false), while the flattened
    # branch would see ?w bound by the outer join — so the query must
    # be rejected, not silently answered against the wrong semantics.
    p0, p1, p2 = (peer_namespace(i).knows.n3() for i in range(3))
    text = (
        f"SELECT ?x ?z ?w WHERE {{ {{ ?x {p0} ?y "
        f"OPTIONAL {{ ?y {p1} ?z FILTER(?z != ?w) }} }} . ?w {p2} ?v }}"
    )
    with pytest.raises(UnsupportedSparqlError, match="well-designed"):
        sparql_to_branches(text)


# ---------------------------------------------------------------------------
# Single-graph oracle agreement (plan executor vs reference algebra)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text_factory",
    [federated_optional_sparql, federated_optional_filter_sparql],
)
def test_single_graph_plan_matches_reference_on_optional(
    merged, text_factory
):
    text = text_factory()
    ast = parse_query(text)
    head = ast.projected()
    reference = {
        tuple(mu.get(v) for v in head)
        for mu in evaluate_algebra(merged, translate_group(ast.where))
    }
    assert where_rows(merged, text) == reference


# ---------------------------------------------------------------------------
# Randomized equivalence with OPTIONAL in the mix
# ---------------------------------------------------------------------------


def _random_optional_query(rng, peers=3):
    """A random SELECT with a required BGP and 1-2 OPTIONAL blocks."""

    def predicate():
        ns = peer_namespace(rng.randrange(peers))
        return (ns.knows if rng.random() < 0.7 else ns.age).n3()

    required_vars = ["?x", "?y", "?z"]
    optional_vars = ["?o1", "?o2"]

    def required_bgp():
        patterns = []
        for _ in range(rng.randint(1, 2)):
            s = rng.choice(required_vars)
            o = rng.choice(
                required_vars
                + [SHARED.term(f"e{rng.randrange(30)}").n3()]
            )
            patterns.append(f"{s} {predicate()} {o} .")
        return " ".join(patterns)

    def optional_block(var):
        join_var = rng.choice(required_vars)
        body = f"{join_var} {predicate()} {var} ."
        if rng.random() < 0.4:
            right = (
                rng.choice(required_vars)
                if rng.random() < 0.5
                else SHARED.term(f"e{rng.randrange(30)}").n3()
            )
            op = rng.choice(["=", "!="])
            body += f" FILTER({var} {op} {right})"
        return f"OPTIONAL {{ {body} }}"

    parts = [required_bgp()]
    parts.append(optional_block("?o1"))
    if rng.random() < 0.4:
        parts.append(optional_block("?o2"))
    body = " ".join(parts)
    projection = " ".join(
        rng.sample(required_vars, rng.randint(1, 2)) + ["?o1"]
    )
    return f"SELECT {projection} WHERE {{ {body} }}"


@pytest.mark.parametrize("seed", range(10))
def test_randomized_optional_matches_single_graph_planner(
    system, merged, seed
):
    rng = random.Random(seed)
    for _ in range(4):
        text = _random_optional_query(rng)
        try:
            assert_all_strategies_match(system, merged, text)
        except UnsupportedSparqlError:
            pytest.skip("randomized query fell outside the fragment")
