"""ID-native SPARQL executor: equivalence with the term-level reference.

The batch plans of :mod:`repro.sparql.batch` must produce exactly the
solution sets of the naive algebra evaluator
(:func:`repro.sparql.algebra.evaluate_algebra`) — on hand-written edge
cases and on randomized workload graphs with generated query shapes.
"""

import pytest

from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Literal
from repro.rdf.triples import Triple
import random

from repro.sparql.algebra import (
    evaluate_algebra,
    reference_select,
    translate_group,
)
from repro.sparql.batch import BatchBgp, BatchEmpty, build_batch_plan
from repro.sparql.bridge import gpq_to_sparql
from repro.sparql.engine import ask_text, execute, explain, select
from repro.sparql.parser import parse_query
from repro.workload.generators import random_graph
from repro.workload.queries import random_queries

EX = Namespace("http://example.org/")


def reference_rows(graph, ast):
    """Projected rows via the naive term-level evaluator (the oracle)."""
    node = translate_group(ast.where)
    omega = evaluate_algebra(graph, node)
    variables = ast.projected()
    return {tuple(mu.get(v) for v in variables) for mu in omega}


def plan_rows(graph, ast):
    return set(execute(graph, ast).rows)


def assert_equivalent(graph, text):
    ast = parse_query(text)
    assert plan_rows(graph, ast) == reference_rows(graph, ast), text


# ---------------------------------------------------------------------------
# Hand-written shapes
# ---------------------------------------------------------------------------


@pytest.fixture
def small_graph():
    g = Graph(name="exec")
    p, q, r = EX.term("p"), EX.term("q"), EX.term("r")
    a, b, c, d = (EX.term(x) for x in "abcd")
    for t in [
        Triple(a, p, b), Triple(b, p, c), Triple(c, p, d),
        Triple(a, q, c), Triple(b, q, d), Triple(a, r, a),
        Triple(d, r, Literal("leaf")),
    ]:
        g.add(t)
    return g


QUERY_SHAPES = [
    "SELECT ?x ?y WHERE { ?x <http://example.org/p> ?y }",
    "SELECT ?x ?z WHERE { ?x <http://example.org/p> ?y . "
    "?y <http://example.org/p> ?z }",
    "SELECT * WHERE { ?x <http://example.org/p> ?y . "
    "?x <http://example.org/q> ?z }",
    # Repeated variable inside one pattern.
    "SELECT ?x WHERE { ?x <http://example.org/r> ?x }",
    # UNION of same-domain branches.
    "SELECT ?x ?y WHERE { { ?x <http://example.org/p> ?y } UNION "
    "{ ?x <http://example.org/q> ?y } }",
    # UNION of different-domain branches joined with a BGP.
    "SELECT * WHERE { { ?x <http://example.org/p> ?o } UNION "
    "{ ?x <http://example.org/q> ?u } . ?x <http://example.org/r> ?w }",
    # Projection of a variable unbound in one branch.
    "SELECT ?o ?u WHERE { { ?x <http://example.org/p> ?o } UNION "
    "{ ?x <http://example.org/q> ?u } }",
    # Filters: var-var, var-ground, ground compared against data.
    "SELECT ?x ?y WHERE { ?x <http://example.org/p> ?y . FILTER(?x != ?y) }",
    "SELECT ?x WHERE { ?x <http://example.org/p> ?y . "
    "FILTER(?y = <http://example.org/b>) }",
    "SELECT ?x WHERE { ?x <http://example.org/p> ?y . "
    "FILTER(?x != <http://example.org/a> && ?y != <http://example.org/c>) }",
    "SELECT ?x WHERE { ?x <http://example.org/p> ?y . "
    "FILTER(?x = <http://example.org/a> || ?y = <http://example.org/d>) }",
    # Nested groups are conjunctive.
    "SELECT * WHERE { { ?x <http://example.org/p> ?y } "
    "{ ?y <http://example.org/q> ?z } }",
    # Empty group: the empty mapping.
    "SELECT * WHERE { }",
    # Ground pattern acting as an existence test.
    "SELECT ?x WHERE { <http://example.org/a> <http://example.org/p> "
    "<http://example.org/b> . ?x <http://example.org/q> ?y }",
]


@pytest.mark.parametrize("text", QUERY_SHAPES)
def test_plan_matches_reference_on_handwritten_shapes(small_graph, text):
    assert_equivalent(small_graph, text)


def test_uninterned_ground_term_prunes_to_empty(small_graph):
    text = "SELECT ?x WHERE { ?x <http://example.org/never-seen> ?y }"
    ast = parse_query(text)
    assert plan_rows(small_graph, ast) == reference_rows(small_graph, ast) == set()
    plan = build_batch_plan(small_graph, translate_group(ast.where))
    assert isinstance(plan, BatchEmpty)


def test_filter_with_uninterned_constant(small_graph):
    # "!=" against a constant the dictionary has never seen is always
    # true for bound variables; "=" is always false.
    assert_equivalent(
        small_graph,
        "SELECT ?x WHERE { ?x <http://example.org/p> ?y . "
        "FILTER(?x != <http://example.org/unseen>) }",
    )
    assert_equivalent(
        small_graph,
        "SELECT ?x WHERE { ?x <http://example.org/p> ?y . "
        "FILTER(?x = <http://example.org/unseen>) }",
    )


def test_ground_ground_filter_constant_folds(small_graph):
    assert_equivalent(
        small_graph,
        "SELECT ?x WHERE { ?x <http://example.org/p> ?y . "
        'FILTER("a" != "b") }',
    )
    assert_equivalent(
        small_graph,
        "SELECT ?x WHERE { ?x <http://example.org/p> ?y . "
        'FILTER("a" = "b") }',
    )


def test_cross_product_of_disconnected_patterns(small_graph):
    assert_equivalent(
        small_graph,
        "SELECT * WHERE { ?x <http://example.org/q> ?y . "
        "?s <http://example.org/r> ?o }",
    )


def test_ask_through_engine(small_graph):
    assert ask_text(small_graph, "ASK { ?x <http://example.org/p> ?y }")
    assert not ask_text(
        small_graph, "ASK { ?x <http://example.org/p> <http://example.org/a> }"
    )


def test_select_modifiers_still_apply(small_graph):
    result = select(
        small_graph,
        "SELECT ?x WHERE { ?x <http://example.org/p> ?y } "
        "ORDER BY DESC(?x) LIMIT 2",
    )
    assert len(result) == 2
    names = [row[0] for row in result.rows]
    assert names == sorted(names, key=lambda t: t.sort_key(), reverse=True)


def test_order_by_non_projected_variable(small_graph):
    # ?y never appears in the projection, so the engine must sort the
    # full solutions before projecting them away.
    text = (
        "SELECT ?x WHERE { ?x <http://example.org/p> ?y } "
        "ORDER BY DESC(?y) ?x"
    )
    result = select(small_graph, text)
    expected = reference_select(small_graph, parse_query(text))
    assert result.rows == expected
    # Sanity: the order differs from the canonical projected order, so
    # the test would catch an engine that sorted after projection.
    assert [row[0] for row in result.rows] != sorted(
        (row[0] for row in result.rows), key=lambda t: t.sort_key()
    )


def test_limit_zero_and_offset_past_end(small_graph):
    base = "SELECT ?x WHERE { ?x <http://example.org/p> ?y }"
    assert select(small_graph, base + " LIMIT 0").rows == []
    assert select(small_graph, base + " OFFSET 99").rows == []
    assert select(small_graph, base + " ORDER BY ?x LIMIT 0").rows == []
    assert select(small_graph, base + " ORDER BY ?x OFFSET 99").rows == []


def test_order_by_ties_break_on_projected_row(small_graph):
    # Every ?x shares the same (absent) value for ?missing: an all-ties
    # sort, which must fall back to the deterministic canonical order of
    # the projected rows — in both the engine and the oracle.
    text = (
        "SELECT ?x WHERE { ?x <http://example.org/p> ?y } "
        "ORDER BY ?missing OFFSET 1 LIMIT 2"
    )
    result = select(small_graph, text)
    assert result.rows == reference_select(small_graph, parse_query(text))


# ---------------------------------------------------------------------------
# Planner structure
# ---------------------------------------------------------------------------


def test_bgp_orders_selective_conjunct_first():
    g = Graph(name="sel")
    rare, common = EX.term("rare"), EX.term("common")
    hub = EX.term("hub")
    for i in range(50):
        g.add(Triple(EX.term(f"e{i}"), common, hub))
    g.add(Triple(EX.term("e0"), rare, hub))
    text = (
        "SELECT * WHERE { ?x <http://example.org/common> ?h . "
        "?x <http://example.org/rare> ?h }"
    )
    ast = parse_query(text)
    plan = build_batch_plan(g, translate_group(ast.where))
    assert isinstance(plan, BatchBgp)
    assert plan.ordered[0].predicate == rare
    assert_equivalent(g, text)


def test_explain_plan_renders_tree(small_graph):
    text = (
        "SELECT * WHERE { { ?x <http://example.org/p> ?y } UNION "
        "{ ?x <http://example.org/q> ?y } . ?x <http://example.org/r> ?w }"
    )
    rendered = explain(small_graph, text)
    assert "BatchUnion" in rendered
    assert "BatchJoin" in rendered
    assert "BatchBgp" in rendered


# ---------------------------------------------------------------------------
# Randomized equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 5, 11, 23])
def test_randomized_bgp_equivalence(seed):
    graph = random_graph(triples=250, seed=seed)
    predicates = sorted(graph.predicates())
    for gpq in random_queries(predicates, count=12, max_length=3, seed=seed):
        text = gpq_to_sparql(gpq)
        assert_equivalent(graph, text)


@pytest.mark.parametrize("seed", [2, 9])
def test_randomized_union_filter_equivalence(seed):
    graph = random_graph(triples=250, seed=seed, blank_fraction=0.2)
    predicates = [p.n3() for p in sorted(graph.predicates())[:4]]
    p0, p1, p2, p3 = predicates
    shapes = [
        f"SELECT * WHERE {{ {{ ?a {p0} ?b }} UNION {{ ?a {p1} ?b }} "
        f"UNION {{ ?a {p2} ?b }} }}",
        f"SELECT ?a ?c WHERE {{ ?a {p0} ?b . ?b {p1} ?c . FILTER(?a != ?c) }}",
        f"SELECT * WHERE {{ {{ ?a {p0} ?b . ?b {p1} ?c }} UNION "
        f"{{ ?a {p2} ?c }} . ?c {p3} ?d }}",
        f"SELECT ?b WHERE {{ ?a {p0} ?b . FILTER(?a = ?b || ?b != ?a) }}",
    ]
    for text in shapes:
        assert_equivalent(graph, text)


@pytest.mark.parametrize("seed", [3, 17])
def test_randomized_engine_matches_reference_modifier_pipeline(seed):
    """Full engine path (modifiers included) equals a reference pipeline."""
    graph = random_graph(triples=200, seed=seed)
    p0 = sorted(graph.predicates())[0].n3()
    text = f"SELECT ?s WHERE {{ ?s {p0} ?o }} ORDER BY ?s LIMIT 7"
    result = select(graph, text)
    ast = parse_query(text)
    expected = sorted(
        {row[0] for row in reference_rows(graph, ast)},
        key=lambda t: t.sort_key(),
    )[:7]
    assert [row[0] for row in result.rows] == expected


def random_modifier_queries(predicates, count, seed):
    """Generated path queries with random solution-modifier combos.

    Yields ``(text, ordered)`` pairs.  Shapes cover ORDER BY on
    projected and non-projected variables, ASC/DESC mixes, DISTINCT,
    LIMIT 0, offsets past the end, and bare slices with no ordering.
    """
    rng = random.Random(seed)
    names = ["a", "b", "c", "d"]
    for _ in range(count):
        hops = rng.randint(1, 3)
        body = " . ".join(
            f"?{names[i]} {rng.choice(predicates)} ?{names[i + 1]}"
            for i in range(hops)
        )
        variables = names[: hops + 1]
        projected = rng.sample(variables, rng.randint(1, len(variables)))
        head = " ".join(f"?{v}" for v in projected)
        distinct = "DISTINCT " if rng.random() < 0.3 else ""
        text = f"SELECT {distinct}{head} WHERE {{ {body} }}"
        ordered = rng.random() < 0.7
        if ordered:
            conditions = []
            for v in rng.sample(variables, rng.randint(1, 2)):
                conditions.append(
                    f"DESC(?{v})" if rng.random() < 0.5 else f"?{v}"
                )
            text += " ORDER BY " + " ".join(conditions)
        slice_shape = rng.randrange(5)
        if slice_shape == 1:
            text += " LIMIT 0"
        elif slice_shape == 2:
            text += f" LIMIT {rng.randint(1, 12)}"
        elif slice_shape == 3:
            text += f" OFFSET {rng.choice([1, 3, 500])}"
        elif slice_shape == 4:
            text += (
                f" OFFSET {rng.choice([0, 2, 500])}"
                f" LIMIT {rng.randint(0, 12)}"
            )
        yield text, ordered


@pytest.mark.parametrize("seed", [7, 19, 42])
def test_randomized_modifier_equivalence(seed):
    """Fuzz: the ID-native engine equals the oracle on modifier combos.

    Ordered queries must reproduce the oracle's exact row sequence; an
    unordered slice admits any distinct window, so those check subset-
    of-full-answer plus exact cardinality.
    """
    graph = random_graph(triples=220, seed=seed)
    predicates = [p.n3() for p in sorted(graph.predicates())[:4]]
    for text, ordered in random_modifier_queries(predicates, 25, seed):
        ast = parse_query(text)
        expected = reference_select(graph, ast)
        got = select(graph, text).rows
        if ordered:
            assert got == expected, text
        else:
            full = set(reference_rows(graph, ast))
            assert len(got) == len(expected), text
            assert len(set(got)) == len(got), text
            assert set(got) <= full, text


def test_select_result_membership_and_multiset_equality():
    from repro.rdf.terms import Variable
    from repro.sparql.results import SelectResult

    x = Variable("x")
    a, b = (EX.term("a"),), (EX.term("b"),)
    result = SelectResult([x], [a, b, (None,)])
    assert a in result and [EX.term("b")] in result and (None,) in result
    assert (EX.term("c"),) not in result
    # Equal whatever the row order, but a multiset: counts must agree.
    assert result == SelectResult([x], [(None,), b, a])
    assert result != SelectResult([x], [a, b, b, (None,)])
    assert SelectResult([x], [a, a, b]) != SelectResult([x], [a, b, b])
    assert result != SelectResult([Variable("y")], [a, b, (None,)])
