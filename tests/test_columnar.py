"""Columnar batch engine and plan cache: equivalence and invalidation.

Four layers of guarantees:

* the batch engine (:mod:`repro.sparql.batch`) returns exactly the
  reference evaluator's solution set on randomized
  BGP/UNION/OPTIONAL/FILTER/ORDER/LIMIT/ASK queries;
* its chunked read (ASK, un-ordered LIMIT/OFFSET) loses and repeats no
  row at a chunk seam — pages tile the reference answer — and stops
  early, which the ``EXPLAIN ANALYZE`` counters show;
* the cross-query plan cache serves byte-identical answers on hits,
  verifiably skips parse and plan, and is invalidated by graph
  mutation (local) and statistics-epoch bumps (federated);
* the graph count probes (``count_ids``/``count_pattern``) answer
  every shape from leaf lengths, matching brute-force enumeration.

A ``slow``-marked test repeats the equivalence at the 1M-triple bench
scale and asserts that a bare ``LIMIT 10`` there costs under a fiftieth
of the unlimited query (excluded from tier-1; see pytest.ini).
"""

import random
import time

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, BlankNode, Literal, Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.sparql import engine
from repro.sparql.algebra import (
    evaluate_algebra,
    reference_select,
    translate_group,
)
from repro.sparql.ast import AskQuery
from repro.sparql.batch import (
    CHUNK_ROWS,
    UNBOUND,
    Batch,
    batch_top_k,
    build_batch_plan,
    column_rows,
    extend_bindings_batch,
    select_id_rows_batch,
)
from repro.sparql.cache import PlanCache, default_plan_cache, nsm_fingerprint
from repro.sparql.engine import execute, explain, select
from repro.sparql.parser import parse_query
from repro.sparql.plan import plan_bgp
from repro.sparql.results import _row_key
from repro.gpq.evaluation import compile_conjunct, extend_id_bindings
from repro.workload.generators import GeneratorConfig, random_entity_graph

NS = "http://gen.example.org/"


def fanout_graph(scale: int, seed: int = 11) -> Graph:
    """The bench's higher-fanout workload shape (multi-valued preds)."""
    return random_entity_graph(
        GeneratorConfig(
            entities=max(8, scale // 50),
            predicates=20,
            triples=scale,
            attributes=max(4, scale // 50),
            seed=seed,
        )
    )


# ---------------------------------------------------------------------------
# Randomized equivalence fuzz
# ---------------------------------------------------------------------------


def random_queries(rng: random.Random, count: int):
    """Yield (query text, has_order) covering the supported fragment.

    Every WHERE clause comes out twice: as a SELECT with random
    modifiers and as an ASK.
    """

    def pattern(vars_pool):
        subject = rng.choice(vars_pool + [f"<{NS}e{rng.randint(0, 15)}>"])
        predicate = rng.choice(
            [f"<{NS}p{i}>" for i in range(4)]
            + [f"<{NS}value>", rng.choice(vars_pool)]
        )
        object_ = rng.choice(
            vars_pool
            + [f"<{NS}e{rng.randint(0, 15)}>", f'"{rng.randint(0, 99)}"']
        )
        return f"{subject} {predicate} {object_} ."

    for _ in range(count):
        vars_pool = ["?a", "?b", "?c", "?d"][: rng.randint(2, 4)]
        group = " ".join(pattern(vars_pool) for _ in range(rng.randint(1, 3)))
        shape = rng.randint(0, 4)
        if shape == 1:
            group = (
                f"{{ {group} }} UNION "
                f"{{ {' '.join(pattern(vars_pool) for _ in range(2))} }}"
            )
        elif shape == 2:
            group += (
                f" OPTIONAL {{ {pattern(vars_pool)} }}"
            )
        elif shape == 3:
            left = rng.choice(vars_pool)
            right = rng.choice(
                vars_pool + [f'"{rng.randint(0, 99)}"', '"unseen-term"']
            )
            op = rng.choice(["=", "!="])
            group += f" FILTER({left} {op} {right})"
        elif shape == 4:
            group = (
                f"{{ {group} }} UNION {{ {pattern(vars_pool)} }} "
                f"OPTIONAL {{ {pattern(vars_pool)} }}"
            )
        projected = " ".join(vars_pool)
        text = f"SELECT {projected} WHERE {{ {group} }}"
        has_order = False
        modifier = rng.randint(0, 3)
        if modifier == 1:
            direction = rng.choice(["", "DESC"])
            key = rng.choice(vars_pool)
            order = f"{direction}({key})" if direction else key
            text += f" ORDER BY {order}"
            has_order = True
            if rng.random() < 0.5:
                text += f" LIMIT {rng.randint(0, 10)}"
        elif modifier == 2:
            text += f" OFFSET {rng.choice([0, 3])} LIMIT {rng.randint(0, 8)}"
        yield text, has_order
        yield f"ASK {{ {group} }}", False


def assert_pages_tile(graph, text, k):
    """Pages of ``k`` rows partition the reference answer of ``text``.

    ``OFFSET i*k LIMIT k`` for every full page plus the open-ended
    ``OFFSET n`` for what is left: pairwise disjoint, together the
    reference set — so no row is lost or repeated wherever a chunk seam
    falls inside a window.
    """
    expected = set(reference_select(graph, parse_query(text)))
    full = len(expected) // k
    pages = [
        select(graph, f"{text} OFFSET {i * k} LIMIT {k}").rows
        for i in range(full)
    ]
    pages.append(select(graph, f"{text} OFFSET {full * k}").rows)
    assert [len(page) for page in pages] == [k] * full + [
        len(expected) - full * k
    ], text
    rows = [row for page in pages for row in page]
    assert len(rows) == len(set(rows)), text
    assert set(rows) == expected, text


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_fuzz_batch_equals_reference(seed):
    rng = random.Random(seed)
    graph = random_entity_graph(
        GeneratorConfig(
            entities=18, predicates=4, triples=260, attributes=40, seed=seed
        )
    )
    asked = set()
    for text, has_order in random_queries(rng, 30):
        ast = parse_query(text)
        node = translate_group(ast.where)
        if isinstance(ast, AskQuery):
            expected = bool(evaluate_algebra(graph, node))
            # Twice: a fresh plan, then the plan-cache hit.
            assert execute(graph, text).value is expected, text
            assert execute(graph, text).value is expected, text
            asked.add(expected)
            continue
        projected = ast.projected()
        # Layer 1: WHERE-clause solution sets against the oracle.
        reference = {
            tuple(
                graph.term_id(sol[v]) if v in sol else None
                for v in projected
            )
            for sol in evaluate_algebra(graph, node)
        }
        batch_rows = select_id_rows_batch(graph, node, projected)
        assert batch_rows == reference, text
        # Layer 2: full engine output against the oracle, twice — the
        # second execution takes the plan-cache hit path and must not
        # change the answer.
        expected = reference_select(graph, ast)
        first = select(graph, text).rows
        second = select(graph, text).rows
        assert first == second, text
        if has_order:
            assert first == expected, text
        elif ast.limit is None and ast.offset is None:
            # Row order too, not only the set: the canonical term order.
            assert first == sorted(set(expected), key=_row_key), text
        else:
            # Unordered slices admit any distinct window of the right
            # cardinality.
            full = {
                tuple(sol.get(v) for v in projected)
                for sol in evaluate_algebra(graph, node)
            }
            assert len(first) == len(expected), text
            assert len(set(first)) == len(first), text
            assert set(first) <= full, text
        if not (has_order or ast.limit is not None or ast.offset is not None):
            # Layer 3: the un-ordered text, read in about six pages.
            assert_pages_tile(graph, text, max(3, len(reference) // 6))
    assert asked == {True, False}


def test_fuzz_includes_blank_exclusion_path():
    graph = random_entity_graph(
        GeneratorConfig(
            entities=14,
            predicates=3,
            triples=150,
            attributes=20,
            blank_fraction=0.3,
            seed=5,
        )
    )
    text = f"SELECT ?a ?b WHERE {{ ?a <{NS}p0> ?b }} ORDER BY ?b"
    with_blanks = select(graph, text).rows
    without = select(graph, text, include_blanks=False).rows
    assert set(without) <= set(with_blanks)
    assert with_blanks == reference_select(graph, parse_query(text))


def test_order_by_desc_over_optional_variable_matches_reference():
    graph = fanout_graph(400, seed=4)
    optional = f"?a <{NS}p0> ?b OPTIONAL {{ ?b <{NS}value> ?v }}"
    for modifiers in (
        "ORDER BY DESC(?v)",
        "ORDER BY DESC(?v) ?a",
        "ORDER BY ?v DESC(?b)",
        "ORDER BY DESC(?v) OFFSET 3 LIMIT 7",
    ):
        text = f"SELECT ?a ?b ?v WHERE {{ {optional} }} {modifiers}"
        rows = select(graph, text).rows
        assert rows == reference_select(graph, parse_query(text)), text
        bound = [row[2] is not None for row in rows]
        if modifiers.startswith("ORDER BY DESC(?v)") and "LIMIT" not in text:
            assert True in bound and False in bound
            # DESC puts the unbound cells last.
            assert bound == sorted(bound, reverse=True)


def test_order_by_unprojected_variable_keeps_each_rows_best_key():
    graph = fanout_graph(400, seed=6)
    where = f"?a <{NS}p0> ?b . ?b <{NS}p1> ?c"
    for modifiers in (
        "ORDER BY ?b",
        "ORDER BY DESC(?b) ?a",
        "ORDER BY DESC(?b) LIMIT 5",
        "ORDER BY ?b OFFSET 2 LIMIT 40",
    ):
        text = f"SELECT ?a ?c WHERE {{ {where} }} {modifiers}"
        rows = select(graph, text).rows
        assert rows == reference_select(graph, parse_query(text)), text
        assert len(set(rows)) == len(rows), text


def test_top_k_picks_first_occurrence_and_handles_both_unbound_marks():
    from repro.rdf.dictionary import TermDictionary
    from repro.sparql.ast import OrderCondition
    from repro.sparql.batch import pack_ranks, top_k, unpack_ranks

    d = TermDictionary()
    c, a, b = (d.encode(IRI(f"{NS}{name}")) for name in "cab")
    ranks, ids_by_rank = d.rank_tables()
    assert [ranks[a], ranks[b], ranks[c]] == [1, 2, 3]
    # Radix 4: a DESC column's digit is 3 - rank (unbound 3, last), an
    # ascending column's is the rank (unbound 0, first).
    assert pack_ranks(ranks, [[a, None, c], [UNBOUND, b, b]], [True]) == [
        2 * 4 + 0,
        3 * 4 + 2,
        0 * 4 + 2,
    ]
    assert unpack_ranks([2 * 4 + 0, 3 * 4 + 2], 2, ids_by_rank) == [
        [b, c],
        [None, b],
    ]

    def head_rows(head, order, cells, offset=0, limit=None):
        """``cells`` (head then ORDER BY cells) through the primitives."""
        columns = [list(col) for col in zip(*cells)]
        width = len(head)
        keys = pack_ranks(
            ranks,
            columns[width:] + columns[:width],
            [condition.descending for condition in order],
        )
        heads = top_k(
            keys,
            len(ids_by_rank) ** width,
            all(condition.variable in head for condition in order),
            offset,
            limit,
        )
        columns = unpack_ranks(heads, width, ids_by_rank)
        return list(column_rows(columns, len(heads)))

    x, y = Variable("x"), Variable("y")
    desc_y = (OrderCondition(y, descending=True),)
    # head (x) + order (y) cells; y is not projected, so x=a occurs
    # under three keys and its best (largest y) must win — twice the
    # same cells, which collapse to one key.
    cells = [(a, a), (b, UNBOUND), (a, c), (c, b), (a, c), (b, a)]
    assert head_rows((x,), desc_y, cells) == [(a,), (c,), (b,)]
    assert head_rows((x,), desc_y, cells, offset=1, limit=1) == [(c,)]
    assert head_rows((x,), desc_y, cells, limit=0) == []
    # Every ORDER BY variable projected: the bounded path.
    pairs = [(a, b), (c, a), (a, b), (b, UNBOUND), (a, c)]
    triples = [pair + pair[1:] for pair in pairs]  # x, y and y again
    assert head_rows((x, y), desc_y, triples, limit=3) == [
        (a, c),
        (a, b),
        (c, a),
    ]
    assert head_rows((x, y), desc_y, triples) == [
        (a, c),
        (a, b),
        (c, a),
        (b, None),
    ]
    # No ORDER BY: the canonical order of the distinct head rows.
    assert head_rows((x, y), (), pairs, offset=1) == [
        (a, c),
        (b, None),
        (c, a),
    ]
    # No column at all: one distinct, empty row, or none.
    assert batch_top_k(d, Batch((), [], 2), (), ()) == ([], 1)
    assert batch_top_k(d, Batch((), [], 2), (), (), offset=1) == ([], 0)
    assert batch_top_k(d, Batch((), [], 0), (), ()) == ([], 0)


def canonical_reference(graph, text, include_blanks=True):
    """The reference answer of an unmodified SELECT, canonically sorted."""
    rows = set(reference_select(graph, parse_query(text)))
    if not include_blanks:
        rows = {
            row
            for row in rows
            if not any(isinstance(cell, BlankNode) for cell in row)
        }
    return sorted(rows, key=_row_key)


def test_finish_after_ranks_rebuilt_on_a_plan_cache_hit():
    graph = fanout_graph(400, seed=3)
    text = f"SELECT ?a ?b ?c WHERE {{ ?a <{NS}p0> ?b . ?b <{NS}p1> ?c }}"
    ordered = f"{text} ORDER BY DESC(?b) ?a LIMIT 7"
    first = select(graph, text).rows
    select(graph, ordered)
    assert first == canonical_reference(graph, text)
    dictionary = graph.dictionary
    ranks = dictionary.ranks()
    # New terms sorting before, between and after the graph's own: every
    # rank the cached plans' IDs had moves, and the graph is unchanged.
    for name in ("", "e1~", "e5~", "zz"):
        dictionary.encode(IRI(f"{NS}{name}fresh{len(dictionary)}"))
    assert dictionary.ranks() is not ranks
    hits = default_plan_cache.stats()["hits"]
    assert select(graph, text).rows == first
    assert select(graph, ordered).rows == reference_select(
        graph, parse_query(ordered)
    )
    assert default_plan_cache.stats()["hits"] == hits + 2


def test_finish_edge_cases_match_the_canonical_reference():
    graph = random_entity_graph(
        GeneratorConfig(
            entities=30,
            predicates=4,
            triples=300,
            attributes=40,
            blank_fraction=0.3,
            seed=9,
        )
    )
    triple = next(iter(graph.triples()))
    ground = " ".join(
        term.n3() for term in (triple.subject, triple.predicate, triple.object)
    )
    p = [f"<{NS}p{i}>" for i in range(4)]
    absent = f"<{NS}no-such-predicate>"
    # A head of eight columns: base**8 keys, far past one machine word.
    wide = (
        "SELECT ?a ?b ?c ?d ?e ?f ?g ?h WHERE { "
        f"?a {p[0]} ?b . ?b {p[1]} ?c . ?a {p[2]} ?d . ?e {p[0]} ?a . "
        f"?b {p[3]} ?f OPTIONAL {{ ?c {p[2]} ?g }} "
        f"OPTIONAL {{ ?d {absent} ?h }} }}"
    )
    texts = [
        f"SELECT * WHERE {{ {ground} }}",  # zero columns
        # ?z is unbound in every row, ?b only in some.
        f"SELECT ?z ?a ?b WHERE {{ ?a {p[0]} ?x "
        f"OPTIONAL {{ ?x {p[1]} ?b }} OPTIONAL {{ ?a {absent} ?z }} }}",
        wide,
    ]
    for text in texts:
        for include_blanks in (True, False):
            rows = select(graph, text, include_blanks=include_blanks).rows
            expected = canonical_reference(graph, text, include_blanks)
            assert rows == expected, (text, include_blanks)
    assert select(graph, texts[0]).rows == [()]
    assert {row[0] for row in select(graph, texts[1]).rows} == {None}
    rows = select(graph, wide).rows
    assert rows and len(rows[0]) == 8 and any(row[7] is None for row in rows)
    ordered = f"{wide} ORDER BY DESC(?c) ?g LIMIT 20"
    assert select(graph, ordered).rows == reference_select(
        graph, parse_query(ordered)
    )


def test_zero_column_and_empty_results():
    graph = fanout_graph(300, seed=1)
    triple = next(iter(graph.triples()))
    ground = f"{triple.subject.n3()} {triple.predicate.n3()} {triple.object.n3()}"
    missing = f"<{NS}no-such-subject> <{NS}p0> ?b"
    for modifiers in ("", " ORDER BY ?x", " ORDER BY DESC(?x) LIMIT 3"):
        assert select(graph, f"SELECT * WHERE {{ {ground} }}{modifiers}").rows == [()]
        assert select(graph, f"SELECT ?b WHERE {{ {missing} }}{modifiers}").rows == []
    # A projected variable the pattern never binds is an unbound column.
    assert select(
        graph, f"SELECT ?x WHERE {{ ?a <{NS}p0> ?b }}"
    ).rows == [(None,)]


def test_blank_exclusion_decides_each_id_once():
    graph = random_entity_graph(
        GeneratorConfig(
            entities=14,
            predicates=3,
            triples=150,
            attributes=20,
            blank_fraction=0.3,
            seed=5,
        )
    )
    for tail in ("", " ORDER BY DESC(?b) ?a", " LIMIT 1000"):
        text = f"SELECT ?a ?b WHERE {{ ?a <{NS}p0> ?b }}{tail}"
        kept = select(graph, text, include_blanks=False).rows
        everything = select(graph, text).rows
        expected = [
            row
            for row in everything
            if not any(cell.is_blank() for cell in row)
        ]
        assert 0 < len(expected) < len(everything)
        if "LIMIT" in tail:  # an unordered slice: the set is what counts
            assert set(kept) == set(expected), text
        else:
            assert kept == expected, text


# ---------------------------------------------------------------------------
# Plan cache: local engine
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    default_plan_cache.clear()
    yield
    default_plan_cache.clear()


def test_plan_cache_hit_skips_parse_and_plan(monkeypatch):
    graph = fanout_graph(2000)
    text = f"SELECT ?a ?c WHERE {{ ?a <{NS}p0> ?b . ?b <{NS}p1> ?c }}"
    first = select(graph, text).rows
    stats = engine.plan_cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 0

    def _no_parse(*args, **kwargs):
        raise AssertionError("cache hit must not re-parse")

    def _no_plan(*args, **kwargs):
        raise AssertionError("cache hit must not re-plan")

    monkeypatch.setattr(engine, "parse_query", _no_parse)
    monkeypatch.setattr(engine, "build_batch_plan", _no_plan)
    second = select(graph, text).rows
    assert second == first
    stats = engine.plan_cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    # Cold: a cleared cache misses again and serves the same rows.
    monkeypatch.undo()
    default_plan_cache.clear()
    assert select(graph, text).rows == first
    stats = engine.plan_cache_stats()
    assert stats["hits"] == 0 and stats["misses"] == 1


def test_plan_cache_key_ignores_include_blanks():
    # The prepared plan does not depend on include_blanks (the blank-row
    # filter is built per execution): one entry serves both settings.
    graph = random_entity_graph(
        GeneratorConfig(
            entities=14,
            predicates=3,
            triples=150,
            attributes=20,
            blank_fraction=0.3,
            seed=5,
        )
    )
    for tail in ("", " LIMIT 1000"):
        default_plan_cache.clear()
        text = f"SELECT ?a ?b WHERE {{ ?a <{NS}p0> ?b }}{tail}"
        everything = select(graph, text, include_blanks=True).rows
        kept = select(graph, text, include_blanks=False).rows
        stats = engine.plan_cache_stats()
        assert (stats["misses"], stats["hits"], stats["size"]) == (1, 1, 1)
        assert set(everything) == set(reference_select(graph, parse_query(text)))
        assert 0 < len(kept) < len(everything)
        assert set(kept) == {
            row for row in everything if not any(c.is_blank() for c in row)
        }


def test_plan_cache_invalidated_by_graph_mutation():
    graph = fanout_graph(1000)
    text = f"SELECT ?a ?b WHERE {{ ?a <{NS}p0> ?b }}"
    before = select(graph, text).rows
    subject = IRI(f"{NS}e0")
    graph.add(Triple(subject, IRI(f"{NS}p0"), IRI(f"{NS}e1")))
    after = select(graph, text).rows
    # The mutation changed the epoch, so the second execution was a
    # fresh plan (a miss), and the new triple is visible.
    assert engine.plan_cache_stats()["misses"] == 2
    assert set(before) <= set(after)
    assert after == reference_select(graph, parse_query(text))


def test_plan_cache_distinguishes_graphs_and_nsm():
    g1 = fanout_graph(500, seed=1)
    g2 = fanout_graph(500, seed=2)
    text = f"SELECT ?a ?b WHERE {{ ?a <{NS}p0> ?b }}"
    select(g1, text)
    select(g2, text)
    stats = engine.plan_cache_stats()
    assert stats["misses"] == 2  # distinct graph serials, no collision


def test_plan_cache_lru_and_counters():
    cache = PlanCache(capacity=2)
    assert cache.get("a") is None  # miss
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # hit; refreshes recency
    cache.put("c", 3)  # evicts "b" (LRU)
    assert cache.get("b") is None
    assert cache.get("c") == 3
    stats = cache.stats()
    assert stats == {"hits": 2, "misses": 2, "size": 2, "capacity": 2}
    cache.clear()
    assert cache.stats() == {
        "hits": 0,
        "misses": 0,
        "size": 0,
        "capacity": 2,
    }
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


def test_nsm_fingerprint_is_binding_based():
    from repro.rdf.namespaces import NamespaceManager

    a = NamespaceManager()
    b = NamespaceManager()
    assert nsm_fingerprint(a) == nsm_fingerprint(b)
    b.bind("ex", NS)
    assert nsm_fingerprint(a) != nsm_fingerprint(b)
    assert nsm_fingerprint(None) is None


# ---------------------------------------------------------------------------
# Graph count probes
# ---------------------------------------------------------------------------


def test_count_ids_matches_enumeration_on_all_shapes():
    graph = fanout_graph(1500, seed=3)
    ids = list(graph.id_triples())
    rng = random.Random(9)
    samples = rng.sample(ids, 25)
    for s, p, o in samples:
        for args in [
            (s, None, None),
            (None, p, None),
            (None, None, o),
            (s, p, None),
            (s, None, o),
            (None, p, o),
            (s, p, o),
            (None, None, None),
        ]:
            expected = sum(1 for _ in graph.triples_ids(*args))
            assert graph.count_ids(*args) == expected, args
    # Absent IDs count zero without raising.
    missing = max(tid for triple in ids for tid in triple) + 1000
    assert graph.count_ids(subject=missing) == 0
    assert graph.count_ids(predicate=missing) == 0
    assert graph.count_ids(object=missing) == 0


def test_count_pattern_repeated_variable_shapes():
    graph = Graph()
    e = [IRI(f"{NS}r{i}") for i in range(4)]
    p = IRI(f"{NS}loop")
    q = IRI(f"{NS}other")
    graph.add(Triple(e[0], p, e[0]))  # s == o
    graph.add(Triple(e[0], p, e[1]))
    graph.add(Triple(e[1], q, e[1]))  # s == o under q
    graph.add(Triple(e[2], p, e[3]))
    x, y = Variable("x"), Variable("y")
    assert graph.count_pattern(TriplePattern(x, p, x)) == 1
    assert graph.count_pattern(TriplePattern(x, y, x)) == 2
    assert graph.count_pattern(TriplePattern(x, x, y)) == 0
    assert graph.count_pattern(TriplePattern(x, x, x)) == 0
    # Brute-force cross-check via match().
    for tp in [
        TriplePattern(x, p, x),
        TriplePattern(x, y, x),
        TriplePattern(x, x, y),
        TriplePattern(x, y, y),
    ]:
        assert graph.count_pattern(tp) == sum(1 for _ in graph.match(tp))


def test_counts_survive_removal_and_copy():
    graph = fanout_graph(400, seed=4)
    triple = next(iter(graph))
    epoch_before = graph.epoch
    count_before = graph.count(predicate=triple.predicate)
    copied = graph.copy()
    graph.remove(triple)
    assert graph.epoch > epoch_before
    assert graph.count(predicate=triple.predicate) == count_before - 1
    # The copy is unaffected and maintains its own counts.
    assert copied.count(predicate=triple.predicate) == count_before
    assert copied.serial != graph.serial


# ---------------------------------------------------------------------------
# Columnar internals
# ---------------------------------------------------------------------------


def _row_loop(graph, slots, schema, rows, out_schema):
    """The per-row ``extend_id_bindings`` loop over padded rows."""
    expected, expected_sel = [], []
    for i, row in enumerate(rows):
        partial = {v: c for v, c in zip(schema, row) if c != UNBOUND}
        for extended in extend_id_bindings(graph, slots, partial):
            expected.append(
                tuple(extended.get(v, UNBOUND) for v in out_schema)
            )
            expected_sel.append(i)
    return expected, expected_sel


def _extend_rows(graph, slots, schema, rows, out_schema):
    """``extend_bindings_batch`` on rows: in as columns, out as rows
    laid out under ``out_schema``, beside the source-row indexes."""
    columns = [list(col) for col in zip(*rows)] or [[] for _ in schema]
    got, sel = extend_bindings_batch(
        graph, Batch(schema, columns, len(rows)), slots
    )
    assert set(got.schema) == set(out_schema)
    return list(column_rows([got.col(v) for v in out_schema], got.n)), sel


def test_extend_bindings_batch_preserves_row_loop_order():
    graph = fanout_graph(800, seed=6)
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    schema, rows = (), [()]
    for tp, out_schema in [
        (TriplePattern(a, IRI(f"{NS}p0"), b), (a, b)),
        (TriplePattern(b, IRI(f"{NS}p1"), c), (a, b, c)),
        (TriplePattern(a, IRI(f"{NS}p2"), c), (a, b, c)),
    ]:
        slots = compile_conjunct(graph, tp)
        expected, expected_sel = _row_loop(
            graph, slots, schema, rows, out_schema
        )
        got, got_sel = _extend_rows(graph, slots, schema, rows, out_schema)
        assert got == expected  # exact order, not just set equality
        assert got_sel == expected_sel
        if not got:
            break
        schema, rows = out_schema, got


def test_extend_bindings_batch_unbound_scan_shapes_keep_index_order():
    # The single empty row scans straight from index runs; every
    # pattern shape must still come out in ``triples_ids`` order.
    graph = fanout_graph(400, seed=3)
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    s, p, o = next(iter(graph.triples_ids()))
    subject, predicate, obj = (graph.decode_id(t) for t in (s, p, o))
    for tp in [
        TriplePattern(subject, predicate, obj),
        TriplePattern(subject, predicate, a),
        TriplePattern(a, predicate, obj),
        TriplePattern(subject, a, obj),
        TriplePattern(subject, a, b),
        TriplePattern(a, predicate, b),
        TriplePattern(a, b, obj),
        TriplePattern(a, b, c),
        TriplePattern(a, predicate, a),
        TriplePattern(a, a, b),
    ]:
        out_schema = tuple(sorted(tp.variables(), key=lambda v: v.name))
        slots = compile_conjunct(graph, tp)
        expected, expected_sel = _row_loop(graph, slots, (), [()], out_schema)
        got, got_sel = _extend_rows(graph, slots, (), [()], out_schema)
        assert got == expected and got_sel == expected_sel, tp


def test_extend_bindings_batch_mixed_domains_take_the_row_loop():
    # ?b is bound on some rows and free on others: a column probe would
    # treat UNBOUND as a key and drop the free rows.
    graph = fanout_graph(300, seed=6)
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    first, _ = _extend_rows(
        graph,
        compile_conjunct(graph, TriplePattern(a, IRI(f"{NS}p0"), b)),
        (),
        [()],
        (a, b),
    )
    half = len(first) // 2
    assert half
    rows = first[:half] + [(row[0], UNBOUND) for row in first[half:]]
    slots = compile_conjunct(graph, TriplePattern(b, IRI(f"{NS}p1"), c))
    expected, expected_sel = _row_loop(graph, slots, (a, b), rows, (a, b, c))
    got, got_sel = _extend_rows(graph, slots, (a, b), rows, (a, b, c))
    assert got == expected and got_sel == expected_sel
    assert any(i >= half for i in got_sel)  # free rows did extend
    # An UNBOUND cell in a column the conjunct does not mention rides
    # along untouched on the columnar path.
    padded = [(row[0], row[1], UNBOUND) for row in first]
    slots = compile_conjunct(graph, TriplePattern(a, IRI(f"{NS}p0"), b))
    expected, expected_sel = _row_loop(
        graph, slots, (a, b, c), padded, (a, b, c)
    )
    got, got_sel = _extend_rows(graph, slots, (a, b, c), padded, (a, b, c))
    assert got == expected and got_sel == expected_sel


def test_batch_id_rows_translates_unbound():
    v, w = Variable("v"), Variable("w")
    batch = Batch((v, w), [[1, 2], [UNBOUND, 3]], 2)
    assert batch.id_rows([v, w]) == {(1, None), (2, 3)}
    assert batch.id_rows([w]) == {(None,), (3,)}
    assert batch.id_rows([Variable("absent")]) == {(None,)}


def test_batch_top_k_matches_engine_order():
    graph = fanout_graph(600, seed=8)
    text = (
        f"SELECT ?a ?b WHERE {{ ?a <{NS}p0> ?b }} "
        "ORDER BY DESC(?b) ?a OFFSET 2 LIMIT 5"
    )
    ast = parse_query(text)
    node = translate_group(ast.where)
    batch = build_batch_plan(graph, node).execute()
    columns, n = batch_top_k(
        graph.dictionary,
        batch,
        ast.projected(),
        ast.order,
        ast.offset or 0,
        ast.limit,
    )
    decoded = [
        tuple(None if tid is None else graph.decode_id(tid) for tid in row)
        for row in column_rows(columns, n)
    ]
    assert decoded == reference_select(graph, ast)


def test_shared_planner_order():
    graph = fanout_graph(500, seed=2)
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    patterns = [
        TriplePattern(a, IRI(f"{NS}p0"), b),
        TriplePattern(b, IRI(f"{NS}p1"), c),
    ]
    ordered, compiled, estimate = plan_bgp(graph, patterns)
    assert len(ordered) == len(compiled) == 2
    assert estimate >= 0.0
    # The batch BGP executes that ordering.
    node = translate_group(parse_query(
        f"SELECT ?a WHERE {{ ?a <{NS}p0> ?b . ?b <{NS}p1> ?c }}"
    ).where)
    plan = build_batch_plan(graph, node)
    assert [tp.n3() for tp in plan.ordered] == [tp.n3() for tp in ordered]


# ---------------------------------------------------------------------------
# ASK and un-ordered LIMIT/OFFSET: the chunked read of the batch plan
# ---------------------------------------------------------------------------


def test_ask_and_bare_limit_semantics_unchanged():
    graph = fanout_graph(300, seed=1)
    assert execute(graph, f"ASK {{ ?a <{NS}p0> ?b }}").value is True
    assert execute(
        graph, f"ASK {{ ?a <{NS}missing-pred> ?b }}"
    ).value is False
    limited = select(graph, f"SELECT ?a WHERE {{ ?a <{NS}p0> ?b }} LIMIT 3")
    assert len(limited.rows) == 3
    assert len(set(limited.rows)) == 3


def test_chunked_read_edge_cases_keep_their_answers():
    graph = Graph()
    a, b, c = (IRI(f"{NS}{name}") for name in "abc")
    x, y = BlankNode("x"), BlankNode("y")
    p = IRI(f"{NS}p")
    for triple in [(a, p, b), (b, p, c), (x, p, b), (c, p, y)]:
        graph.add(Triple(*triple))
    scan = f"WHERE {{ ?a <{NS}p> ?b }}"
    for include_blanks in (True, False):
        for text, expected in [
            (f"SELECT ?a {scan} LIMIT 0", []),
            (f"SELECT ?a {scan} OFFSET 99", []),
            (f"SELECT ?a {scan} OFFSET 99 LIMIT 2", []),
            ("SELECT * WHERE { } LIMIT 1", [()]),
            ("SELECT * WHERE { } OFFSET 1", []),
            # A variable the pattern never binds is one unbound row.
            (f"SELECT ?u {scan} LIMIT 3", [(None,)]),
        ]:
            assert select(graph, text, include_blanks=include_blanks).rows == expected, text
        assert execute(graph, "ASK { }", include_blanks=include_blanks).value is True
    # LIMIT 0 answers without touching the plan.
    assert "never-run" in explain(
        graph, f"SELECT ?a {scan} LIMIT 0", analyze=True
    )
    # include_blanks=False slices: the filter runs before the window,
    # so blank rows take no place in it.
    ground = [(a, b), (b, c)]
    for tail, expected in [(" LIMIT 10", ground), (" OFFSET 1", ground[1:])]:
        text = f"SELECT ?a ?b {scan}{tail}"
        assert select(graph, text, include_blanks=False).rows == expected
    assert len(select(graph, f"SELECT ?a ?b {scan} LIMIT 10").rows) == 4


def seam_graph(edges: int) -> Graph:
    """A chain of ``p`` edges long enough to be scanned in many chunks.

    ``e{i} p e{i+1}``; every third node also has a ``q`` edge, every
    second an ``r`` edge to a literal, every node of the first hundred
    a ``v`` value.
    """
    graph = Graph()
    nodes = [IRI(f"{NS}e{i}") for i in range(edges + 2)]
    p, q, r, v = (IRI(f"{NS}{name}") for name in "pqrv")
    for i in range(edges):
        graph.add(Triple(nodes[i], p, nodes[i + 1]))
        if i % 3 == 0:
            graph.add(Triple(nodes[i], q, nodes[i + 2]))
        if i % 2 == 0:
            graph.add(Triple(nodes[i], r, Literal(str(i % 7))))
        if i < 100:
            graph.add(Triple(nodes[i], v, Literal(str(i))))
    return graph


SEAM_SHAPES = {
    "bgp": f"?a <{NS}p> ?b . ?b <{NS}q> ?c",
    "union": f"{{ ?a <{NS}p> ?b }} UNION {{ ?a <{NS}q> ?b }}",
    "optional": f"?a <{NS}p> ?b OPTIONAL {{ ?b <{NS}r> ?c }}",
    "filter": f'?a <{NS}p> ?b . ?a <{NS}r> ?c FILTER(?c != "3")',
    "union_join": (
        f"{{ ?a <{NS}p> ?b }} UNION {{ ?a <{NS}q> ?b }} . ?b <{NS}r> ?c"
    ),
}


@pytest.mark.parametrize("shape", sorted(SEAM_SHAPES))
def test_pages_tile_across_chunk_seams(shape):
    graph = seam_graph(400)  # small enough for the reference evaluator
    text = f"SELECT ?a ?b ?c WHERE {{ {SEAM_SHAPES[shape]} }}"
    ast = parse_query(text)
    # Distinct rows in after each chunk: with this page size a window
    # starts before and ends after the first seam and the second.
    seen, seams = set(), []
    plan = build_batch_plan(graph, translate_group(ast.where))
    for chunk in plan.chunks():
        seen |= chunk.id_rows(ast.projected())
        seams.append(len(seen))
    k = 7
    assert len(seams) >= 3 and seams[0] % k and seams[1] % k, seams
    assert_pages_tile(graph, text, k)
    # The same pages again, now from cached plans.
    hits = engine.plan_cache_stats()["hits"]
    assert_pages_tile(graph, text, k)
    assert engine.plan_cache_stats()["hits"] > hits


def test_early_stop_shows_in_analyze_counters():
    graph = seam_graph(12_000)
    first_chunk = f"rows_out={CHUNK_ROWS})"

    def analyzed(where, tail=" LIMIT 5"):
        text = f"SELECT ?a ?b WHERE {{ {where} }}{tail}"
        rendered = explain(graph, text, analyze=True)
        assert rendered == explain(graph, text, analyze=True)
        assert len(select(graph, text).rows) == 5
        return rendered.splitlines()

    # A 12,000-row scan: one chunk of it was read.
    lines = analyzed(f"?a <{NS}p> ?b")
    assert lines[0] == "batch engine"
    assert lines[1].startswith("BatchBgp") and lines[1].endswith(
        f"(actual batches=1 {first_chunk}"
    )
    # OPTIONAL: the optional side is built whole, the left side streams.
    lines = analyzed(f"?a <{NS}p> ?b OPTIONAL {{ ?b <{NS}r> ?c }}")
    assert lines[0] == "batch engine"
    assert "BatchLeftJoin" in lines[1] and "build_rows=6000" in lines[1]
    assert lines[2].endswith(f"(actual batches=1 {first_chunk}")
    assert lines[4].endswith("(actual batches=1 rows_out=6000)")
    # UNION-join: the union streams into the hoisted hash table and its
    # second branch is never reached.
    lines = analyzed(
        f"{{ ?a <{NS}p> ?b }} UNION {{ ?a <{NS}q> ?b }} . ?b <{NS}v> ?c"
    )
    assert lines[0] == "batch engine"
    assert "BatchJoin" in lines[1] and "build_rows=100" in lines[1]
    assert "BatchUnion" in lines[2]
    assert lines[2].endswith(f"(actual batches=1 {first_chunk}")
    assert lines[3].endswith(f"(actual batches=1 {first_chunk}")
    assert lines[5].endswith("(actual never-run)")
    # The whole-batch read of the same plan counts one batch per node.
    lines = analyzed(f"?a <{NS}p> ?b", tail=" ORDER BY ?a LIMIT 5")
    assert lines[1].endswith("(actual batches=1 rows_out=12000)")
    # ASK stops after the first chunk as well.
    rendered = explain(graph, f"ASK {{ ?a <{NS}p> ?b }}", analyze=True)
    assert rendered.splitlines()[1].endswith(
        f"(actual batches=1 {first_chunk}"
    )


# ---------------------------------------------------------------------------
# 1M-scale equivalence + early-termination gate (slow CI job only)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_batch_engine_1m_equivalence_and_early_termination():
    graph = fanout_graph(1_000_000)
    text = f"SELECT ?a ?c WHERE {{ ?a <{NS}p0> ?b . ?b <{NS}p1> ?c }}"

    # The oracle reads the two relations straight from Graph.triples.
    followers = {}
    for triple in graph.triples(predicate=IRI(f"{NS}p1")):
        followers.setdefault(triple.subject, []).append(triple.object)
    expected = {
        (triple.subject, c)
        for triple in graph.triples(predicate=IRI(f"{NS}p0"))
        for c in followers.get(triple.object, ())
    }

    select(graph, f"{text} LIMIT 1")  # builds the orderings both reads use
    start = time.perf_counter()
    rows = select(graph, text).rows
    full_seconds = time.perf_counter() - start
    assert len(rows) == len(expected) and set(rows) == expected

    start = time.perf_counter()
    limited = select(graph, f"{text} LIMIT 10").rows
    limited_seconds = time.perf_counter() - start
    assert len(set(limited)) == 10 and set(limited) <= expected
    assert full_seconds >= 50.0 * limited_seconds, (
        f"LIMIT 10 {limited_seconds:.4f}s vs unlimited {full_seconds:.2f}s"
    )
