"""The shared join, left-join and FILTER kernels, through both layers.

``sparql/batch.py`` is the only module that knows how solutions are
joined, left-joined and filtered; the local operators (``BatchJoin``,
``BatchLeftJoin``) and the federated ones (``LocalHashJoin``,
``LeftJoinNode`` under a ``PlanInterpreter``) are two callers of the
same kernels.  One test drives both callers on the same generated sides
and holds them to the nested loops of ``conftest.py``: the same pairs,
in the same order, the same merged rows and — for the federated callers
— the same merged origins.  A second test holds ``compile_mask`` to the
reference evaluator of ``sparql/algebra.py``, row by row.
"""

import random
from itertools import repeat

import pytest

from conftest import nested_loop_pairs
from repro.federation import NetworkModel, NetworkStats, PeerEndpoint
from repro.federation.bindings import as_batch, bindings_of, relayout
from repro.federation.plan import (
    ExecContext,
    FedOp,
    LeftJoinNode,
    LocalHashJoin,
    PlanInterpreter,
    PullScan,
    RelationCache,
)
from repro.gpq.evaluation import compile_conjunct
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.runtime.scheduler import QueryScheduler
from repro.sparql.algebra import _eval_filter_expr
from repro.sparql.ast import BooleanExpr, Comparison
from repro.sparql.batch import (
    UNBOUND,
    Batch,
    BatchJoin,
    BatchLeftJoin,
    BatchOp,
    compile_mask,
    extend_bindings_batch,
)

A, B, C, D = VARIABLES = [Variable(name) for name in "abcd"]
#: Row-number columns, one per side and shared by nothing: they make
#: every row unique and let a joined row name the pair it came from.
ZL, ZR = Variable("zl"), Variable("zr")


#: IDs a generated side's row-number column can reach (at most 8 rows).
ROW_IDS = 16


def term_graph():
    """Three terms with IDs 0..2 — the cell values of every generated
    side — in a private dictionary, plus one term it never sees.

    Filler terms pad the dictionary to :data:`ROW_IDS` IDs, so it also
    covers the row numbers of ``ZL``/``ZR``: a federated execution
    packs its dedupe keys in the radix of its dictionary's size.
    """
    terms = [IRI(f"http://example.org/t{k}") for k in range(3)]
    graph = Graph(dictionary=TermDictionary())
    graph.add(Triple(terms[0], terms[1], terms[2]))
    assert [graph.term_id(term) for term in terms] == [0, 1, 2]
    for k in range(3, ROW_IDS):
        graph.dictionary.encode(IRI(f"http://example.org/filler{k}"))
    return graph, terms, IRI("http://example.org/never-interned")


# ---------------------------------------------------------------------------
# Generated sides
# ---------------------------------------------------------------------------


def rows_over(rng, domain, count):
    return [{var: rng.randrange(3) for var in domain} for _ in range(count)]


def mixed_rows(rng, count):
    """Rows over random sub-domains: partially bound, disjoint, a
    shared variable bound on only some rows, rows binding nothing."""
    return [
        {
            var: rng.randrange(3)
            for var in rng.sample(VARIABLES, rng.randint(0, len(VARIABLES)))
        }
        for _ in range(count)
    ]


def with_duplicates(rng, rows):
    rows = rows + [dict(rng.choice(rows)) for _ in range(3) if rows]
    rng.shuffle(rows)
    return rows


SHAPES = {
    "fully_bound": lambda rng: (
        rows_over(rng, (A, B), rng.randint(1, 7)),
        rows_over(rng, (B, C), rng.randint(1, 7)),
    ),
    "mixed_left": lambda rng: (
        mixed_rows(rng, rng.randint(1, 7)),
        rows_over(rng, (B, C), rng.randint(1, 7)),
    ),
    "mixed_right": lambda rng: (
        rows_over(rng, (A, B), rng.randint(1, 7)),
        mixed_rows(rng, rng.randint(1, 7)),
    ),
    "mixed_both": lambda rng: (
        mixed_rows(rng, rng.randint(1, 7)),
        mixed_rows(rng, rng.randint(1, 7)),
    ),
    "no_shared_variable": lambda rng: (
        rows_over(rng, (A,), rng.randint(1, 4)),
        rows_over(rng, (C, D), rng.randint(1, 4)),
    ),
    "seed_row": lambda rng: ([{}], mixed_rows(rng, rng.randint(1, 7))),
    "empty_left": lambda rng: ([], rows_over(rng, (B, C), 3)),
    "empty_right": lambda rng: (rows_over(rng, (A, B), 3), []),
    "duplicate_rows": lambda rng: (
        with_duplicates(rng, rows_over(rng, (A, B), rng.randint(1, 5))),
        with_duplicates(rng, mixed_rows(rng, rng.randint(1, 5))),
    ),
}


def numbered(rows, var):
    return [{**row, var: i} for i, row in enumerate(rows)]


def conditions(rng, terms, unknown):
    """No condition, a random one, and one that rejects every match."""
    var, other = rng.sample(VARIABLES, 2)
    return [
        None,
        rng.choice(
            [
                Comparison(var, "!=", terms[2]),
                Comparison(var, "!=", other),
                BooleanExpr(
                    "||",
                    Comparison(var, "=", other),
                    Comparison(other, "!=", unknown),
                ),
            ]
        ),
        Comparison(terms[0], "=", terms[1]),
    ]


# ---------------------------------------------------------------------------
# The two callers
# ---------------------------------------------------------------------------


class FixedBatch(BatchOp):
    """A local leaf: one fixed batch, read whole or two rows at a time."""

    def __init__(self, batch):
        self.batch = batch
        self.variables = frozenset(batch.schema)

    def _execute(self):
        return self.batch

    def _chunks(self):
        for start in range(0, self.batch.n, 2):
            yield self.batch.slice(start, start + 2)


class FixedStream(FedOp):
    """A federated leaf: one fixed batch with fixed origins."""

    kind = "Fixed"

    def __init__(self, batch, origins):
        self.schema = batch.schema
        self.chunk = (batch, list(origins))

    def _stream(self, ctx, interp):
        yield self.chunk
        return ()


def pairs_of(batch):
    """``(merged binding, left row, right row | -1)`` of a joined batch,
    read off the row-number columns."""
    out = []
    for binding in bindings_of(batch):
        i, j = binding.pop(ZL, 0), binding.pop(ZR, -1)
        out.append((binding, i, j))
    return out


def concatenated(chunks):
    out = []
    for chunk in chunks:
        out.extend(pairs_of(chunk))
    return out


def merged_origins(left, right):
    merged = {handle.index: handle for handle in left}
    for handle in right:
        merged.setdefault(handle.index, handle)
    return [handle.index for handle in merged.values()]


def domain_major(pairs, left, right):
    """Inner-join pairs in ``join_pairs``' stated order: left domain
    (first seen first), then right domain, then left row, then right
    row; the seed row (a left side with no column at all) takes the
    right side as it stands."""
    if left == [{}]:
        return pairs

    def ranks(side):
        first = {}
        for row in side:
            first.setdefault(frozenset(row), len(first))
        return [first[frozenset(row)] for row in side]

    lrank, rrank = ranks(left), ranks(right)
    return sorted(
        pairs, key=lambda p: (lrank[p[1]], rrank[p[2]], p[1], p[2])
    )


@pytest.mark.parametrize("seed", range(40))
def test_both_layers_run_the_nested_loops_pairs_in_the_kernels_order(seed):
    rng = random.Random(seed)
    graph, terms, unknown = term_graph()
    decode = graph.decode_id
    for shape, build in SHAPES.items():
        left, right = build(rng)
        assert max(len(left), len(right)) <= ROW_IDS
        lhs = as_batch(numbered(left, ZL) if left != [{}] else left)
        rhs = as_batch(numbered(right, ZR))
        scheduler = QueryScheduler().tenant("")
        handles = [scheduler.submit("peer0", 0.01) for _ in range(4)]
        pool = [(h,) for h in handles] + [(handles[0], handles[2]), ()]
        lorigins = [rng.choice(pool) for _ in left]
        rorigins = [rng.choice(pool) for _ in right]

        def interpreted(node):
            ctx = ExecContext(
                None,
                NetworkStats(),
                RelationCache(graph.dictionary),
                scheduler,
            )
            stream = PlanInterpreter(ctx).run(node)
            return pairs_of(stream.batch), [
                [h.index for h in origin] for origin in stream.origins
            ]

        def expected_origins(pairs):
            return [
                merged_origins(lorigins[i], rorigins[j] if j >= 0 else ())
                for _, i, j in pairs
            ]

        # Inner join.
        inner = [p for p in nested_loop_pairs(left, right) if p[2] >= 0]
        expected = domain_major(inner, left, right)
        local = BatchJoin(FixedBatch(lhs), FixedBatch(rhs))
        assert pairs_of(local.execute()) == expected, shape
        chunked = concatenated(local.chunks())
        mixed = any(UNBOUND in col for col in lhs.columns + rhs.columns)
        if left != [{}] and mixed:
            # Every left chunk is domain-major on its own.
            assert sorted(p[1:] for p in chunked) == sorted(
                p[1:] for p in expected
            ), shape
        else:
            assert chunked == expected, shape
        got, origins = interpreted(
            LocalHashJoin(
                FixedStream(lhs, lorigins), FixedStream(rhs, rorigins)
            )
        )
        assert got == expected, shape
        assert origins == expected_origins(expected), shape

        # Left join, with and without a condition on the merged row.
        for expr in conditions(rng, terms, unknown):
            mask = predicate = None
            if expr is not None:
                mask = compile_mask(graph, expr, {})

                def predicate(merged, expr=expr):
                    mu = {var: decode(tid) for var, tid in merged.items()}
                    return _eval_filter_expr(expr, mu)

            expected = nested_loop_pairs(left, right, predicate)
            local = BatchLeftJoin(FixedBatch(lhs), FixedBatch(rhs), mask)
            assert pairs_of(local.execute()) == expected, (shape, expr)
            assert concatenated(local.chunks()) == expected, (shape, expr)
            got, origins = interpreted(
                LeftJoinNode(
                    FixedStream(lhs, lorigins),
                    FixedStream(rhs, rorigins),
                    mask,
                )
            )
            if not left:  # an empty required side skips the optional one
                expected = []
            assert got == expected, (shape, expr)
            assert origins == expected_origins(expected), (shape, expr)
        if shape == "duplicate_rows":
            # The last condition rejected every match: all pads.
            assert [j for _, _, j in expected] == [-1] * len(left)


# ---------------------------------------------------------------------------
# PullScan: pulled relations read in place, as the merged copy read them
# ---------------------------------------------------------------------------


def _ex(name):
    return IRI(f"http://example.org/{name}")


#: Two peers sharing ``knows``; ``s1 knows o2`` is in both.
SHARED_KNOWS = {
    "peer0": [("s1", "o1"), ("s2", "o1"), ("s1", "o2"), ("s2", "o3")],
    "peer1": [("s1", "o2"), ("s1", "o4"), ("s2", "o5"), ("s3", "o1")],
}


@pytest.mark.parametrize(
    "bound, values",
    [("s", ["s1", "s2", "s3", "s4"]), ("o", ["o1", "o2", "o5", "o9"])],
)
def test_pull_scan_over_two_sources_reads_like_the_merged_copy(bound, values):
    dictionary = TermDictionary()
    knows = _ex("knows")
    endpoints = []
    for name, pairs in SHARED_KNOWS.items():
        graph = Graph(dictionary=dictionary)
        for s, o in pairs:
            graph.add(Triple(_ex(s), knows, _ex(o)))
        endpoints.append(PeerEndpoint(name, graph))
    column = Variable(bound)
    ids = [dictionary.encode(_ex(value)) for value in values]
    scheduler = QueryScheduler().tenant("")
    handles = [scheduler.submit("peer9", 0.01) for _ in ids]
    child = FixedStream(
        Batch((column,), [ids], len(ids)), [(h,) for h in handles]
    )
    pattern = TriplePattern(Variable("s"), knows, Variable("o"))
    pull = PullScan(child, pattern, tuple(endpoints))
    ctx = ExecContext(
        NetworkModel(), NetworkStats(), RelationCache(dictionary), scheduler
    )
    stream = PlanInterpreter(ctx).run(pull)
    assert pull.pulled == ("peer0", "peer1")

    # The copy the pull used to make: every pulled relation, in pull
    # order, bulk-added to one graph, then extended against.
    merged = Graph(dictionary=dictionary)
    pid = dictionary.lookup(knows)
    for endpoint in endpoints:
        objects, subjects = endpoint.graph.group("pos", pid)
        merged.add_id_triples(zip(subjects, repeat(pid), objects), dictionary)
    found, sel = extend_bindings_batch(
        merged, child.chunk[0], compile_conjunct(merged, pattern)
    )
    assert set(sel) == {0, 1, 2}  # two rows read both sources
    assert list(stream.batch.rows()) == list(
        relayout(found, pull.schema).rows()
    )
    assert [[h.index for h in origin] for origin in stream.origins] == [
        merged_origins((handles[i],), pull.handles) for i in sel
    ]


# ---------------------------------------------------------------------------
# FILTER: one compiler, held to the reference evaluator
# ---------------------------------------------------------------------------


def filter_shapes(terms, unknown):
    """Every ``FilterExpr`` shape the fragment has."""
    t0, t1, _ = terms
    outside = Variable("outside")  # in no schema
    atoms = [
        Comparison(left, op, right)
        for op in ("=", "!=")
        for left, right in [
            (A, B),  # var/var
            (A, A),
            (A, t1),  # var/ground
            (t0, B),  # ground/var
            (t0, t0),  # ground/ground
            (t0, t1),
            (A, unknown),  # an uninterned constant
            (unknown, unknown),
            (A, outside),  # a variable outside the schema
            (outside, t0),
        ]
    ]
    pairs = list(zip(atoms, atoms[3:] + atoms[:3]))
    return (
        atoms
        + [BooleanExpr("&&", x, y) for x, y in pairs]
        + [BooleanExpr("||", x, y) for x, y in pairs]
        + [BooleanExpr("&&", atoms[0], BooleanExpr("||", atoms[4], atoms[13]))]
    )


@pytest.mark.parametrize("seed", range(5))
def test_compile_mask_matches_the_reference_evaluator_row_by_row(seed):
    rng = random.Random(seed)
    graph, terms, unknown = term_graph()
    decode = graph.decode_id
    n = 40
    columns = [
        [rng.choice([0, 1, 2, UNBOUND]) for _ in range(n)] for _ in (A, B, C)
    ]
    batch = Batch((A, B, C), columns, n)
    sentinels = {}
    for expr in filter_shapes(terms, unknown):
        expected = [
            _eval_filter_expr(
                expr,
                {
                    var: decode(tid)
                    for var, tid in zip(batch.schema, row)
                    if tid != UNBOUND
                },
            )
            for row in batch.rows()
        ]
        assert compile_mask(graph, expr, sentinels)(batch) == expected, expr
    assert list(sentinels) == [unknown]  # one shared sentinel, negative
    assert sentinels[unknown] < 0
