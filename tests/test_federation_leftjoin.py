"""The hash left join against the nested loop it replaced.

The nested loop (``bindings.left_join`` / ``LeftJoinNode`` before the
data plane went batch-native) lives on in ``conftest.py`` as the
oracle: the hash left join must emit the same rows, in the same order,
with the same origins — keep-first dedupe and bound-join batch
composition downstream depend on all three.
"""

import random

import pytest

from conftest import as_mask, nested_loop_pairs, where_rows
from repro.federation import STRATEGIES, FederatedExecutor, NetworkStats
from repro.federation.bindings import (
    as_batch,
    bindings_of,
    canonical,
    left_join,
    schema_of,
)
from repro.federation.plan import (
    ExecContext,
    FedOp,
    LeftJoinNode,
    PlanInterpreter,
    RelationCache,
)
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import IRI, Variable
from repro.runtime.scheduler import QueryScheduler
from repro.sparql.batch import gather_pairs, left_join_pairs
from repro.workload.federation import federated_rps
from repro.workload.topologies import peer_namespace

VARIABLES = [Variable(name) for name in "abcd"]


# ---------------------------------------------------------------------------
# The oracle: conftest's nested loop, deduplicated keep-first
# ---------------------------------------------------------------------------


def nested_loop_left_join(left, right, condition=None):
    """The old ``bindings.left_join``: nested loop, keep-first dedupe."""
    seen, out = set(), []
    for merged, _, _ in nested_loop_pairs(left, right, condition):
        key = canonical(merged)
        if key not in seen:
            seen.add(key)
            out.append(merged)
    return out


def _merge_origins(left, right):
    merged = {handle.index: handle for handle in left}
    for handle in right:
        merged.setdefault(handle.index, handle)
    return tuple(merged.values())


# ---------------------------------------------------------------------------
# Random sides: mixed domains, partial bindings, duplicates
# ---------------------------------------------------------------------------


def random_side(rng, rows, values=3):
    """Rows over random sub-domains of ``VARIABLES`` — partially bound
    rows, disjoint domains, a shared variable bound on only some rows —
    plus verbatim duplicates."""
    out = []
    for _ in range(rng.randint(0, rows)):
        domain = rng.sample(VARIABLES, rng.randint(0, len(VARIABLES)))
        out.append({var: rng.randint(1, values) for var in domain})
    for _ in range(rng.randint(0, 2)):
        if out:
            out.append(dict(rng.choice(out)))
    rng.shuffle(out)
    return out


def id_dictionary():
    """A dictionary covering the IDs ``random_side`` draws (1..3): a
    federated execution packs its dedupe keys in the radix of its
    dictionary's size."""
    dictionary = TermDictionary()
    for k in range(4):
        dictionary.encode(IRI(f"http://example.org/filler{k}"))
    return dictionary


def random_condition(rng):
    """A predicate over the merged row, or ``None``."""
    kind = rng.randrange(3)
    if kind == 0:
        return None
    var, other = rng.sample(VARIABLES, 2)
    if kind == 1:
        # Unbound collapses to false, like a compiled FILTER.
        return lambda row: row.get(var) is not None and row.get(var) != 2
    return lambda row: (
        row.get(var) is not None
        and row.get(other) is not None
        and row[var] != row[other]
    )


@pytest.mark.parametrize("seed", range(8))
def test_hash_left_join_matches_nested_loop(seed):
    rng = random.Random(seed)
    for _ in range(150):
        left, right = random_side(rng, 7), random_side(rng, 7)
        condition = random_condition(rng)
        expected = nested_loop_left_join(left, right, condition)
        assert left_join(left, right, condition) == expected


def test_hash_left_join_emits_the_nested_loops_pairs_in_order():
    # Before deduplication: same merged rows from the same (left,
    # optional) pairs in the same order — which is what fixes the
    # origins and the keep-first representatives.
    rng = random.Random(99)
    for _ in range(300):
        left, right = random_side(rng, 6), random_side(rng, 6)
        condition = random_condition(rng)
        lhs, rhs = as_batch(left), as_batch(right)
        sel_l, sel_r = left_join_pairs(lhs, rhs, {}, as_mask(condition))
        schema = schema_of(lhs.schema + rhs.schema)
        merged = gather_pairs(lhs, rhs, sel_l, sel_r, schema)
        got = list(zip(bindings_of(merged), sel_l, sel_r))
        assert got == nested_loop_pairs(left, right, condition)


def test_left_join_degenerate_sides():
    x, y = Variable("x"), Variable("y")
    assert left_join([], [{x: 1}]) == []
    assert left_join([{x: 1}], []) == [{x: 1}]
    assert left_join([{}], [{x: 1}, {x: 2}]) == [{x: 1}, {x: 2}]
    assert left_join([{x: 1}], [{}]) == [{x: 1}]
    # Disjoint domains: a cross product, never an unmatched row.
    assert left_join([{x: 1}, {x: 2}], [{y: 5}]) == [
        {x: 1, y: 5},
        {x: 2, y: 5},
    ]
    # A condition rejecting every merge keeps the left row unextended.
    assert left_join([{x: 1}], [{x: 1, y: 5}], lambda row: False) == [{x: 1}]


# ---------------------------------------------------------------------------
# Operator level: LeftJoinNode rows, order and origins
# ---------------------------------------------------------------------------


class _Fixed(FedOp):
    """A leaf yielding fixed dict bindings with fixed origins."""

    kind = "Fixed"

    def __init__(self, bindings, origins):
        batch = as_batch(bindings)
        self.schema = batch.schema
        self.chunk = (batch, list(origins))

    def _stream(self, ctx, interp):
        yield self.chunk
        return ()


def test_left_join_node_rows_order_and_origins_match_nested_loop():
    rng = random.Random(5)
    for _ in range(200):
        scheduler = QueryScheduler().tenant("")
        handles = [scheduler.submit("peer0", 0.01) for _ in range(4)]

        def origins(n):
            # Rows share origin objects per request, some rows have two.
            pool = [(h,) for h in handles] + [(handles[0], handles[2]), ()]
            return [rng.choice(pool) for _ in range(n)]

        left, right = random_side(rng, 6), random_side(rng, 6)
        condition = random_condition(rng)
        left_origins, right_origins = origins(len(left)), origins(len(right))
        node = LeftJoinNode(
            _Fixed(left, left_origins),
            _Fixed(right, right_origins),
            as_mask(condition),
        )
        ctx = ExecContext(
            None, NetworkStats(), RelationCache(id_dictionary()), scheduler
        )
        stream = PlanInterpreter(ctx).run(node)

        expected, seen = [], set()
        if left:  # an empty required side skips the optional side
            for merged, i, j in nested_loop_pairs(left, right, condition):
                key = canonical(merged)
                if key in seen:
                    continue
                seen.add(key)
                origin = _merge_origins(
                    left_origins[i], right_origins[j] if j >= 0 else ()
                )
                expected.append((merged, [h.index for h in origin]))
        got = [
            (binding, [h.index for h in origin])
            for binding, origin in zip(
                bindings_of(stream.batch), stream.origins
            )
        ]
        assert got == expected


# ---------------------------------------------------------------------------
# End to end: two OPTIONAL blocks binding one variable
# ---------------------------------------------------------------------------


def test_two_optional_blocks_binding_one_variable_match_merged_graph():
    # ?a is bound by the first block on some rows and left for the
    # second block on the others, so the second left join sees a left
    # side that mixes domains and must agree with it where it is bound.
    system = federated_rps(peers=3, entities=60, facts=25, seed=13)
    p0 = peer_namespace(0).knows.n3()
    a1, a2 = peer_namespace(1).age.n3(), peer_namespace(2).age.n3()
    text = (
        f"SELECT ?x ?y ?a WHERE {{ ?x {p0} ?y "
        f"OPTIONAL {{ ?y {a1} ?a }} OPTIONAL {{ ?x {a2} ?a }} }}"
    )
    expected = where_rows(system.stored_database(), text)
    assert any(row[2] is None for row in expected)
    assert any(row[2] is not None for row in expected)
    executor = FederatedExecutor(system)
    prepared = executor.prepare(text)
    for strategy in STRATEGIES:
        assert executor.execute(prepared, strategy).rows == expected, strategy
