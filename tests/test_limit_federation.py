"""Early termination through the federated streaming layer (PR 6).

Demand propagation must (a) leave answer sets correct — limited and
ordered federated queries agree with the single-graph oracle across
every strategy — and (b) actually save work: a ``LIMIT`` over a deep
multi-batch bound-join pipeline ships strictly fewer messages and
finishes strictly earlier than the unlimited run, and ``ASK``
short-circuits after the first surviving row.
"""

import random

import pytest

from repro.federation.executor import (
    FIXED_STRATEGIES,
    STRATEGIES,
    FederatedExecutor,
)
from repro.federation.network import NetworkModel, NetworkStats
from repro.federation.plan import (
    BoundJoinStream,
    ExecContext,
    PlanInterpreter,
    PullScan,
    RelationCache,
    RemoteScan,
)
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.runtime.scheduler import QueryScheduler
from repro.sparql.algebra import (
    evaluate_algebra,
    reference_select,
    translate_group,
)
from repro.sparql.parser import parse_query
from repro.workload.federation import (
    federated_ask_sparql,
    federated_limit_sparql,
    federated_optional_sparql,
    federated_rps,
    federated_topk_sparql,
    federated_union_filter_sparql,
)
from repro.workload.topologies import peer_namespace

#: Slow enough per-solution that shipped rows dominate the simulated
#: clock; batch_size=1 makes every bound-join binding its own message,
#: the deep multi-batch shape demand propagation exists to cut short.
DEEP_NETWORK = dict(
    latency_seconds=0.01, per_solution_seconds=0.01, per_triple_seconds=0.05
)


@pytest.fixture(scope="module")
def system():
    return federated_rps(peers=3, entities=20, facts=60, seed=7)


@pytest.fixture(scope="module")
def merged(system):
    return system.stored_database()


def deep_executor(system):
    return FederatedExecutor(
        system,
        network=NetworkModel(**DEEP_NETWORK),
        batch_size=1,
        concurrency=4,
    )


def stats_for(system, text, strategy):
    result = deep_executor(system).execute(text, strategy)
    return result, result.stats


# ---------------------------------------------------------------------------
# The work actually stops: messages and makespan
# ---------------------------------------------------------------------------


def test_limit_cuts_messages_and_time_on_deep_bound_join(system):
    """Serial bound joins: LIMIT 10 must stop issuing sub-queries."""
    unlimited, full = stats_for(
        system, federated_limit_sparql(hops=3), "bound"
    )
    limited, cut = stats_for(
        system, federated_limit_sparql(hops=3, limit=10), "bound"
    )
    assert len(limited.rows) == 10
    assert limited.rows <= unlimited.rows
    assert len(unlimited.rows) > 10
    assert cut.messages < full.messages
    assert cut.elapsed_seconds < full.elapsed_seconds
    # A deep pipeline's savings are large, not marginal.
    assert cut.messages * 10 < full.messages


def test_limit_cuts_messages_and_time_on_pipelined_runtime(system, merged):
    """PARALLEL strategy: demand flows through the recorded runtime.

    The anchored path keeps the unlimited plan on bound joins too, so
    both runs ship the same kind of messages and the comparison
    isolates what the demand cap saves.  A top-k must drain before it
    slices, so it need not save messages — but it never costs more.
    """
    text = federated_limit_sparql(hops=3, anchor=3)
    unlimited, full = stats_for(system, text, "parallel")
    limited, cut = stats_for(
        system, federated_limit_sparql(hops=3, limit=10, anchor=3), "parallel"
    )
    assert unlimited.rows == set(reference_select(merged, parse_query(text)))
    assert len(limited.rows) == 10
    assert limited.rows <= unlimited.rows
    assert len(unlimited.rows) > 10
    assert cut.messages < full.messages
    assert cut.elapsed_seconds < full.elapsed_seconds
    _, drained = stats_for(system, federated_limit_sparql(hops=2), "parallel")
    _, topk = stats_for(
        system, federated_topk_sparql(hops=2, limit=5), "parallel"
    )
    assert topk.messages <= drained.messages


@pytest.mark.parametrize(
    "serial, messages, batches", [(True, 3, 1), (False, 30, 28)]
)
def test_serial_pull_scan_reads_its_child_lazily(
    system, serial, messages, batches
):
    # scan(peer0) -> bound join(peer1, batches of 2) -> pull(peer2),
    # asked for one row.  On a serial tenant the pull reads its child a
    # chunk at a time, so the first bound-join batch already yields the
    # row.  Pipelined, the pull waits for its child's whole wave, and
    # draining the child sends every batch.  No golden key tells the
    # two apart, so this pins the serial policy.
    endpoints = FederatedExecutor(system).endpoints
    x = [Variable(f"x{i}") for i in range(4)]
    knows = [
        TriplePattern(x[i], peer_namespace(i).knows, x[i + 1])
        for i in range(3)
    ]
    scan = RemoteScan((knows[0],), (endpoints[0],))
    join = BoundJoinStream(scan, (knows[1],), (endpoints[1],), batch_size=2)
    pull = PullScan(join, knows[2], (endpoints[2],))
    ctx = ExecContext(
        NetworkModel(),
        NetworkStats(),
        RelationCache(endpoints[0].graph.dictionary),
        QueryScheduler().tenant("", serial=serial),
    )
    assert len(PlanInterpreter(ctx).run(pull, 1)) >= 1
    assert ctx.stats.messages == messages
    assert join.n_batches == batches
    if serial:
        assert ctx.stats.busy_seconds == pytest.approx(0.1592)


def test_ask_short_circuits_the_pipeline(system):
    """ASK plans with demand one: first surviving row ends the run."""
    enumerate_all, full = stats_for(
        system, federated_limit_sparql(hops=3), "bound"
    )
    asked, cut = stats_for(system, federated_ask_sparql(hops=3), "bound")
    assert asked.rows == {()}
    assert cut.messages < full.messages
    assert cut.messages * 10 < full.messages
    assert cut.elapsed_seconds < full.elapsed_seconds


def test_ask_agrees_with_oracle_for_empty_answers(system, merged):
    # hops=4 names peer3's predicate, which no peer stores: provably
    # empty, and the federated ASK must say so without inventing rows.
    text = federated_ask_sparql(hops=4)
    ast = parse_query(text)
    expected = bool(evaluate_algebra(merged, translate_group(ast.where)))
    for strategy in STRATEGIES:
        result = deep_executor(system).execute(text, strategy)
        assert bool(result.rows) == expected, strategy


def test_unlimited_traffic_is_unchanged_by_the_demand_machinery(system):
    """No cap: a query without modifiers drains the same lazily pulled
    streams to the end, batching as a capped run would, and two fresh
    executors charge it identically."""
    text = federated_limit_sparql(hops=2)
    first = deep_executor(system).execute(text, "parallel")
    second = deep_executor(system).execute(text, "parallel")
    assert first.stats.messages == second.stats.messages
    assert first.stats.elapsed_seconds == second.stats.elapsed_seconds


# ---------------------------------------------------------------------------
# Answers stay right while stopping early
# ---------------------------------------------------------------------------


def test_limited_answers_are_a_window_of_the_oracle(system, merged):
    text = federated_limit_sparql(hops=3, limit=10)
    ast = parse_query(text)
    full = set(reference_select(merged, parse_query(federated_limit_sparql(hops=3))))
    for strategy in STRATEGIES:
        result = deep_executor(system).execute(text, strategy)
        assert len(result.rows) == 10, strategy
        assert result.rows <= full, strategy


def test_offset_past_end_and_limit_zero_are_empty(system):
    for text in (
        federated_limit_sparql(hops=2, limit=0),
        federated_limit_sparql(hops=2, limit=3, offset=10_000),
    ):
        for strategy in STRATEGIES:
            result = deep_executor(system).execute(text, strategy)
            assert result.rows == set(), (strategy, text)


def test_federated_topk_matches_oracle_exactly(system, merged):
    """ORDER BY pins the window: every strategy must return exactly the
    oracle's top-k rows (as a set; the executor reports sets)."""
    text = federated_topk_sparql(hops=2, limit=5)
    expected = set(reference_select(merged, parse_query(text)))
    executor = deep_executor(system)
    for strategy in STRATEGIES:
        result = executor.execute(text, strategy)
        assert result.rows == expected, strategy


def test_run_all_strategies_accepts_divergent_unordered_windows(system):
    # The built-in cross-checker must compare cardinality, not content,
    # for unordered slices — different strategies legally pick
    # different windows.
    results = deep_executor(system).run_all_strategies(
        federated_limit_sparql(hops=3, limit=7)
    )
    assert all(len(r.rows) == 7 for r in results.values())


# ---------------------------------------------------------------------------
# Unordered pages tile
# ---------------------------------------------------------------------------

_PATH = federated_limit_sparql(hops=2)

#: Texts whose unordered pages must tile the unmodified answer: a
#: bound-join path, the same path projected (DISTINCT collapses rows
#: across chunks), a federated OPTIONAL and a UNION of two peers.
TILED_TEXTS = {
    "path": _PATH,
    "path_x0": _PATH.replace("SELECT ?x0 ?x1 ?x2 ", "SELECT ?x0 "),
    "optional": federated_optional_sparql(),
    "union_filter": federated_union_filter_sparql(),
}

#: Multi-batch pipelines: two bindings per bound-join request.
DEEP_PAGES = dict(
    network=NetworkModel(**DEEP_NETWORK), batch_size=2, concurrency=4
)

#: The page size every strategy tiles at, ``adaptive``/``parallel``
#: included; the fixed strategies tile at every size in ``FIXED_PAGES``.
PAGE = 4
FIXED_PAGES = range(1, 21)


@pytest.mark.parametrize("deep", [False, True], ids=["default", "deep"])
@pytest.mark.parametrize("name", sorted(TILED_TEXTS))
def test_federated_unordered_pages_tile(system, name, deep):
    """``OFFSET i*k LIMIT k`` pages are pairwise disjoint and together
    the unmodified answer: an unordered window is a slice of *its own
    plan's* deterministic chunk order, and the result boundary neither
    loses nor repeats a row at a page seam.

    ``naive``, ``bound`` and ``collect`` plan without reading the cap:
    their pages tile at every size, and an open-ended ``OFFSET q*k``
    (an uncapped execution) continues the first ``q`` capped pages.
    ``adaptive``/``parallel`` feed the cap to the cost model, which may
    pick another plan, hence another row order, for a later page (under
    the deep network the path's pages at k=5 overlap), so they are held
    to one page size and to capped pages only.
    """
    text = TILED_TEXTS[name]
    assert "LIMIT" not in text and "OFFSET" not in text
    executor = FederatedExecutor(system, **(DEEP_PAGES if deep else {}))
    for strategy in STRATEGIES:
        full = executor.execute(text, strategy).rows
        assert full, (name, strategy)
        fixed = strategy in FIXED_STRATEGIES
        for k in FIXED_PAGES if fixed else (PAGE,):
            pages = [
                executor.execute(
                    f"{text} OFFSET {offset} LIMIT {k}", strategy
                ).rows
                for offset in range(0, len(full) + k, k)
            ]
            sizes = [len(page) for page in pages]
            key = (name, strategy, k)
            assert sum(sizes) == len(full), (key, sizes)
            assert set().union(*pages) == full, key
            assert sizes[-1] == 0 and sizes[-2] > 0, (key, sizes)
            if not fixed:
                continue
            q = max(1, len(full) // (2 * k))
            rest = executor.execute(f"{text} OFFSET {q * k}", strategy).rows
            split = pages[:q] + [rest]
            assert sum(map(len, split)) == len(full), key
            assert set().union(*split) == full, key


# ---------------------------------------------------------------------------
# Randomized modifier equivalence across every strategy
# ---------------------------------------------------------------------------


def _random_federated_modifier_queries(count, seed, peers=3):
    rng = random.Random(seed)
    names = ["a", "b", "c"]
    predicates = [peer_namespace(k).knows.n3() for k in range(peers)] + [
        peer_namespace(k).age.n3() for k in range(peers)
    ]
    for _ in range(count):
        hops = rng.randint(1, 2)
        body = " . ".join(
            f"?{names[i]} {rng.choice(predicates)} ?{names[i + 1]}"
            for i in range(hops)
        )
        variables = names[: hops + 1]
        projected = rng.sample(variables, rng.randint(1, len(variables)))
        head = " ".join(f"?{v}" for v in projected)
        base = f"SELECT {head} WHERE {{ {body} }}"
        ordered = rng.random() < 0.6
        modifiers = ""
        if ordered:
            conditions = [
                f"DESC(?{v})" if rng.random() < 0.5 else f"?{v}"
                for v in rng.sample(variables, rng.randint(1, 2))
            ]
            modifiers += " ORDER BY " + " ".join(conditions)
        shape = rng.randrange(4)
        if shape == 1:
            modifiers += f" LIMIT {rng.choice([0, 1, 5, 40])}"
        elif shape == 2:
            modifiers += f" OFFSET {rng.choice([2, 1000])}"
        elif shape == 3:
            modifiers += f" OFFSET {rng.choice([0, 3])} LIMIT {rng.randint(1, 9)}"
        yield base, modifiers, ordered


@pytest.mark.parametrize("seed", [5, 29])
def test_randomized_federated_modifier_equivalence(system, merged, seed):
    """Fuzz every strategy against the single-graph oracle.

    Ordered queries must match the oracle's window exactly; unordered
    slices admit any distinct window of the right size drawn from the
    full answer set.
    """
    executor = deep_executor(system)
    for base, modifiers, ordered in _random_federated_modifier_queries(
        12, seed
    ):
        text = base + modifiers
        expected = reference_select(merged, parse_query(text))
        full = set(reference_select(merged, parse_query(base)))
        for strategy in STRATEGIES:
            got = executor.execute(text, strategy).rows
            if ordered:
                assert got == set(expected), (strategy, text)
            else:
                assert len(got) == len(expected), (strategy, text)
                assert got <= full, (strategy, text)
