"""Benchmark definitions and the JSON-emitting runner.

Thirteen suites:

* ``match/*`` — single triple-pattern matching through the SPO/POS/OSP
  indexes, dictionary-encoded vs the frozen term-object baseline;
* ``join/*`` — path- and star-shaped GPQ evaluation (the hot path of
  certain-answer computation), new ID-level join vs the seed join;
* ``chase/*`` — Algorithm-1 universal-solution construction over chain
  and cycle topologies (absolute timings; the chase has no frozen
  baseline, its speed rides on the store underneath);
* ``sparql/*`` — full SPARQL queries (BGP, UNION, FILTER shapes)
  through the columnar batch engine vs the naive term-level algebra
  evaluator kept as reference;
* ``columnar/plan_cache`` — a prepared-plan-cache hot/cold pair whose
  hit/miss counters are hard-asserted;
* ``federation/*`` — distributed execution of a cross-peer path query
  under each federation strategy, recording message counts, transfer
  volumes and simulated wire time at several data scales;
* ``adaptive/*`` — the cost-model-driven adaptive strategy against
  every fixed baseline on federated workloads (paths, selective
  anchors, FILTER/UNION pushdown, a larger 5-peer system), hard
  asserting answer-set equality with the single-graph planner and that
  the adaptive plan is never worse than a fixed strategy on messages
  *and* transfer simultaneously;
* ``parallel/*`` — the overlap-aware parallel mode (discrete-event
  runtime, exclusive groups, makespan-priced decisions) against the
  serial adaptive plan per workload, hard asserting answer-set
  equality, ``parallel elapsed_seconds <= serial elapsed_seconds`` on
  *every* workload, and an exclusive-group message reduction on the
  workload built for it;
* ``streaming/*`` — pipelined bound-join batches against PR 4's wave
  barriers on multi-batch and federated-OPTIONAL workloads, hard
  asserting answer-set equality with the single-graph evaluator,
  identical message counts and transferred solutions in both modes,
  ``pipelined elapsed <= wave elapsed`` everywhere, and a strict
  makespan win on at least one workload;
* ``limit/*`` — demand propagation: every workload runs once with a
  solution modifier (``LIMIT``, ``ORDER BY … LIMIT``, ``ASK``) and
  once without, hard asserting the limited run never ships more
  messages, that on the deep multi-batch bound-join workloads it ships
  *strictly fewer* messages and finishes strictly earlier, and that
  the limited answers are a correct window of the single-graph answer
  set (exact for the ordered top-k);
* ``faults/*`` — deterministic fault injection and recovery: each
  scenario runs the same federated query fault-free and under a seeded
  :class:`~repro.federation.faults.FaultModel` (transient flakiness, a
  scripted outage window, an endpoint blackout with and without a
  configured replica), hard asserting that recoverable runs return
  exactly the fault-free answer set with no partial flag, that the
  unrecoverable blackout comes back *flagged* partial naming exactly
  the dead endpoint with answers that are a subset of the fault-free
  set, that injected faults actually fired, that backoff shows up in
  the makespan, and that retry traffic never exceeds the
  ``messages * (1 + max_retries) * (1 + replicas)`` budget;
* ``obs/*`` — the telemetry layer's overhead and determinism: the same
  federated workload with tracing disabled (the production default)
  and fully instrumented (live tracer plus ``analyze=True``), under
  the serial adaptive strategy and the parallel runtime, hard
  asserting that instrumentation never perturbs the execution
  (identical answers and message counts), that the exported Chrome
  ``trace_event`` document validates, and that the virtual-domain
  export and the ``explain(analyze=True)`` text are byte-identical
  across repeated seeded runs;
* ``concurrency/*`` — multi-tenant concurrent execution through one
  shared event kernel: seeded mixed workloads at three offered-load
  points (2/4/8 tenants) run under weighted round-robin with fixed
  per-endpoint in-flight windows and with the AIMD adaptive
  controller, plus a skewed flood-vs-light workload under FIFO and
  WRR; hard asserting per-tenant answer sets byte-identical to solo
  execution everywhere, byte-determinism of the adaptive runs,
  adaptive p95 makespan never worse than any fixed window and
  strictly better somewhere, and that WRR bounds the max/min
  per-tenant stretch ratio the FIFO flood blows up.

Every comparative benchmark first checks both implementations agree on
the result (match counts / answer sets) so a timing can never mask a
correctness regression.  Timings are best-of-``repeat`` wall-clock.

The report may carry a ``smoke`` block: a second, small-scale run whose
deterministic metrics and machine-normalised speedups are the committed
baselines for the CI regression gate (:mod:`repro.bench.check`).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bench.baseline import BaselineGraph, baseline_evaluate_query
from repro.federation.executor import (
    ADAPTIVE,
    FIXED_STRATEGIES,
    PARALLEL,
    STRATEGIES,
    FederatedExecutor,
)
from repro.gpq.evaluation import evaluate_query_star
from repro.gpq.query import GraphPatternQuery
from repro.obs import Tracer, chrome_trace_events, validate_trace_events
from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Variable
from repro.rdf.triples import TriplePattern
from repro.peers.chase import chase_universal_solution
from repro.peers.system import RPS
from repro.sparql.algebra import (
    evaluate_algebra,
    reference_select,
    translate_group,
)
from repro.sparql.ast import SelectQuery
from repro.sparql.batch import select_id_rows_batch
from repro.sparql.cache import default_plan_cache
from repro.sparql.engine import execute as engine_execute
from repro.sparql.parser import parse_query
from repro.federation.faults import RetryPolicy
from repro.federation.network import NetworkModel
from repro.workload.federation import (
    blackout_fault_model,
    federated_ask_sparql,
    federated_exclusive_query,
    federated_limit_sparql,
    flaky_fault_model,
    outage_fault_model,
    federated_optional_filter_sparql,
    federated_optional_sparql,
    federated_path_query,
    federated_rps,
    federated_selective_query,
    federated_topk_sparql,
    federated_union_filter_sparql,
)
from repro.runtime.control import AimdSettings
from repro.workload.generators import GeneratorConfig, random_entity_graph
from repro.workload.queries import path_query, star_query
from repro.workload.tenants import skewed_tenant_workload, tenant_workload
from repro.workload.topologies import chain_rps, cycle_rps

__all__ = ["BenchRecord", "build_report", "run_all", "write_report"]

DEFAULT_SCALE = 100_000
DEFAULT_OUT = "BENCH_core.json"

#: Parameters of the small-scale run whose records are the committed
#: regression baselines (matches the CI smoke configuration).
SMOKE_SCALE = 3_000
SMOKE_REPEAT = 3
SMOKE_PEERS = 3

#: Data scales (``facts`` per peer) of the federation suite.  These are
#: independent of ``--scale``: the federation workload measures message
#: economics, not raw store throughput, and keeping them fixed makes the
#: suite's deterministic metrics comparable between full and smoke runs.
FEDERATION_SCALES = (20, 60, 120)


@dataclass
class BenchRecord:
    """One benchmark row of the report.

    Attributes:
        name: suite-qualified benchmark name, e.g. ``match/by_predicate``.
        seconds: best wall-clock time of the dictionary-encoded run.
        baseline_seconds: best time of the frozen seed implementation
            (absent for benchmarks without a baseline).
        speedup: ``baseline_seconds / seconds`` when both exist.
        meta: workload facts (result sizes, rounds, …) for plausibility.
    """

    name: str
    seconds: float
    baseline_seconds: Optional[float] = None
    speedup: Optional[float] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "seconds": self.seconds}
        if self.baseline_seconds is not None:
            out["baseline_seconds"] = self.baseline_seconds
            out["speedup"] = self.speedup
        if self.meta:
            out["meta"] = self.meta
        return out


def _best_time(fn: Callable[[], Any], repeat: int) -> Tuple[float, Any]:
    """Best-of-``repeat`` wall time of ``fn`` plus its (last) result."""
    best = float("inf")
    result: Any = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


def _compare(
    name: str,
    new_fn: Callable[[], Any],
    base_fn: Callable[[], Any],
    repeat: int,
    meta: Dict[str, Any],
) -> BenchRecord:
    new_seconds, new_result = _best_time(new_fn, repeat)
    base_seconds, base_result = _best_time(base_fn, repeat)
    if new_result != base_result:
        raise AssertionError(
            f"benchmark {name!r}: dictionary-encoded result "
            f"{new_result!r} != baseline result {base_result!r}"
        )
    meta = dict(meta)
    meta["result"] = new_result
    return BenchRecord(
        name=name,
        seconds=new_seconds,
        baseline_seconds=base_seconds,
        # Clamp the denominator so a timer-resolution underflow yields a
        # huge-but-finite (JSON-encodable) ratio instead of None/Infinity.
        speedup=base_seconds / max(new_seconds, 1e-12),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------


def _workload_graph(scale: int) -> Graph:
    """A seeded entity-relation graph of roughly ``scale`` triples.

    A small fixed predicate vocabulary keeps per-predicate cardinalities
    realistic (thousands of triples each at the 100k scale), which is
    what makes the join benchmarks meaningful.
    """
    config = GeneratorConfig(
        entities=max(20, scale // 10),
        predicates=20,
        triples=scale,
        attributes=max(10, scale // 10),
        seed=11,
    )
    return random_entity_graph(config, name="bench")


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def bench_pattern_match(
    graph: Graph, baseline: BaselineGraph, repeat: int
) -> List[BenchRecord]:
    """Time ``match()`` across the index-backed pattern shapes."""
    var_s, var_p, var_o = Variable("s"), Variable("p"), Variable("o")
    predicates = sorted(graph.predicates())[:8]
    subjects = sorted(graph.subjects())[:200]
    objects = sorted(graph.objects())[:200]

    def sweep(patterns: List[TriplePattern]) -> Callable[[Any], Callable[[], int]]:
        def bind(store: Any) -> Callable[[], int]:
            def run() -> int:
                total = 0
                for pattern in patterns:
                    for _ in store.match(pattern):
                        total += 1
                return total

            return run

        return bind

    shapes: List[Tuple[str, List[TriplePattern]]] = [
        (
            "match/by_subject",
            [TriplePattern(s, var_p, var_o) for s in subjects],
        ),
        (
            "match/by_predicate",
            [TriplePattern(var_s, p, var_o) for p in predicates],
        ),
        (
            "match/by_object",
            [TriplePattern(var_s, var_p, o) for o in objects],
        ),
        (
            "match/subject_predicate",
            [
                TriplePattern(s, p, var_o)
                for s in subjects[:50]
                for p in predicates
            ],
        ),
        (
            "match/repeated_variable",
            [TriplePattern(var_s, p, var_s) for p in predicates],
        ),
    ]
    records = []
    for name, patterns in shapes:
        bind = sweep(patterns)
        records.append(
            _compare(
                name,
                bind(graph),
                bind(baseline),
                repeat,
                {"patterns": len(patterns)},
            )
        )
    return records


def bench_gpq_join(
    graph: Graph, baseline: BaselineGraph, repeat: int
) -> List[BenchRecord]:
    """Time conjunctive GPQ evaluation (path and star shapes)."""
    predicates = sorted(graph.predicates())
    queries: List[Tuple[str, GraphPatternQuery]] = [
        ("join/path2", path_query(predicates[:2])),
        ("join/path3", path_query(predicates[:3])),
        ("join/star2", star_query(predicates[:2])),
        ("join/star3", star_query(predicates[:3])),
    ]
    records = []
    for name, query in queries:
        new_fn = lambda q=query: len(evaluate_query_star(graph, q))
        base_fn = lambda q=query: len(baseline_evaluate_query(baseline, q))
        records.append(
            _compare(name, new_fn, base_fn, repeat, {"arity": query.arity})
        )
    return records


def bench_chase(repeat: int, peers: int = 6) -> List[BenchRecord]:
    """Time Algorithm-1 universal-solution construction."""
    records = []
    for name, rps in (
        ("chase/chain", chain_rps(peers, entities=12, facts=40, seed=3)),
        ("chase/cycle", cycle_rps(max(3, peers - 1), entities=12, facts=40, seed=3)),
    ):
        def run(system=rps):
            result = chase_universal_solution(system)
            return (len(result.solution), result.rounds)

        seconds, (solution_size, rounds) = _best_time(run, repeat)
        records.append(
            BenchRecord(
                name=name,
                seconds=seconds,
                meta={
                    "peers": len(rps.peers),
                    "solution_triples": solution_size,
                    "rounds": rounds,
                },
            )
        )
    return records


def _where_rows(
    graph: Graph, node, variables: Sequence[Variable]
) -> Set[Tuple[Optional[Term], ...]]:
    """Distinct projected rows of a WHERE clause: batch engine, decoded."""
    decode = graph.decode_id
    return {
        tuple(None if tid is None else decode(tid) for tid in row)
        for row in select_id_rows_batch(graph, node, variables)
    }


def bench_sparql(graph: Graph, repeat: int) -> List[BenchRecord]:
    """Time full SPARQL queries: batch plans vs the reference
    term-level algebra evaluator.

    Result sets are verified equal once (outside the timed region); the
    timed closures return row counts so the record metadata stays
    JSON-encodable.
    """
    predicates = sorted(graph.predicates())
    if not predicates:
        return []
    # Degenerate workloads may have fewer than three predicates; reuse.
    p0, p1, p2 = (p.n3() for p in (predicates * 3)[:3])
    queries: List[Tuple[str, str]] = [
        (
            "sparql/bgp_path2",
            f"SELECT ?v0 ?v2 WHERE {{ ?v0 {p0} ?v1 . ?v1 {p1} ?v2 }}",
        ),
        (
            "sparql/bgp_star2",
            f"SELECT ?l1 ?l2 WHERE {{ ?c {p0} ?l1 . ?c {p1} ?l2 }}",
        ),
        (
            "sparql/union",
            f"SELECT ?s ?o WHERE {{ {{ ?s {p0} ?o }} UNION {{ ?s {p1} ?o }} }}",
        ),
        (
            "sparql/filter",
            f"SELECT ?s ?o WHERE {{ ?s {p0} ?o . FILTER(?s != ?o) }}",
        ),
        (
            "sparql/union_join",
            f"SELECT ?s WHERE {{ {{ ?s {p0} ?o }} UNION {{ ?s {p1} ?q }}"
            f" . ?s {p2} ?w }}",
        ),
    ]
    records = []
    for name, text in queries:
        ast = parse_query(text)
        assert isinstance(ast, SelectQuery)
        node = translate_group(ast.where)
        variables = ast.projected()

        def plan_rows() -> FrozenSet[Tuple[Optional[Term], ...]]:
            return frozenset(_where_rows(graph, node, variables))

        def reference_rows() -> FrozenSet[Tuple[Optional[Term], ...]]:
            omega = evaluate_algebra(graph, node)
            return frozenset(
                tuple(mu.get(v) for v in variables) for mu in omega
            )

        expected = reference_rows()
        if plan_rows() != expected:
            raise AssertionError(
                f"benchmark {name!r}: batch engine disagrees with the "
                f"reference evaluator"
            )
        records.append(
            _compare(
                name,
                lambda: len(plan_rows()),
                lambda: len(reference_rows()),
                repeat,
                {"variables": len(variables)},
            )
        )
    return records


def bench_columnar(graph: Graph, repeat: int) -> List[BenchRecord]:
    """The prepared-plan cache, hot against cold.

    The ``columnar/plan_cache`` record times a *hot* prepared-plan run
    (every call hits the cross-query LRU) against a *cold* one (the
    cache is cleared before every call, so every call re-parses and
    re-plans).  Hit/miss counter deltas are hard-asserted around both
    timed regions — a cache that silently stopped hitting (or missing)
    can never hide behind a timing — and recorded in the metadata for
    the CI gate to re-check.
    """
    predicates = sorted(graph.predicates())
    if not predicates:
        return []
    p0, p1 = (p.n3() for p in (predicates * 2)[:2])
    # An anchored, ordered query whose execution is cheap,
    # so the hot/cold ratio measures what the cache removes (parse +
    # plan), not join work that both runs must do anyway.
    anchor = sorted(graph.subjects())[0].n3()
    cache_text = (
        f"SELECT ?b ?c WHERE {{ {anchor} {p0} ?b . ?b {p1} ?c }} "
        f"ORDER BY ?b ?c"
    )

    def hot() -> int:
        return len(engine_execute(graph, cache_text).rows)

    def cold() -> int:
        default_plan_cache.clear()
        return len(engine_execute(graph, cache_text).rows)

    default_plan_cache.clear()
    expected_rows = hot()  # one miss; the cache is now warm
    before = default_plan_cache.stats()
    hot_seconds, hot_rows = _best_time(hot, repeat)
    after = default_plan_cache.stats()
    hot_hits = after["hits"] - before["hits"]
    hot_misses = after["misses"] - before["misses"]
    if hot_misses != 0 or hot_hits != max(1, repeat):
        raise AssertionError(
            f"benchmark 'columnar/plan_cache': hot run expected "
            f"{max(1, repeat)} hits and 0 misses, saw {hot_hits} hits "
            f"and {hot_misses} misses"
        )
    cold_seconds, cold_rows = _best_time(cold, repeat)
    # clear() also resets the counters, so after the cold loop the
    # stats reflect exactly the last iteration: one miss, zero hits.
    stats = default_plan_cache.stats()
    if stats["hits"] != 0 or stats["misses"] != 1:
        raise AssertionError(
            f"benchmark 'columnar/plan_cache': cold run expected every "
            f"call to miss, final counters are {stats!r}"
        )
    if hot_rows != cold_rows or hot_rows != expected_rows:
        raise AssertionError(
            f"benchmark 'columnar/plan_cache': hot run returned "
            f"{hot_rows} rows, cold run {cold_rows}, first run "
            f"{expected_rows}"
        )
    return [
        BenchRecord(
            name="columnar/plan_cache",
            seconds=hot_seconds,
            baseline_seconds=cold_seconds,
            speedup=cold_seconds / max(hot_seconds, 1e-12),
            meta={
                "results": hot_rows,
                "hot_hits": hot_hits,
                "hot_misses": hot_misses,
                "cold_hits": stats["hits"],
                "cold_misses_last_call": stats["misses"],
            },
        )
    ]


def bench_federation(repeat: int) -> List[BenchRecord]:
    """Time and account federated strategies on 3-peer workloads.

    For every data scale all five strategies (adaptive and parallel
    plus the fixed baselines) must return exactly the answer set of the
    single-graph evaluator over the union database, and the bound-join
    strategy must use strictly fewer messages than naive per-pattern
    shipping — both are hard assertions, so a regression can never hide
    behind a timing.
    """
    records = []
    query = federated_path_query(hops=2)
    for facts in FEDERATION_SCALES:
        system = federated_rps(
            peers=3, entities=max(10, facts // 3), facts=facts, seed=7
        )
        expected = evaluate_query_star(system.stored_database(), query)
        messages: Dict[str, int] = {}
        for strategy in STRATEGIES:

            def run(strategy: str = strategy):
                return FederatedExecutor(system).execute(query, strategy)

            seconds, result = _best_time(run, repeat)
            if result.rows != expected:
                raise AssertionError(
                    f"federation strategy {strategy!r} at facts={facts}: "
                    f"{len(result.rows)} answers != single-graph "
                    f"{len(expected)}"
                )
            stats = result.stats
            messages[strategy] = stats.messages
            records.append(
                BenchRecord(
                    name=f"federation/{strategy}@{facts}",
                    seconds=seconds,
                    meta={
                        "facts": facts,
                        "peers": 3,
                        "messages": stats.messages,
                        "solutions_transferred": stats.solutions_transferred,
                        "triples_transferred": stats.triples_transferred,
                        "busy_seconds": stats.busy_seconds,
                        "elapsed_seconds": stats.elapsed_seconds,
                        "results": len(result.rows),
                    },
                )
            )
        if messages["bound"] >= messages["naive"]:
            raise AssertionError(
                f"bound-join strategy must ship strictly fewer messages than "
                f"naive at facts={facts}: bound={messages['bound']} "
                f"naive={messages['naive']}"
            )
    return records


def _single_graph_rows(system: RPS, query) -> Any:
    """Reference answer set: the query over the union of peer databases.

    GPQs go through the ``Q*`` evaluator, SPARQL text through the
    batch engine — the same oracles the federated tests assert
    against.
    """
    union = system.stored_database()
    if isinstance(query, GraphPatternQuery):
        return evaluate_query_star(union, query)
    ast = parse_query(query)
    head = ast.projected() if isinstance(ast, SelectQuery) else ()
    return _where_rows(union, translate_group(ast.where), head)


def bench_adaptive(repeat: int) -> List[BenchRecord]:
    """Adaptive strategy vs every fixed baseline, per workload.

    Two hard assertions per workload (so the regression gate can never
    pass on wrong plans): every strategy returns exactly the
    single-graph answer set, and the adaptive plan is not
    Pareto-dominated by any fixed strategy — never strictly worse on
    messages *and* transfer units simultaneously.
    """
    three = federated_rps(peers=3, entities=20, facts=60, seed=7)
    five = federated_rps(peers=5, entities=40, facts=150, seed=11)
    workloads: List[Tuple[str, RPS, Any]] = [
        ("path2@3p", three, federated_path_query(hops=2)),
        ("selective@3p", three, federated_selective_query(entity=3, hops=2)),
        ("union_filter@3p", three, federated_union_filter_sparql()),
        ("path3@5p", five, federated_path_query(hops=3)),
    ]
    records = []
    for label, system, query in workloads:
        executor = FederatedExecutor(system)
        expected = _single_graph_rows(system, query)
        outcomes: Dict[str, Any] = {}
        for strategy in STRATEGIES:

            def run(strategy: str = strategy):
                return executor.execute(query, strategy)

            seconds, result = _best_time(run, repeat)
            if result.rows != expected:
                raise AssertionError(
                    f"adaptive suite {label!r}, strategy {strategy!r}: "
                    f"{len(result.rows)} answers != single-graph "
                    f"{len(expected)}"
                )
            outcomes[strategy] = result
            stats = result.stats
            records.append(
                BenchRecord(
                    name=f"adaptive/{label}:{strategy}",
                    seconds=seconds,
                    meta={
                        "messages": stats.messages,
                        "solutions_transferred": stats.solutions_transferred,
                        "triples_transferred": stats.triples_transferred,
                        "transfer_units": stats.transfer_units,
                        "busy_seconds": stats.busy_seconds,
                        "elapsed_seconds": stats.elapsed_seconds,
                        "results": len(result.rows),
                    },
                )
            )
        chosen = outcomes[ADAPTIVE].stats
        for strategy in FIXED_STRATEGIES:
            other = outcomes[strategy].stats
            if (
                chosen.messages > other.messages
                and chosen.transfer_units > other.transfer_units
            ):
                raise AssertionError(
                    f"adaptive plan on {label!r} is dominated by "
                    f"{strategy!r}: messages {chosen.messages} > "
                    f"{other.messages} and transfer {chosen.transfer_units} "
                    f"> {other.transfer_units}"
                )
    return records


def bench_parallel(repeat: int) -> List[BenchRecord]:
    """The overlap-aware parallel mode vs the serial adaptive plan.

    Per workload both modes must return exactly the single-graph answer
    set, and the parallel makespan (``elapsed_seconds``) may never
    exceed the serial one — the runtime exists to overlap, so losing
    wall clock to it is a regression, asserted hard here and re-checked
    by the CI gate.  The exclusive-group workload must additionally
    ship strictly fewer messages in parallel mode (the fused
    endpoint-side sub-query answers two conjuncts in one round trip).
    """
    three = federated_rps(peers=3, entities=20, facts=60, seed=7)
    five = federated_rps(peers=5, entities=40, facts=150, seed=11)
    workloads: List[Tuple[str, RPS, Any]] = [
        ("path2@3p", three, federated_path_query(hops=2)),
        ("union_filter@3p", three, federated_union_filter_sparql()),
        ("exclusive@3p", three, federated_exclusive_query(hops=1)),
        ("path3@5p", five, federated_path_query(hops=3)),
    ]
    records = []
    for label, system, query in workloads:
        executor = FederatedExecutor(system)
        expected = _single_graph_rows(system, query)
        outcomes: Dict[str, Any] = {}
        for strategy in (ADAPTIVE, PARALLEL):

            def run(strategy: str = strategy):
                return executor.execute(query, strategy)

            seconds, result = _best_time(run, repeat)
            if result.rows != expected:
                raise AssertionError(
                    f"parallel suite {label!r}, strategy {strategy!r}: "
                    f"{len(result.rows)} answers != single-graph "
                    f"{len(expected)}"
                )
            outcomes[strategy] = result
            stats = result.stats
            mode = "serial" if strategy == ADAPTIVE else "parallel"
            records.append(
                BenchRecord(
                    name=f"parallel/{label}:{mode}",
                    seconds=seconds,
                    meta={
                        "messages": stats.messages,
                        "solutions_transferred": stats.solutions_transferred,
                        "triples_transferred": stats.triples_transferred,
                        "transfer_units": stats.transfer_units,
                        "busy_seconds": stats.busy_seconds,
                        "elapsed_seconds": stats.elapsed_seconds,
                        "results": len(result.rows),
                    },
                )
            )
        serial = outcomes[ADAPTIVE].stats
        overlapped = outcomes[PARALLEL].stats
        if overlapped.elapsed_seconds > serial.elapsed_seconds + 1e-9:
            raise AssertionError(
                f"parallel mode on {label!r} lost wall clock: elapsed "
                f"{overlapped.elapsed_seconds:.6f}s > serial "
                f"{serial.elapsed_seconds:.6f}s"
            )
        if label.startswith("exclusive") and (
            overlapped.messages >= serial.messages
        ):
            raise AssertionError(
                f"exclusive groups on {label!r} must cut messages: "
                f"parallel {overlapped.messages} >= serial "
                f"{serial.messages}"
            )
    return records


#: Network parameters of the streaming suite's deep workloads: cheap
#: round trips, expensive transfer.  This prices consecutive bound
#: joins cheaper than shipping or pulling whole relations, so the plans
#: actually produce the multi-batch pipelines the suite measures.
STREAMING_NETWORK = dict(
    latency_seconds=0.01,
    per_solution_seconds=0.01,
    per_triple_seconds=0.05,
)


def bench_streaming(repeat: int) -> List[BenchRecord]:
    """Pipelined bound-join batches vs PR 4's wave barriers.

    Each workload runs the parallel mode twice — ``streaming=False``
    (every batch waits for the entire upstream step) and
    ``streaming=True`` (each batch depends only on the requests that
    produced its rows).  Four hard assertions per workload: both modes
    return exactly the single-graph answer set, message counts and
    transferred solutions are identical (the same rows travel in the
    same envelopes), and the pipelined makespan never exceeds the
    wave-barrier one.  Across the suite at least one workload must show
    a *strict* makespan win, and the two ``optional`` workloads double
    as the federated-OPTIONAL equivalence check against the
    single-graph evaluator.
    """
    three = federated_rps(peers=3, entities=20, facts=60, seed=7)
    five = federated_rps(peers=5, entities=40, facts=150, seed=11)
    # Sparse system: some optional extensions miss, so the LeftJoin's
    # keep-unmatched path is exercised, not just the extend path.
    sparse = federated_rps(peers=3, entities=30, facts=25, seed=13)
    deep_net = NetworkModel(**STREAMING_NETWORK)
    workloads: List[Tuple[str, RPS, Any, Optional[NetworkModel], int]] = [
        ("deep_sel@3p", three, federated_selective_query(entity=3, hops=3),
         deep_net, 1),
        ("deep_sel@5p", five, federated_selective_query(entity=3, hops=3),
         deep_net, 1),
        ("optional@3p", sparse, federated_optional_sparql(), None, 1),
        ("optional_filter@3p", sparse, federated_optional_filter_sparql(),
         None, 1),
    ]
    records = []
    strict_win = False
    for label, system, query, network, batch_size in workloads:
        expected = _single_graph_rows(system, query)
        outcomes: Dict[str, Any] = {}
        for mode, streaming in (("wave", False), ("pipelined", True)):
            executor = FederatedExecutor(
                system,
                network=network,
                batch_size=batch_size,
                concurrency=4,
                streaming=streaming,
            )

            def run(executor: FederatedExecutor = executor):
                return executor.execute(query, PARALLEL)

            seconds, result = _best_time(run, repeat)
            if result.rows != expected:
                raise AssertionError(
                    f"streaming suite {label!r}, mode {mode!r}: "
                    f"{len(result.rows)} answers != single-graph "
                    f"{len(expected)}"
                )
            outcomes[mode] = result
            stats = result.stats
            records.append(
                BenchRecord(
                    name=f"streaming/{label}:{mode}",
                    seconds=seconds,
                    meta={
                        "messages": stats.messages,
                        "solutions_transferred": stats.solutions_transferred,
                        "triples_transferred": stats.triples_transferred,
                        "busy_seconds": stats.busy_seconds,
                        "elapsed_seconds": stats.elapsed_seconds,
                        "results": len(result.rows),
                    },
                )
            )
        wave = outcomes["wave"].stats
        pipelined = outcomes["pipelined"].stats
        if (
            pipelined.messages != wave.messages
            or pipelined.solutions_transferred != wave.solutions_transferred
        ):
            raise AssertionError(
                f"streaming on {label!r} changed the traffic: "
                f"{pipelined.messages} msgs/{pipelined.solutions_transferred}"
                f" sols vs wave {wave.messages}/{wave.solutions_transferred}"
            )
        if pipelined.elapsed_seconds > wave.elapsed_seconds + 1e-9:
            raise AssertionError(
                f"pipelining on {label!r} lost wall clock: "
                f"{pipelined.elapsed_seconds:.6f}s > wave "
                f"{wave.elapsed_seconds:.6f}s"
            )
        if pipelined.elapsed_seconds < wave.elapsed_seconds - 1e-9:
            strict_win = True
    if not strict_win:
        raise AssertionError(
            "streaming suite: no workload showed a strict pipelining win "
            "(pipelined elapsed < wave elapsed)"
        )
    return records


#: Workload labels of the ``limit`` suite.  The ``deep_*`` and ``ask``
#: workloads are deep multi-batch bound-join pipelines where demand
#: propagation must show a *strict* message and makespan win; ``topk``
#: orders before slicing, so it legitimately drains fully and only the
#: never-worse bound applies.
LIMIT_WORKLOADS = ("deep_bound@3p", "deep_pipelined@3p", "topk@3p", "ask@3p")


def bench_limit(repeat: int) -> List[BenchRecord]:
    """Early termination: modifier-capped runs vs their unlimited twins.

    Every workload executes the same WHERE clause twice — once with a
    solution modifier (``LIMIT 10``, ``ORDER BY … LIMIT``, ``ASK``) and
    once bare — under the strategy named in its label.  Hard
    assertions, re-checked by the CI gate from the recorded metas: the
    unlimited run reproduces the single-graph answer set exactly; the
    limited answers are a correct window of it (exact for the ordered
    top-k, presence/absence for ASK); the limited run never ships more
    messages; and on the deep multi-batch workloads it ships strictly
    fewer messages *and* finishes strictly earlier — the pipeline
    demonstrably stopped, it did not just throw rows away.
    """
    three = federated_rps(peers=3, entities=20, facts=60, seed=7)
    union = three.stored_database()
    network = NetworkModel(**STREAMING_NETWORK)
    # (label, strategy, unlimited text, limited text, deep?)
    workloads: List[Tuple[str, str, str, str, bool]] = [
        ("deep_bound@3p", "bound",
         federated_limit_sparql(hops=3),
         federated_limit_sparql(hops=3, limit=10), True),
        ("deep_pipelined@3p", PARALLEL,
         federated_limit_sparql(hops=3, anchor=3),
         federated_limit_sparql(hops=3, limit=10, anchor=3), True),
        ("topk@3p", PARALLEL,
         federated_limit_sparql(hops=2),
         federated_topk_sparql(hops=2, limit=5), False),
        ("ask@3p", "bound",
         federated_limit_sparql(hops=3),
         federated_ask_sparql(hops=3), True),
    ]
    records = []
    for label, strategy, unlimited_text, limited_text, deep in workloads:
        executor = FederatedExecutor(
            three, network=network, batch_size=1, concurrency=4
        )
        expected = _single_graph_rows(three, unlimited_text)
        outcomes: Dict[str, Any] = {}
        for kind, text in (
            ("unlimited", unlimited_text),
            ("limited", limited_text),
        ):

            def run(text: str = text):
                return executor.execute(text, strategy)

            seconds, result = _best_time(run, repeat)
            outcomes[kind] = result
            stats = result.stats
            records.append(
                BenchRecord(
                    name=f"limit/{label}:{kind}",
                    seconds=seconds,
                    meta={
                        "strategy": strategy,
                        "messages": stats.messages,
                        "solutions_transferred": stats.solutions_transferred,
                        "triples_transferred": stats.triples_transferred,
                        "busy_seconds": stats.busy_seconds,
                        "elapsed_seconds": stats.elapsed_seconds,
                        "results": len(result.rows),
                    },
                )
            )
        if outcomes["unlimited"].rows != expected:
            raise AssertionError(
                f"limit suite {label!r}: unlimited run returned "
                f"{len(outcomes['unlimited'].rows)} answers, single-graph "
                f"has {len(expected)}"
            )
        limited_rows = outcomes["limited"].rows
        if label.startswith("ask"):
            if bool(limited_rows) != bool(expected):
                raise AssertionError(
                    f"limit suite {label!r}: ASK answered "
                    f"{bool(limited_rows)}, single-graph says "
                    f"{bool(expected)}"
                )
        elif label.startswith("topk"):
            oracle = set(reference_select(union, parse_query(limited_text)))
            if limited_rows != oracle:
                raise AssertionError(
                    f"limit suite {label!r}: top-k answers diverge from "
                    f"the reference window ({len(limited_rows)} vs "
                    f"{len(oracle)})"
                )
        else:
            if len(limited_rows) != 10 or not limited_rows <= expected:
                raise AssertionError(
                    f"limit suite {label!r}: limited run is not a 10-row "
                    f"window of the full answer set "
                    f"({len(limited_rows)} rows)"
                )
        cut = outcomes["limited"].stats
        full = outcomes["unlimited"].stats
        if cut.messages > full.messages:
            raise AssertionError(
                f"limit suite {label!r}: the capped run shipped MORE "
                f"messages: {cut.messages} > {full.messages}"
            )
        if deep:
            if cut.messages >= full.messages:
                raise AssertionError(
                    f"limit suite {label!r}: no strict message win "
                    f"({cut.messages} >= {full.messages}); demand did not "
                    f"stop the pipeline"
                )
            if cut.elapsed_seconds >= full.elapsed_seconds - 1e-9:
                raise AssertionError(
                    f"limit suite {label!r}: no strict makespan win "
                    f"({cut.elapsed_seconds:.6f}s >= "
                    f"{full.elapsed_seconds:.6f}s)"
                )
    return records


def bench_faults(repeat: int) -> List[BenchRecord]:
    """Deterministic fault injection, recovery, and flagged degradation.

    Each scenario runs the same 3-peer path query twice — fault-free
    and under a seeded :class:`~repro.federation.faults.FaultModel` —
    emitting a ``:faultfree``/``:faulty`` record pair.  The scenarios
    cover transient flakiness (serial and parallel mode), a scripted
    outage window the retry budget outlives, an endpoint blackout
    rescued by a configured replica, and the same blackout with no
    replica.  Hard assertions per scenario:

    * the fault-free twin returns exactly the single-graph answer set
      and carries no partial flag;
    * the injected faults actually fired (``failures + timeouts > 0``);
    * *recoverable* scenarios return exactly the fault-free answer set
      with no partial flag, and every retry's backoff is visible in the
      makespan (``faulty elapsed > fault-free elapsed``);
    * the *unrecoverable* blackout comes back flagged partial naming
      exactly the dead endpoint, and its answers are a subset of the
      fault-free set — degraded, never silently wrong;
    * retry traffic respects the budget: faulty ``messages`` never
      exceed ``faultfree messages * (1 + max_retries) * (1 + replicas)``.
    """
    three = federated_rps(peers=3, entities=20, facts=60, seed=7)
    query = federated_path_query()
    expected = _single_graph_rows(three, query)
    flaky = flaky_fault_model(
        "peer1", failure_rate=0.3, timeout_rate=0.1, seed=15
    )
    blackout = blackout_fault_model("peer1")
    scenarios: List[
        Tuple[str, str, Any, RetryPolicy, Optional[Dict[str, int]], bool]
    ] = [
        ("flaky@3p", ADAPTIVE, flaky, RetryPolicy(max_retries=8), None, True),
        ("flaky_parallel@3p", PARALLEL, flaky, RetryPolicy(max_retries=8),
         None, True),
        ("outage@3p", ADAPTIVE,
         outage_fault_model("peer1", start=0.0, end=0.12, seed=0),
         RetryPolicy(max_retries=8, backoff_seconds=0.05), None, True),
        ("failover@3p", ADAPTIVE, blackout, RetryPolicy(max_retries=1),
         {"peer1": 1}, True),
        ("blackout@3p", ADAPTIVE, blackout, RetryPolicy(max_retries=1),
         None, False),
    ]
    records = []
    for label, strategy, model, policy, replicas, recoverable in scenarios:
        replica_count = sum((replicas or {}).values())
        outcomes: Dict[str, Any] = {}
        for mode, fault_model in (("faultfree", None), ("faulty", model)):
            executor = FederatedExecutor(
                three,
                fault_model=fault_model,
                retry_policy=policy,
                replicas=replicas if fault_model is not None else None,
            )

            def run(executor: FederatedExecutor = executor):
                return executor.execute(query, strategy)

            seconds, result = _best_time(run, repeat)
            outcomes[mode] = result
            stats = result.stats
            meta = {
                "messages": stats.messages,
                "solutions_transferred": stats.solutions_transferred,
                "triples_transferred": stats.triples_transferred,
                "busy_seconds": stats.busy_seconds,
                "elapsed_seconds": stats.elapsed_seconds,
                "results": len(result.rows),
                "retries": stats.retries,
                "failures": stats.failures,
                "timeouts": stats.timeouts,
                "failovers": stats.failovers,
                "partial": int(result.partial is not None),
                "unreachable": (
                    len(result.partial.endpoints()) if result.partial else 0
                ),
                "recoverable": int(recoverable),
            }
            if mode == "faulty":
                meta["retry_budget"] = (
                    outcomes["faultfree"].stats.messages
                    * (1 + policy.max_retries)
                    * (1 + replica_count)
                )
            records.append(
                BenchRecord(
                    name=f"faults/{label}:{mode}", seconds=seconds, meta=meta
                )
            )
        faultfree, faulty = outcomes["faultfree"], outcomes["faulty"]
        if faultfree.rows != expected or faultfree.partial is not None:
            raise AssertionError(
                f"faults suite {label!r}: fault-free twin diverged from the "
                f"single-graph answer set or carries a partial flag"
            )
        ffs, fs = faultfree.stats, faulty.stats
        if fs.failures + fs.timeouts == 0:
            raise AssertionError(
                f"faults suite {label!r}: no injected fault fired — the "
                f"scenario exercises nothing"
            )
        budget = ffs.messages * (1 + policy.max_retries) * (1 + replica_count)
        if fs.messages > budget:
            raise AssertionError(
                f"faults suite {label!r}: {fs.messages} messages exceed the "
                f"retry budget {budget}"
            )
        if recoverable:
            if faulty.rows != expected or faulty.partial is not None:
                raise AssertionError(
                    f"faults suite {label!r}: recoverable run did not return "
                    f"the fault-free answers unflagged "
                    f"({len(faulty.rows)} rows, partial={faulty.partial})"
                )
            if fs.retries and fs.elapsed_seconds <= ffs.elapsed_seconds + 1e-9:
                raise AssertionError(
                    f"faults suite {label!r}: {fs.retries} retries with "
                    f"backoff left the makespan unchanged "
                    f"({fs.elapsed_seconds:.6f}s vs fault-free "
                    f"{ffs.elapsed_seconds:.6f}s)"
                )
        else:
            if faulty.partial is None:
                raise AssertionError(
                    f"faults suite {label!r}: unrecoverable run came back "
                    f"unflagged — a silently wrong subset"
                )
            if faulty.partial.endpoints() != ("peer1",):
                raise AssertionError(
                    f"faults suite {label!r}: partial answer names "
                    f"{faulty.partial.endpoints()}, expected ('peer1',)"
                )
            if any(row not in expected for row in faulty.rows):
                raise AssertionError(
                    f"faults suite {label!r}: partial answers are not a "
                    f"subset of the fault-free answer set"
                )
        if label == "failover@3p" and fs.failovers < 1:
            raise AssertionError(
                "faults suite 'failover@3p': blackout with a replica "
                "recovered without recording a failover"
            )
    return records


def bench_obs(repeat: int) -> List[BenchRecord]:
    """Telemetry overhead and determinism: tracing off vs fully on.

    Each record runs the same 3-peer federated path query in two
    configurations — with the shared ``NULL_TRACER`` (the production
    default) and fully instrumented (a live
    :class:`~repro.obs.Tracer` plus ``analyze=True``, every operator
    counting actuals) — once under the serial adaptive strategy and
    once on the parallel runtime.  ``seconds`` times the disabled run
    and ``baseline_seconds`` the instrumented one, so the recorded
    ``speedup`` is the full-telemetry overhead factor; the CI gate's
    per-suite speedup check then bounds how much overhead the
    *disabled* path may silently grow relative to the committed
    baseline.  Hard assertions, re-checked by the gate from the
    recorded metas: instrumentation never perturbs the execution
    (identical answer set and message count with tracing on and off),
    the exported Chrome ``trace_event`` document validates, the
    virtual-domain export and the ``explain(analyze=True)`` text are
    byte-identical across repeated seeded runs, and the traced run
    actually collects spans.  Each record also embeds the executor's
    cumulative :meth:`~repro.federation.executor.FederatedExecutor.
    metrics` registry snapshot under ``meta["metrics"]``.
    """
    three = federated_rps(peers=3, entities=20, facts=60, seed=7)
    query = federated_path_query(hops=2)
    executor = FederatedExecutor(three)
    expected = _single_graph_rows(three, query)
    records = []
    for label, strategy in (
        ("serial@3p", ADAPTIVE),
        ("runtime@3p", PARALLEL),
    ):

        def plain(strategy: str = strategy):
            return executor.execute(query, strategy)

        def traced(strategy: str = strategy):
            tracer = Tracer()
            result = executor.execute(
                query, strategy, tracer=tracer, analyze=True
            )
            return result, tracer

        plain_result = plain()
        if plain_result.rows != expected:
            raise AssertionError(
                f"obs suite {label!r}: untraced run diverged from the "
                f"single-graph answer set"
            )
        exports: List[str] = []
        explains: List[str] = []
        span_counts: List[int] = []
        for _ in range(2):
            result, tracer = traced()
            if result.rows != expected:
                raise AssertionError(
                    f"obs suite {label!r}: instrumented run diverged "
                    f"from the single-graph answer set"
                )
            if result.stats.messages != plain_result.stats.messages:
                raise AssertionError(
                    f"obs suite {label!r}: tracing perturbed the "
                    f"execution: {result.stats.messages} messages vs "
                    f"{plain_result.stats.messages} untraced"
                )
            document = chrome_trace_events(tracer, domain="virtual")
            problems = validate_trace_events(document)
            if problems:
                raise AssertionError(
                    f"obs suite {label!r}: exported trace is not a "
                    f"valid trace_event document: {problems[:3]}"
                )
            exports.append(json.dumps(document, sort_keys=True))
            span_counts.append(sum(1 for _ in tracer.spans()))
            explains.append(
                executor.explain(query, strategy=strategy, analyze=True)
            )
        if len(set(exports)) != 1:
            raise AssertionError(
                f"obs suite {label!r}: virtual-domain trace export is "
                f"not byte-identical across repeated seeded runs"
            )
        if len(set(explains)) != 1:
            raise AssertionError(
                f"obs suite {label!r}: explain(analyze=True) is not "
                f"byte-identical across repeated seeded runs"
            )
        if not span_counts[0]:
            raise AssertionError(
                f"obs suite {label!r}: instrumented run collected no "
                f"spans"
            )
        disabled_seconds, disabled_rows = _best_time(
            lambda: len(plain().rows), repeat
        )
        traced_seconds, traced_rows = _best_time(
            lambda: len(traced()[0].rows), repeat
        )
        if disabled_rows != traced_rows:
            raise AssertionError(
                f"obs suite {label!r}: timed runs disagree on the "
                f"answer cardinality ({disabled_rows} vs {traced_rows})"
            )
        records.append(
            BenchRecord(
                name=f"obs/{label}",
                seconds=disabled_seconds,
                baseline_seconds=traced_seconds,
                speedup=traced_seconds / max(disabled_seconds, 1e-12),
                meta={
                    "results": len(plain_result.rows),
                    "messages": plain_result.stats.messages,
                    "span_count": span_counts[0],
                    "trace_valid": 1,
                    "trace_stable": 1,
                    "analyze_stable": 1,
                    "metrics": executor.metrics().snapshot(),
                },
            )
        )
    return records


#: AIMD controller settings of the concurrency suite's adaptive variant
#: (the determinism tests pin the same configuration).
CONCURRENCY_CONTROL = AimdSettings(epoch=3, start_window=2, max_window=16)

#: Fixed per-endpoint in-flight windows the adaptive variant is gated
#: against, and the offered-load points (tenant counts) they run at.
CONCURRENCY_WINDOWS = (1, 2, 8)
CONCURRENCY_LOADS = (2, 4, 8)


def bench_concurrency(repeat: int) -> List[BenchRecord]:
    """Multi-tenant concurrent execution under adaptive concurrency.

    All records share one 3-peer system and a single-lane,
    ``batch_size=1`` executor under the ``bound`` strategy: every
    bound join becomes a burst of small per-binding requests, the
    regime where per-endpoint queues actually interleave tenants and
    queue discipline / window control reorder traffic.  Two record
    groups:

    * ``concurrency/load{N}:*`` — a seeded mixed workload of N tenants
      (N = 2/4/8 offered-load points) runs under weighted round-robin
      with each fixed in-flight window (``:w1``/``:w2``/``:w8``) and
      with the AIMD controller (``:adaptive``, window control inside
      the replay plus one batch re-planning round).  Metas record the
      throughput (queries per simulated second), the p95 and overall
      makespans (gated, in integer microseconds) and the controller's
      adjustment count.
    * ``concurrency/skew:fifo|wrr`` — the skewed workload (one tenant
      flooding the endpoints, three light anchored queries) under both
      backlog disciplines at a tight window.  The gated
      ``ratio_x1000`` is the max/min per-tenant *stretch* (shared
      completion time over the tenant's solo elapsed time): FIFO lets
      the flood starve the light tenants, weighted round-robin bounds
      the spread.

    Hard assertions: every tenant's answer set is byte-identical to
    running its query alone on a fresh executor (for every variant,
    every load point); the adaptive variant is byte-deterministic
    (identical per-tenant rows, makespans, message counts and window
    adjustments across a repeated run); adaptive p95 makespan is never
    worse than any fixed window at any load point and strictly better
    on at least one; the adaptive controller actually adjusted at
    least one window somewhere; and WRR's stretch ratio is strictly
    below FIFO's on the skewed workload.  The CI gate re-checks the
    p95/window and fairness claims from the recorded metas.
    """
    system = federated_rps(peers=3, entities=20, facts=120, seed=7)
    network = NetworkModel(**STREAMING_NETWORK)

    def make() -> FederatedExecutor:
        return FederatedExecutor(system, network, batch_size=1, concurrency=1)

    def solo(query):
        return make().execute(query, "bound")

    def signature(result):
        """Byte-level identity of a concurrent run (determinism check)."""
        return (
            tuple(
                (
                    outcome.tenant,
                    tuple(sorted(repr(row) for row in outcome.result.rows)),
                    outcome.makespan,
                    outcome.admission_wait,
                    outcome.result.stats.messages,
                )
                for outcome in result.outcomes
            ),
            tuple(repr(adj) for adj in result.adjustments),
            result.makespan,
            result.batch_size,
        )

    records: List[BenchRecord] = []
    strict_somewhere = False
    adjustments_total = 0
    for load in CONCURRENCY_LOADS:
        workload = tenant_workload(load, seed=11)
        queries = [(t.tenant, t.query) for t in workload]
        solos = {t.tenant: solo(t.query) for t in workload}
        p95_by: Dict[str, float] = {}
        variants: List[Tuple[str, Dict[str, Any]]] = [
            (f"w{w}", {"max_in_flight": w}) for w in CONCURRENCY_WINDOWS
        ]
        variants.append(
            ("adaptive", {"adaptive": True, "control": CONCURRENCY_CONTROL})
        )
        for label, kwargs in variants:

            def run(kwargs: Dict[str, Any] = kwargs):
                return make().execute_concurrent(
                    queries, strategy="bound", discipline="wrr", **kwargs
                )

            seconds, result = _best_time(run, repeat)
            for outcome in result.outcomes:
                if outcome.result.rows != solos[outcome.tenant].rows:
                    raise AssertionError(
                        f"concurrency suite load{load}:{label}: tenant "
                        f"{outcome.tenant!r} answers diverged from its "
                        f"solo execution"
                    )
            if label == "adaptive":
                if signature(run()) != signature(result):
                    raise AssertionError(
                        f"concurrency suite load{load}: adaptive run is "
                        f"not byte-deterministic across repeats"
                    )
                adjustments_total += len(result.adjustments)
            p95 = result.p95_makespan()
            p95_by[label] = p95
            messages = sum(
                o.result.stats.messages for o in result.outcomes
            )
            solutions = sum(
                o.result.stats.solutions_transferred
                for o in result.outcomes
            )
            triples = sum(
                o.result.stats.triples_transferred
                for o in result.outcomes
            )
            busy = sum(
                o.result.stats.busy_seconds for o in result.outcomes
            )
            records.append(
                BenchRecord(
                    name=f"concurrency/load{load}:{label}",
                    seconds=seconds,
                    meta={
                        "tenants": len(result.outcomes),
                        "results": sum(
                            len(o.result.rows) for o in result.outcomes
                        ),
                        "messages": messages,
                        "solutions_transferred": solutions,
                        "triples_transferred": triples,
                        "busy_seconds": busy,
                        "elapsed_seconds": result.makespan,
                        "makespan_us": int(round(result.makespan * 1e6)),
                        "p95_us": int(round(p95 * 1e6)),
                        "throughput": result.throughput(),
                        "adjustments": len(result.adjustments),
                        "rounds": result.rounds,
                        "batch": result.batch_size,
                        "active_peak": result.active_peak,
                    },
                )
            )
        for window in CONCURRENCY_WINDOWS:
            fixed = p95_by[f"w{window}"]
            if p95_by["adaptive"] > fixed + 1e-9:
                raise AssertionError(
                    f"concurrency suite load{load}: adaptive p95 "
                    f"{p95_by['adaptive']:.6f}s is worse than fixed "
                    f"window w{window}'s {fixed:.6f}s"
                )
            if p95_by["adaptive"] < fixed - 1e-9:
                strict_somewhere = True
    if not strict_somewhere:
        raise AssertionError(
            "concurrency suite: adaptive control never strictly beat a "
            "fixed window at any load point"
        )
    if not adjustments_total:
        raise AssertionError(
            "concurrency suite: the AIMD controller never adjusted a "
            "window — the adaptive variant exercises nothing"
        )

    workload = skewed_tenant_workload(light=3, seed=5)
    queries = [(t.tenant, t.query) for t in workload]
    solos = {t.tenant: solo(t.query) for t in workload}
    ratios: Dict[str, float] = {}
    for disciplined in ("fifo", "wrr"):

        def run(discipline: str = disciplined):
            return make().execute_concurrent(
                queries,
                strategy="bound",
                discipline=discipline,
                max_in_flight=2,
            )

        seconds, result = _best_time(run, repeat)
        for outcome in result.outcomes:
            if outcome.result.rows != solos[outcome.tenant].rows:
                raise AssertionError(
                    f"concurrency suite skew:{disciplined}: tenant "
                    f"{outcome.tenant!r} answers diverged from its solo "
                    f"execution"
                )
        stretches = [
            outcome.makespan
            / max(solos[outcome.tenant].stats.elapsed_seconds, 1e-9)
            for outcome in result.outcomes
        ]
        ratio = max(stretches) / min(stretches)
        ratios[disciplined] = ratio
        records.append(
            BenchRecord(
                name=f"concurrency/skew:{disciplined}",
                seconds=seconds,
                meta={
                    "tenants": len(result.outcomes),
                    "results": sum(
                        len(o.result.rows) for o in result.outcomes
                    ),
                    "messages": sum(
                        o.result.stats.messages for o in result.outcomes
                    ),
                    "solutions_transferred": sum(
                        o.result.stats.solutions_transferred
                        for o in result.outcomes
                    ),
                    "triples_transferred": sum(
                        o.result.stats.triples_transferred
                        for o in result.outcomes
                    ),
                    "busy_seconds": sum(
                        o.result.stats.busy_seconds
                        for o in result.outcomes
                    ),
                    "elapsed_seconds": result.makespan,
                    "makespan_us": int(round(result.makespan * 1e6)),
                    "p95_us": int(round(result.p95_makespan() * 1e6)),
                    "throughput": result.throughput(),
                    "ratio_x1000": int(round(ratio * 1000)),
                },
            )
        )
    if ratios["wrr"] >= ratios["fifo"]:
        raise AssertionError(
            f"concurrency suite skew: weighted round-robin did not bound "
            f"the stretch spread (wrr {ratios['wrr']:.3f} vs fifo "
            f"{ratios['fifo']:.3f})"
        )
    return records


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def build_report(
    scale: int = DEFAULT_SCALE,
    repeat: int = 3,
    peers: int = 6,
) -> Dict[str, Any]:
    """Run every suite once and return the report dict."""
    build_start = time.perf_counter()
    graph = _workload_graph(scale)
    build_new = time.perf_counter() - build_start
    build_start = time.perf_counter()
    baseline = BaselineGraph(graph)
    build_base = time.perf_counter() - build_start

    records: List[BenchRecord] = []
    records.extend(bench_pattern_match(graph, baseline, repeat))
    records.extend(bench_gpq_join(graph, baseline, repeat))
    records.extend(bench_chase(repeat, peers=peers))
    records.extend(bench_sparql(graph, repeat))
    records.extend(bench_columnar(graph, repeat))
    records.extend(bench_federation(repeat))
    records.extend(bench_adaptive(repeat))
    records.extend(bench_parallel(repeat))
    records.extend(bench_streaming(repeat))
    records.extend(bench_limit(repeat))
    records.extend(bench_faults(repeat))
    records.extend(bench_obs(repeat))
    records.extend(bench_concurrency(repeat))

    return {
        "suite": "core",
        "scale": scale,
        "repeat": repeat,
        "peers": peers,
        "graph_triples": len(graph),
        "build_seconds": {"encoded": build_new, "baseline": build_base},
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "created_unix": time.time(),
        "benchmarks": [r.as_dict() for r in records],
    }


def run_all(
    scale: int = DEFAULT_SCALE,
    repeat: int = 3,
    out: Optional[str] = DEFAULT_OUT,
    peers: int = 6,
    smoke: bool = False,
) -> Dict[str, Any]:
    """Run every suite and (optionally) write the JSON report.

    Args:
        scale: triple count of the pattern/join workload graph.
        repeat: timing repetitions (best-of).
        out: report path, or ``None`` to skip writing.
        peers: peer count for the chase suite.
        smoke: additionally run the suites at the fixed smoke scale and
            attach that report under the ``smoke`` key — the committed
            baselines the CI regression gate compares against.

    Returns:
        The report dict (also written to ``out`` when given).
    """
    report = build_report(scale=scale, repeat=repeat, peers=peers)
    if smoke:
        report["smoke"] = build_report(
            scale=SMOKE_SCALE, repeat=SMOKE_REPEAT, peers=SMOKE_PEERS
        )
    if out:
        write_report(report, out)
    return report


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_summary(report: Dict[str, Any]) -> str:
    """Human-readable one-line-per-benchmark summary for the CLI."""
    lines = [
        f"suite=core scale={report['scale']} "
        f"triples={report['graph_triples']} repeat={report['repeat']}"
    ]
    for row in report["benchmarks"]:
        base = row.get("baseline_seconds")
        meta = row.get("meta", {})
        if base is not None:
            extra = f"  baseline={base:.4f}s  speedup={row['speedup']:.2f}x"
        elif "messages" in meta:
            busy = meta["busy_seconds"]
            extra = (
                f"  messages={meta['messages']}"
                f"  solutions={meta['solutions_transferred']}"
                f"  triples={meta['triples_transferred']}"
                f"  busy={busy:.4f}s"
            )
            if "elapsed_seconds" in meta:
                extra += f"  elapsed={meta['elapsed_seconds']:.4f}s"
        else:
            extra = ""
        lines.append(f"{row['name']:<26} {row['seconds']:.4f}s{extra}")
    return "\n".join(lines)
