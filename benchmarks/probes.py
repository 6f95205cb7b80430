"""Per-layer probes of the traced run.

Each function calls one layer's public functions under the benchmark's
own spans (:class:`harness.Spans`) and returns metrics named
``<layer>.<what>``.  The inputs are the workload's own: its graph, its
texts, its prepared queries, the answer lists its endpoints return.
Probes repeat ``REPEAT`` times and report medians; they never run
inside a timed op.
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Dict, Iterable, List, Sequence

from harness import Spans
from repro.federation import EndpointStats
from repro.federation.bindings import (
    canonical,
    dedupe,
    hash_join,
    left_join,
    project,
)
from repro.obs import Tracer, chrome_trace_events
from repro.rdf import Graph
from repro.runtime import OverlapScheduler, QueryScheduler, SimKernel
from repro.sparql.algebra import translate_group
from repro.sparql.batch import build_batch_plan
from repro.sparql.bridge import sparql_to_branches
from repro.sparql.engine import execute, plan_cache_stats
from repro.sparql.parser import parse_query

REPEAT = 3
#: Federated/local pairs per text of :func:`overhead_probes`.
INTERLEAVED = 5


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when there is no whole."""
    return part / whole if whole else 0.0


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of the positive values (0 when there are none)."""
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def op_ms(spans: Spans, op_name: str) -> float:
    """Median latency of one op over the span-recording rounds."""
    return spans.median_ms(f"op.{op_name}")


def us_each(spans: Spans, name: str, count: int) -> float:
    """Median of the spans called ``name``, in microseconds per item."""
    return ratio(spans.median_ms(name) * 1e3, count)


# -- rdf ------------------------------------------------------------------


def rdf_probes(spans: Spans, graph: Graph, seed: int) -> Dict[str, float]:
    """Build rate, index match and count cost on seeded probe sets."""
    triples = list(graph)[:50_000]
    for _ in range(REPEAT):
        with spans.span("rdf.build"):
            Graph(triples)
    rng = random.Random(seed)
    id_triples = list(graph.triples_ids())
    shapes = []
    for s, p, o in rng.sample(id_triples, min(2000, len(id_triples))):
        shapes.extend([(s, p, None), (None, p, o), (s, None, None)])
    for _ in range(REPEAT):
        with spans.span("rdf.match"):
            for s, p, o in shapes:
                for _ in graph.triples_ids(s, p, o):
                    pass
        with spans.span("rdf.count"):
            for s, p, o in shapes:
                graph.count_ids(s, p, o)
    build = statistics.median(spans.durations("rdf.build"))
    return {
        "rdf.build.triples_per_s": ratio(len(triples), build),
        "rdf.match.us": us_each(spans, "rdf.match", len(shapes)),
        "rdf.count.us": us_each(spans, "rdf.count", len(shapes)),
        "rdf.dictionary.terms": len(graph.dictionary),
    }


# -- sparql ---------------------------------------------------------------


def sparql_front_probes(
    spans: Spans, texts: Sequence[str]
) -> Dict[str, float]:
    """Parse, algebra translation and DNF branches, per text."""
    for text in texts:
        for _ in range(REPEAT):
            with spans.span("sparql.parse"):
                ast = parse_query(text)
            with spans.span("sparql.normalise"):
                translate_group(ast.where)
            with spans.span("sparql.branches"):
                sparql_to_branches(ast)
    return {
        "sparql.parse.ms": spans.median_ms("sparql.parse"),
        "sparql.normalise.ms": spans.median_ms("sparql.normalise"),
        "sparql.branches.ms": spans.median_ms("sparql.branches"),
    }


def sparql_engine_probes(
    spans: Spans,
    graph: Graph,
    batch_texts: Dict[str, str],
    row_texts: Dict[str, str],
) -> Dict[str, float]:
    """Plan, batch execution, result finishing and the row engine.

    ``sparql.finish.ms`` is the hot-cache engine wall of the batch
    texts minus their ``BatchOp.execute`` time: building id rows, the
    canonical sort and decoding.  Times are summed over the texts.
    """
    batch_total = finish_total = row_total = 0.0
    rows_out = 0
    for name, text in batch_texts.items():
        node = translate_group(parse_query(text).where)
        for _ in range(REPEAT):
            with spans.span("sparql.plan"):
                plan = build_batch_plan(graph, node)
            with spans.span(f"sparql.batch.execute.{name}"):
                plan.execute()
            with spans.span(f"sparql.engine.{name}"):
                result = execute(graph, text)
        rows_out += len(result.rows)
        batch = spans.median_ms(f"sparql.batch.execute.{name}")
        batch_total += batch
        finish_total += spans.median_ms(f"sparql.engine.{name}") - batch
    for name, text in row_texts.items():
        for _ in range(REPEAT):
            with spans.span(f"sparql.row.{name}"):
                execute(graph, text)
        row_total += spans.median_ms(f"sparql.row.{name}")
    cache = plan_cache_stats()
    lookups = cache["hits"] + cache["misses"]
    return {
        "sparql.plan.ms": spans.median_ms("sparql.plan"),
        "sparql.batch.execute.ms": batch_total,
        "sparql.finish.ms": finish_total,
        "sparql.row.execute.ms": row_total,
        "sparql.rows_out": rows_out,
        "sparql.plan_cache.hit_ratio": ratio(cache["hits"], lookups),
    }


# -- federation -----------------------------------------------------------


def endpoint_answers(executor, patterns, bindings: List[dict]) -> List[dict]:
    """Extend ``bindings`` through ``patterns`` at the endpoints alone."""
    for pattern in patterns:
        found: List[dict] = []
        for endpoint in executor.endpoints:
            if endpoint.count_pattern(pattern):
                found.extend(endpoint.bound_solutions(pattern, bindings))
        bindings = found
    return bindings


def federation_probes(
    spans: Spans,
    executor,
    probe_texts: Dict[str, str],
    cold_texts: Sequence[str],
    strategies: Sequence[str],
) -> Dict[str, float]:
    """Prepare, cost model, every strategy, endpoints, coordinator."""
    cache = executor.plan_cache.stats()
    executor.plan_cache.clear()  # so that every text below is new to it
    for text in cold_texts:
        with spans.span("federation.prepare.cold"):
            executor.prepare(text)
    prepared = {n: executor.prepare(t) for n, t in probe_texts.items()}
    out: Dict[str, float] = {}
    for strategy in strategies:
        total = 0.0
        for name, query in prepared.items():
            span = f"federation.execute.{strategy}.{name}"
            for _ in range(REPEAT):
                with spans.span(span):
                    executor.execute(query, strategy)
            total += spans.median_ms(span)
        out[f"federation.execute.{strategy}.ms"] = total
    # The same conjuncts sent straight to the endpoints: what is left
    # of the ``bound`` wall is the coordinator's share.
    endpoint_total = 0.0
    for name, query in prepared.items():
        span = f"federation.endpoint.{name}"
        for _ in range(REPEAT):
            with spans.span(span):
                for branch in query.branches:
                    endpoint_answers(executor, branch.patterns, [{}])
        endpoint_total += spans.median_ms(span)
    bound_total = out.get("federation.execute.bound.ms", 0.0)
    pattern = next(iter(prepared.values())).branches[0].patterns[0]
    stats = [
        EndpointStats(
            endpoint.name,
            endpoint.count_pattern(pattern),
            endpoint.count_relation(pattern),
        )
        for endpoint in executor.endpoints
    ]
    decisions = 2000
    for _ in range(REPEAT):
        with spans.span("federation.cost.decide"):
            for _ in range(decisions):
                executor.cost_model.decide(
                    pattern, stats, bindings=100, bound_positions=1
                )
    cold = spans.median_ms("federation.prepare.cold")
    decide = us_each(spans, "federation.cost.decide", decisions)
    lookups = cache["hits"] + cache["misses"]
    coordinator = 1.0 - ratio(endpoint_total, bound_total)
    out.update(
        {
            "federation.prepare.cold.ms": cold,
            "federation.prepare.hit_ratio": ratio(cache["hits"], lookups),
            "federation.cost.decide.us": decide,
            "federation.endpoint.ms": endpoint_total,
            "federation.coordinator_share": coordinator,
        }
    )
    return out


def bindings_probes(
    spans: Spans, executor, join_text: str, optional_text: str
) -> Dict[str, float]:
    """The ID-binding plumbing on the endpoints' real answer lists.

    ``join_text`` is a two-conjunct path, ``optional_text`` a required
    conjunct plus one OPTIONAL conjunct; each conjunct's full answer
    list comes from the endpoint that owns its predicate.
    """
    join = executor.prepare(join_text)
    first, second = join.branches[0].patterns[:2]
    left = endpoint_answers(executor, [first], [{}])
    right = endpoint_answers(executor, [second], [{}])
    optional = executor.prepare(optional_text).branches[0]
    extension_pattern = optional.optionals[0].branches[0][0][0]
    required = endpoint_answers(executor, optional.patterns[:1], [{}])
    extension = endpoint_answers(executor, [extension_pattern], [{}])
    prefix = "federation.bindings"
    joined: List[dict] = []
    for _ in range(REPEAT):
        with spans.span(f"{prefix}.canonical"):
            for binding in left:
                canonical(binding)
        with spans.span(f"{prefix}.hash_join"):
            joined = hash_join(left, right)
        with spans.span(f"{prefix}.dedupe"):
            dedupe(joined)
        with spans.span(f"{prefix}.project"):
            project(joined, join.head)
    with spans.span(f"{prefix}.left_join"):
        left_join(required, extension)
    each = us_each(spans, f"{prefix}.canonical", len(left))
    return {
        f"{prefix}.canonical.us": each,
        f"{prefix}.hash_join.ms": spans.median_ms(f"{prefix}.hash_join"),
        f"{prefix}.dedupe.ms": spans.median_ms(f"{prefix}.dedupe"),
        f"{prefix}.project.ms": spans.median_ms(f"{prefix}.project"),
        f"{prefix}.left_join.ms": spans.median_ms(f"{prefix}.left_join"),
    }


def overhead_probes(
    spans: Spans, executor, merged: Graph, texts: Dict[str, str]
) -> Dict[str, float]:
    """Federated ``adaptive`` wall over merged-graph wall, per text.

    The two calls on one text alternate, ``INTERLEAVED`` times, so each
    ratio compares neighbours; ``federation.overhead_x`` is the geomean
    of the per-text ratios (the ROADMAP's federation overhead factor).
    Both caches are hot: every text ran in the rounds before.
    """
    out: Dict[str, float] = {}
    for name, text in texts.items():
        for _ in range(INTERLEAVED):
            with spans.span(f"overhead.federated.{name}"):
                executor.execute(text, "adaptive")
            with spans.span(f"overhead.local.{name}"):
                execute(merged, text)
        out[f"federation.overhead.{name}_x"] = ratio(
            spans.median_ms(f"overhead.federated.{name}"),
            spans.median_ms(f"overhead.local.{name}"),
        )
    out["federation.overhead_x"] = geomean(out.values())
    return out


# -- runtime --------------------------------------------------------------


def kernel_probe(spans: Spans) -> Dict[str, float]:
    """``SimKernel.schedule`` + ``run`` on 20,000 staggered events."""
    events = 20_000
    for _ in range(REPEAT):
        kernel = SimKernel()
        with spans.span("runtime.kernel"):
            for i in range(events):
                kernel.schedule((i % 97) * 0.001, int)
            kernel.run()
    seconds = statistics.median(spans.durations("runtime.kernel"))
    return {"runtime.kernel.events_per_s": ratio(events, seconds)}


def channel_metrics(channels) -> Dict[str, float]:
    """Request count, waiting share and window peak of a replay."""
    stats = list(channels.values())
    wait = sum(c.wait_seconds for c in stats)
    busy = sum(c.busy_seconds for c in stats)
    return {
        "runtime.requests": sum(c.completed for c in stats),
        "runtime.wait_share": ratio(wait, wait + busy),
        "runtime.peak_in_flight": max(c.peak_in_flight for c in stats),
    }


def replay_probe(spans: Spans, tracer: Tracer, executor) -> Dict[str, float]:
    """Re-submit a traced execution's requests to a fresh scheduler.

    The tracer exports each request's endpoint and priced duration but
    not the dependency edges, so a tenant's requests are chained in
    recorded order and a single query's are all released at once: the
    same events through the kernel and channels, replayed standalone.
    """
    recorded = list(tracer.spans())
    tenants = [s for s in recorded if s.name.startswith("tenant:")]
    requests = [s for s in recorded if s.name.startswith("request:")]
    window = {
        "concurrency": executor.concurrency,
        "max_in_flight": executor.max_in_flight,
    }
    for _ in range(REPEAT):
        if tenants:
            scheduler = QueryScheduler(discipline="wrr", **window)
            for parent in tenants:
                recorder = scheduler.tenant(parent.lane)
                previous = ()
                for span in parent.children:
                    endpoint = span.attributes["endpoint"]
                    handle = recorder.submit(
                        endpoint, span.duration, after=previous
                    )
                    previous = (handle,)
        else:
            scheduler = OverlapScheduler(**window)
            for span in requests:
                scheduler.submit(span.lane, span.duration)
        with spans.span("runtime.replay"):
            scheduler.makespan()
    return {"runtime.replay.ms": spans.median_ms("runtime.replay")}


# -- obs ------------------------------------------------------------------


def obs_probes(spans: Spans, traced, analyze) -> Dict[str, float]:
    """Span cost, span count, Chrome export and EXPLAIN ANALYZE.

    ``traced`` is the program's tracer after one representative
    execution and ``analyze()`` renders that query's analyzed plan;
    both are ``None`` where no entry point takes a tracer.
    """
    opened = 10_000
    for _ in range(REPEAT):
        tracer = Tracer()
        with spans.span("obs.span"):
            for _ in range(opened):
                with tracer.span("probe"):
                    pass
    out = {"obs.span.us": us_each(spans, "obs.span", opened)}
    if traced is None:
        return out
    for _ in range(REPEAT):
        with spans.span("obs.export"):
            chrome_trace_events(traced)
        with spans.span("obs.analyze"):
            analyze()
    out["obs.spans"] = sum(1 for _ in traced.spans())
    out["obs.export.ms"] = spans.median_ms("obs.export")
    out["obs.analyze.ms"] = spans.median_ms("obs.analyze")
    return out
