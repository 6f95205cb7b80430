"""The telemetry layer: spans, Chrome export, ANALYZE, metrics.

Unit coverage for :mod:`repro.obs` plus the cross-layer guarantees the
tentpole promises: tracing is inert when disabled (no actuals dicts on
untraced plans, no-op hooks), wall spans wrap the local engine's
phases, virtual spans mirror the federation's simulated requests and
the runtime's replayed channel intervals (nesting exactly as the
overlap scheduler's DAG replay scheduled them), and every enabled
output — the virtual-domain ``trace_event`` export and
``explain(analyze=True)`` — is byte-identical across repeated seeded
runs, in serial and runtime mode, with and without fault injection.
"""

import json

import pytest

from repro.federation import STRATEGIES, FederatedExecutor
from repro.federation.faults import RetryPolicy
from repro.federation.network import NetworkStats
from repro.obs import (
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    attach_actuals,
    chrome_trace_events,
    format_actuals,
    validate_trace_events,
)
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.triples import Triple
from repro.sparql.cache import default_plan_cache
from repro.sparql.engine import (
    execute as engine_execute,
    explain as engine_explain,
)
from repro.workload.federation import (
    federated_path_query,
    federated_rps,
    flaky_fault_model,
)

EX = Namespace("http://example.org/")

QUERY = federated_path_query(hops=2)


def make_clock(values):
    """A deterministic injectable clock: each call pops the next value."""
    it = iter(values)
    return lambda: next(it)


@pytest.fixture
def graph():
    g = Graph(name="obs")
    p, q = EX.term("p"), EX.term("q")
    a, b, c, d = (EX.term(x) for x in "abcd")
    for t in [
        Triple(a, p, b),
        Triple(b, p, c),
        Triple(c, p, d),
        Triple(a, q, c),
        Triple(b, q, d),
    ]:
        g.add(t)
    return g


@pytest.fixture
def fed():
    system = federated_rps(peers=3, entities=20, facts=60, seed=7)
    return FederatedExecutor(system)


def make_flaky_executor():
    system = federated_rps(peers=3, entities=20, facts=60, seed=7)
    return FederatedExecutor(
        system,
        fault_model=flaky_fault_model(
            "peer1", failure_rate=0.3, timeout_rate=0.1, seed=15
        ),
        retry_policy=RetryPolicy(max_retries=8),
    )


# ---------------------------------------------------------------------------
# Tracer and Span
# ---------------------------------------------------------------------------


def test_wall_spans_nest_and_time():
    tracer = Tracer(clock=make_clock([0.0, 1.0, 2.0, 5.0]))
    with tracer.span("outer", lane="x", note=1):
        with tracer.span("inner"):
            pass
    [root] = tracer.roots
    assert root.name == "outer" and root.domain == "wall"
    assert root.start == 0.0 and root.end == 5.0
    assert root.lane == "x" and root.attributes == {"note": 1}
    [inner] = root.children
    assert inner.start == 1.0 and inner.end == 2.0
    assert [s.name for s in tracer.spans()] == ["outer", "inner"]


def test_record_attaches_to_parent_stack_or_roots():
    tracer = Tracer(clock=make_clock([0.0, 1.0]))
    free = tracer.record("free", 0.0, 2.0)
    with tracer.span("outer"):
        under = tracer.record("under", 0.5, 1.5, lane="peer1", k=3)
        child = tracer.record("child", 0.6, 0.9, parent=under)
    assert free in tracer.roots
    [outer] = [s for s in tracer.roots if s.name == "outer"]
    assert under in outer.children
    assert child in under.children
    assert under.domain == "virtual" and under.attributes == {"k": 3}


def test_span_duration_clamps_negative():
    assert Span("x", start=2.0, end=1.0).duration == 0.0
    assert Span("x", start=1.0, end=3.5).duration == 2.5


def test_tracer_reset_drops_everything():
    tracer = Tracer(clock=make_clock([0.0, 1.0]))
    with tracer.span("a"):
        pass
    tracer.reset()
    assert tracer.roots == [] and list(tracer.spans()) == []


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    with NULL_TRACER.span("x", lane="y", k=1) as handle:
        assert handle is None
    assert NULL_TRACER.record("x", 0.0, 1.0) is None
    assert list(NULL_TRACER.spans()) == []
    NULL_TRACER.reset()


# ---------------------------------------------------------------------------
# Chrome trace_event export and validation
# ---------------------------------------------------------------------------


def test_chrome_export_shape_lanes_and_domain_filter():
    tracer = Tracer(clock=make_clock([0.0, 1.0]))
    with tracer.span("wall-phase"):
        tracer.record("v1", 0.0, 0.25, lane="peer1", z=1, a=2)
        tracer.record("v2", 0.25, 0.5, lane="peer0")
    doc = chrome_trace_events(tracer, domain="virtual")
    assert validate_trace_events(doc) == []
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert [e["name"] for e in events] == ["v1", "v2"]
    # Lane tids number by first appearance AFTER the domain filter, so
    # the virtual-only export is independent of wall-span interleaving.
    assert [e["tid"] for e in events] == [1, 2]
    assert events[0]["ts"] == 0 and events[0]["dur"] == 250000
    assert list(events[0]["args"]) == ["a", "z"]  # key-sorted
    full = chrome_trace_events(tracer)
    assert len(full["traceEvents"]) == 3
    assert {e["cat"] for e in full["traceEvents"]} == {"wall", "virtual"}


def test_validate_trace_events_rejects_bad_shapes():
    assert validate_trace_events([]) == ["document is not a JSON object"]
    assert validate_trace_events({}) == [
        "'traceEvents' missing or not a list"
    ]
    good = {
        "name": "n",
        "cat": "virtual",
        "ph": "X",
        "ts": 0,
        "dur": 1,
        "pid": 1,
        "tid": 1,
        "args": {},
    }
    assert validate_trace_events({"traceEvents": [good]}) == []
    assert validate_trace_events({"traceEvents": [dict(good, ts=True)]})
    missing = dict(good)
    del missing["dur"]
    assert any(
        "dur" in p
        for p in validate_trace_events({"traceEvents": [missing]})
    )
    assert any(
        "phase" in p
        for p in validate_trace_events({"traceEvents": [dict(good, ph="B")]})
    )
    assert any(
        "negative" in p
        for p in validate_trace_events({"traceEvents": [dict(good, ts=-1)]})
    )
    assert validate_trace_events({"traceEvents": ["nope"]}) == [
        "event 0: not an object"
    ]


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


def test_metrics_registry_counters_gauges_render():
    reg = MetricsRegistry()
    reg.inc("a.hits")
    reg.inc("a.hits", 2)
    reg.set("a.size", 3)
    assert reg.counter("a.hits").value == 3
    with pytest.raises(TypeError):
        reg.gauge("a.hits")
    assert list(reg.snapshot()) == ["a.hits", "a.size"]
    assert reg.render(prefix="metric ") == [
        "metric a.hits=3",
        "metric a.size=3",
    ]


def test_histogram_buckets_and_snapshot():
    h = Histogram((1, 10))
    for v in (0.5, 1, 5, 100):
        h.observe(v)
    assert h.snapshot() == {
        "count": 4,
        "sum": 106.5,
        "le_1": 2,
        "le_10": 1,
        "inf": 1,
    }
    with pytest.raises(ValueError):
        Histogram((5, 5))
    reg = MetricsRegistry()
    reg.observe("lat", 3, (1, 10))
    lines = reg.render()
    assert "lat.count=1" in lines and "lat.le_10=1" in lines


# ---------------------------------------------------------------------------
# ANALYZE plumbing
# ---------------------------------------------------------------------------


def test_format_actuals_states():
    assert format_actuals(None) == ""
    assert format_actuals({}) == " (actual never-run)"
    assert format_actuals({"b": 2, "a": 1}) == " (actual a=1 b=2)"


class _Node:
    """Minimal operator: assignable ``actuals`` plus ``children()``."""

    actuals = None

    def __init__(self, *children):
        self._children = list(children)

    def children(self):
        return self._children


def test_attach_actuals_walks_the_whole_tree():
    leaf = _Node()
    mid = _Node(leaf)
    other = _Node()
    root = _Node(mid, other)
    attach_actuals(root)
    for node in (root, mid, other, leaf):
        assert node.actuals == {}


# ---------------------------------------------------------------------------
# Local engine: phase spans and EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


def test_engine_execute_traces_phases(graph):
    p = EX.term("p").n3()
    text = f"SELECT ?x ?y WHERE {{ ?x {p} ?y }}"
    default_plan_cache.clear()
    tracer = Tracer()
    engine_execute(graph, text, tracer=tracer)
    assert [s.name for s in tracer.roots] == [
        "parse",
        "normalise",
        "plan",
        "execute",
    ]
    assert all(s.domain == "wall" for s in tracer.spans())
    tracer.reset()
    engine_execute(graph, text, tracer=tracer)
    # A plan-cache hit skips parse/normalise/plan entirely.
    assert [s.name for s in tracer.roots] == ["execute"]


def test_local_explain_analyze_batch_engine(graph):
    p = EX.term("p").n3()
    text = f"SELECT ?x ?y WHERE {{ ?x {p} ?y }}"
    plain = engine_explain(graph, text)
    assert plain.startswith("batch engine")
    assert "(actual" not in plain
    analyzed = engine_explain(graph, text, analyze=True)
    assert analyzed.startswith("batch engine")
    assert "(actual" in analyzed and "rows_out=3" in analyzed
    assert analyzed == engine_explain(graph, text, analyze=True)


def test_local_explain_analyze_slice(graph):
    p = EX.term("p").n3()
    text = f"SELECT ?x ?y WHERE {{ ?x {p} ?y }} LIMIT 2"
    analyzed = engine_explain(graph, text, analyze=True)
    assert analyzed.startswith("batch engine")
    # The counters are the chunks the slice pulled before it was full:
    # here the first chunk, which holds the whole three-row scan.
    assert "batches=1 rows_out=3" in analyzed
    assert analyzed == engine_explain(graph, text, analyze=True)


def test_local_explain_analyze_ask(graph):
    p = EX.term("p").n3()
    analyzed = engine_explain(graph, f"ASK {{ ?x {p} ?y }}", analyze=True)
    assert analyzed.startswith("batch engine")
    assert "(actual batches=1" in analyzed


def test_local_explain_never_touches_the_plan_cache(graph):
    p = EX.term("p").n3()
    text = f"SELECT ?x ?y WHERE {{ ?x {p} ?y }}"
    default_plan_cache.clear()
    engine_explain(graph, text, analyze=True)
    stats = default_plan_cache.stats()
    assert stats["size"] == 0
    assert stats["hits"] == 0 and stats["misses"] == 0


# ---------------------------------------------------------------------------
# Every strategy: virtual request spans from the replay
# ---------------------------------------------------------------------------


def test_serial_trace_spans_every_request(fed):
    for strategy in STRATEGIES:
        tracer = Tracer()
        result = fed.execute(QUERY, strategy, tracer=tracer, analyze=True)
        [root] = tracer.roots
        assert root.name == f"execute:{strategy}" and root.domain == "wall"
        spans = list(tracer.spans())
        requests = [s for s in spans if s.name.startswith("request:")]
        assert len(requests) == result.stats.messages, strategy
        for span in requests:
            assert span.domain == "virtual"
            assert span.lane and span.end >= span.start


def test_untraced_execution_attaches_nothing(fed):
    result = fed.execute(QUERY, "adaptive")
    assert result.plans
    stack = list(result.plans)
    while stack:
        node = stack.pop()
        assert node.actuals is None
        stack.extend(node.children())


def _traced_exports(fed, strategy):
    """Two fully instrumented runs' virtual-domain exports.

    Instrumentation must not perturb the execution: every traced run
    returns the untraced rows and message count, and collects spans.
    """
    plain = fed.execute(QUERY, strategy)
    exports = []
    for _ in range(2):
        tracer = Tracer()
        result = fed.execute(QUERY, strategy, tracer=tracer, analyze=True)
        assert result.rows == plain.rows
        assert result.stats.messages == plain.stats.messages
        assert list(tracer.spans())
        exports.append(
            json.dumps(
                chrome_trace_events(tracer, domain="virtual"),
                sort_keys=True,
            )
        )
    return exports


def test_virtual_export_is_byte_stable(fed):
    exports = _traced_exports(fed, "adaptive")
    assert exports[0] == exports[1]
    assert validate_trace_events(json.loads(exports[0])) == []


# ---------------------------------------------------------------------------
# Runtime mode: replayed channel/request spans
# ---------------------------------------------------------------------------


def test_runtime_spans_nest_under_channels(fed):
    tracer = Tracer()
    result = fed.execute(QUERY, "parallel", tracer=tracer)
    [root] = tracer.roots
    assert root.name == "execute:parallel"
    channels = [s for s in root.children if s.name.startswith("channel:")]
    assert channels
    names = {s.name.split(":", 1)[1] for s in channels}
    assert names <= set(result.channels)
    spanned = 0
    for channel in channels:
        assert channel.children, "channel span without request children"
        assert channel.attributes["requests"] == len(channel.children)
        spanned += len(channel.children)
        for request in channel.children:
            assert request.name.startswith("request:")
            assert request.domain == "virtual"
            # The replayed service interval sits inside the channel's
            # occupied window exactly as the DAG replay scheduled it.
            assert channel.start <= request.start
            assert request.start <= request.end <= channel.end
    completed = sum(cs.completed for cs in result.channels.values())
    assert spanned == completed


def test_runtime_export_is_byte_stable(fed):
    exports = _traced_exports(fed, "parallel")
    assert exports[0] == exports[1]
    assert validate_trace_events(json.loads(exports[0])) == []


def test_channel_stats_merge_under_concurrent_subexecutions(fed):
    """Two traced runtime executions, folded as concurrent siblings.

    ``NetworkStats.merge`` adds work (messages, busy) and maxes the
    makespan; each execution's span forest must independently agree
    with its :class:`ChannelStats` — per-channel request counts and
    summed service durations — because both derive from the same
    overlap-scheduler replay.
    """
    first_tracer, second_tracer = Tracer(), Tracer()
    first = fed.execute(QUERY, "parallel", tracer=first_tracer)
    second = fed.execute(
        federated_path_query(hops=3), "parallel", tracer=second_tracer
    )
    merged = NetworkStats()
    merged.merge(first.stats)
    merged.merge(second.stats)
    assert merged.messages == first.stats.messages + second.stats.messages
    assert merged.busy_seconds == pytest.approx(
        first.stats.busy_seconds + second.stats.busy_seconds
    )
    assert merged.elapsed_seconds == pytest.approx(
        max(first.stats.elapsed_seconds, second.stats.elapsed_seconds)
    )
    for endpoint, count in first.stats.per_endpoint_messages.items():
        assert merged.per_endpoint_messages[endpoint] >= count
    for tracer, result in (
        (first_tracer, first),
        (second_tracer, second),
    ):
        [root] = tracer.roots
        channels = [
            s for s in root.children if s.name.startswith("channel:")
        ]
        requests = sum(len(c.children) for c in channels)
        assert requests == sum(
            cs.completed for cs in result.channels.values()
        )
        busy = sum(
            child.duration for c in channels for child in c.children
        )
        assert busy == pytest.approx(
            sum(cs.busy_seconds for cs in result.channels.values())
        )


# ---------------------------------------------------------------------------
# Fault injection: attempt/backoff spans and determinism
# ---------------------------------------------------------------------------


def test_faulty_trace_shows_attempts_and_is_stable():
    executor = make_flaky_executor()
    exports = []
    for _ in range(2):
        tracer = Tracer()
        result = executor.execute(QUERY, "adaptive", tracer=tracer)
        assert result.stats.failures + result.stats.timeouts > 0
        spans = list(tracer.spans())
        failed = [s for s in spans if s.attributes.get("failed") == 1]
        assert len(failed) == result.stats.failures + result.stats.timeouts
        assert all("!" in s.attributes["label"] for s in failed)
        backoffs = [s for s in spans if s.name.startswith("backoff:")]
        assert len(backoffs) == result.stats.retries > 0
        assert sum(s.duration for s in backoffs) == pytest.approx(
            result.stats.backoff_seconds
        )
        exports.append(
            json.dumps(
                chrome_trace_events(tracer, domain="virtual"),
                sort_keys=True,
            )
        )
    assert exports[0] == exports[1]


def test_federated_explain_analyze_byte_identical_all_modes():
    fed = FederatedExecutor(
        federated_rps(peers=3, entities=20, facts=60, seed=7)
    )
    flaky = make_flaky_executor()
    for executor, strategy in (
        (fed, "adaptive"),
        (fed, "parallel"),
        (flaky, "adaptive"),
        (flaky, "parallel"),
    ):
        traces = {
            executor.explain(QUERY, strategy=strategy, analyze=True)
            for _ in range(3)
        }
        assert len(traces) == 1
        trace = traces.pop()
        assert "(actual" in trace
        assert "metric network.messages=" in trace
        assert "plan-cache:" not in trace
