"""Multi-tenant concurrency: disciplines, admission, AIMD, determinism."""

from collections import Counter

import pytest

from repro.errors import FederationError, SimulationError
from repro.federation.executor import FederatedExecutor
from repro.federation.network import NetworkModel
from repro.obs import Tracer, chrome_trace_events, validate_trace_events
from repro.peers.system import RPS
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.runtime import (
    AimdController,
    AimdSettings,
    Channel,
    ChannelStats,
    FifoDiscipline,
    QueryScheduler,
    Request,
    SimKernel,
    WeightedRoundRobinDiscipline,
    make_discipline,
)
from repro.workload import (
    federated_rps,
    federated_selective_query,
    skewed_tenant_workload,
    tenant_workload,
)
from repro.workload.federation import federated_limit_sparql

BOUND_CONTROL = AimdSettings(epoch=3, start_window=2, max_window=16)


@pytest.fixture(scope="module")
def system():
    return federated_rps(peers=3, entities=20, facts=120, seed=7)


def make_executor(system):
    """A fresh single-lane executor in the bursty bound-join regime."""
    network = NetworkModel(
        latency_seconds=0.01,
        per_solution_seconds=0.01,
        per_triple_seconds=0.05,
    )
    return FederatedExecutor(system, network, batch_size=1, concurrency=1)


# ---------------------------------------------------------------------------
# ChannelStats accessors
# ---------------------------------------------------------------------------


def test_channel_stats_accessors_empty():
    stats = ChannelStats()
    assert stats.queueing_delay() == 0.0
    assert stats.mean_service_seconds() == 0.0
    assert stats.service_time_variance() == 0.0


def test_channel_stats_accessors():
    stats = ChannelStats(
        completed=4,
        busy_seconds=8.0,
        busy_seconds_sq=20.0,
        wait_seconds=2.0,
    )
    assert stats.queueing_delay() == pytest.approx(0.5)
    assert stats.mean_service_seconds() == pytest.approx(2.0)
    # E[x^2] - mean^2 = 5 - 4
    assert stats.service_time_variance() == pytest.approx(1.0)


def test_channel_stats_variance_of_constant_service_is_zero():
    kernel = SimKernel()
    channel = Channel(kernel, "ep", concurrency=1)
    for _ in range(3):
        channel.submit(Request(duration=2.0))
    kernel.run()
    assert channel.stats.completed == 3
    assert channel.stats.mean_service_seconds() == pytest.approx(2.0)
    assert channel.stats.service_time_variance() == pytest.approx(0.0)
    # Single lane: the second and third requests queued 2s and 4s.
    assert channel.stats.queueing_delay() == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Queue disciplines
# ---------------------------------------------------------------------------


def test_fifo_discipline_preserves_arrival_order():
    fifo = FifoDiscipline()
    for tag in ("a", "b", "c"):
        fifo.push(Request(duration=1.0, label=tag))
    assert len(fifo) == 3
    assert [fifo.pop().label for _ in range(3)] == ["a", "b", "c"]


def test_wrr_discipline_interleaves_by_weight():
    wrr = WeightedRoundRobinDiscipline({"a": 2, "b": 1})
    for label, tenant in (
        ("a1", "a"),
        ("a2", "a"),
        ("a3", "a"),
        ("b1", "b"),
        ("b2", "b"),
    ):
        wrr.push(Request(duration=1.0, label=label, tenant=tenant))
    popped = [wrr.pop().label for _ in range(5)]
    assert popped == ["a1", "a2", "b1", "a3", "b2"]


def test_wrr_discipline_rejects_bad_weight_and_empty_pop():
    with pytest.raises(SimulationError):
        WeightedRoundRobinDiscipline({"a": 0})
    with pytest.raises(SimulationError):
        WeightedRoundRobinDiscipline().pop()


def test_make_discipline():
    assert isinstance(make_discipline("fifo"), FifoDiscipline)
    assert isinstance(make_discipline("wrr"), WeightedRoundRobinDiscipline)
    with pytest.raises(SimulationError):
        make_discipline("priority")


# ---------------------------------------------------------------------------
# Window retuning
# ---------------------------------------------------------------------------


def test_set_window_growth_admits_backlog_immediately():
    kernel = SimKernel()
    channel = Channel(kernel, "ep", concurrency=1, max_in_flight=1)
    for _ in range(3):
        channel.submit(Request(duration=1.0))
    assert channel.in_flight == 1
    assert len(channel._backlog) == 2
    channel.set_window(3)
    assert channel.in_flight == 3
    assert len(channel._backlog) == 0
    assert kernel.run() == 3.0  # still one service lane


def test_set_window_below_concurrency_rejected():
    kernel = SimKernel()
    channel = Channel(kernel, "ep", concurrency=2, max_in_flight=4)
    with pytest.raises(SimulationError):
        channel.set_window(1)


# ---------------------------------------------------------------------------
# AIMD controller
# ---------------------------------------------------------------------------


def test_aimd_settings_validated():
    with pytest.raises(SimulationError):
        AimdSettings(epoch=0)
    with pytest.raises(SimulationError):
        AimdSettings(decrease=1.0)
    with pytest.raises(SimulationError):
        AimdSettings(increase=0)
    with pytest.raises(SimulationError):
        AimdSettings(start_window=8, max_window=4)


def test_aimd_controller_grows_then_shrinks_under_queueing():
    settings = AimdSettings(epoch=2, start_window=2, max_window=8)
    controller = AimdController(settings)
    kernel = SimKernel()
    channel = Channel(
        kernel,
        "ep",
        concurrency=1,
        max_in_flight=controller.initial_window(1),
        observer=controller.observe,
    )
    for _ in range(8):
        channel.submit(Request(duration=1.0))
    kernel.run()
    adjustments = controller.adjustments
    assert adjustments, "no epoch boundary adjusted the window"
    # The first epoch barely queues (delay 0.5 < service 1.0): calm,
    # additive growth from the start window.
    first = adjustments[0]
    assert (first.before, first.after, first.congested) == (2, 4, False)
    # A single lane cannot drain the widened window: queueing delay
    # overtakes service time and the controller backs off.
    assert any(adj.congested and adj.after < adj.before for adj in adjustments)
    assert all(1 <= adj.after <= 8 for adj in adjustments)


def test_aimd_recommend_batch():
    controller = AimdController(AimdSettings(batch_min=2, batch_max=32))
    saturated = {"ep": ChannelStats(completed=4, wait_seconds=8.0,
                                    busy_seconds=4.0)}
    idle = {"ep": ChannelStats(completed=4, wait_seconds=0.1,
                               busy_seconds=4.0)}
    steady = {"ep": ChannelStats(completed=4, wait_seconds=2.0,
                                 busy_seconds=4.0)}
    assert controller.recommend_batch(saturated, 8) == 16
    assert controller.recommend_batch(saturated, 32) == 32  # clamped
    assert controller.recommend_batch(idle, 8) == 4
    assert controller.recommend_batch(idle, 2) == 2  # clamped
    assert controller.recommend_batch(steady, 8) == 8
    assert controller.recommend_batch({}, 8) == 8


# ---------------------------------------------------------------------------
# QueryScheduler: shared-kernel replay
# ---------------------------------------------------------------------------


def test_query_scheduler_rejects_bad_configuration():
    with pytest.raises(SimulationError):
        QueryScheduler(concurrency=0)
    with pytest.raises(SimulationError):
        QueryScheduler(concurrency=2, max_in_flight=1)
    with pytest.raises(SimulationError):
        QueryScheduler(max_active=0)
    with pytest.raises(SimulationError):
        QueryScheduler(discipline="priority")
    scheduler = QueryScheduler()
    scheduler.tenant("a")
    with pytest.raises(SimulationError):
        scheduler.tenant("a")
    with pytest.raises(SimulationError):
        scheduler.tenant("b", weight=0)


def test_query_scheduler_forbids_cross_tenant_dependencies():
    scheduler = QueryScheduler()
    alice = scheduler.tenant("alice")
    bob = scheduler.tenant("bob")
    handle = alice.submit("ep", 1.0)
    with pytest.raises(SimulationError):
        bob.submit("ep", 1.0, after=[handle])


def test_query_scheduler_contends_on_shared_channels():
    scheduler = QueryScheduler(concurrency=1)
    alice = scheduler.tenant("alice")
    bob = scheduler.tenant("bob")
    alice.submit("ep", 2.0)
    bob.submit("ep", 1.0)
    # One lane: alice (registered first) serves 0-2, bob 2-3.
    assert scheduler.makespan() == 3.0
    assert alice.makespan() == 2.0
    assert bob.makespan() == 3.0
    stats = scheduler.channel_stats()["ep"]
    assert stats.completed == 2
    assert bob.channel_stats()["ep"].wait_seconds == pytest.approx(2.0)


def test_admission_cap_staggers_queries():
    scheduler = QueryScheduler(concurrency=4, max_active=1)
    alice = scheduler.tenant("alice")
    bob = scheduler.tenant("bob")
    alice.submit("ep", 2.0)
    bob.submit("ep", 1.0)
    assert scheduler.makespan() == 3.0
    assert scheduler.active_peak == 1
    assert scheduler.admission_wait("alice") == 0.0
    # Bob only activates when alice's last request completes.
    assert scheduler.admission_wait("bob") == 2.0
    assert bob.makespan() == 3.0


def test_query_scheduler_determinism_fuzz(system):
    """Satellite: N concurrent queries x 5 seeds, byte-identical replays."""

    def run_once(seed):
        executor = make_executor(system)
        workload = tenant_workload(4, seed=seed)
        result = executor.execute_concurrent(
            [(t.tenant, t.query) for t in workload],
            strategy="bound",
            discipline="wrr",
            max_in_flight=2,
        )
        return (
            tuple(
                (
                    o.tenant,
                    tuple(sorted(repr(row) for row in o.result.rows)),
                    o.makespan,
                    o.admission_wait,
                    o.result.stats.messages,
                    o.result.stats.elapsed_seconds,
                    tuple(
                        (name, repr(stats))
                        for name, stats in sorted(
                            o.result.channels.items()
                        )
                    ),
                )
                for o in result.outcomes
            ),
            result.makespan,
            tuple(
                (name, repr(stats))
                for name, stats in sorted(result.channels.items())
            ),
        )

    for seed in range(5):
        assert run_once(seed) == run_once(seed), f"seed {seed} diverged"


# ---------------------------------------------------------------------------
# execute_concurrent
# ---------------------------------------------------------------------------


def test_concurrent_answers_match_solo_execution(system):
    workload = skewed_tenant_workload(light=3, seed=5)
    solos = {
        t.tenant: make_executor(system).execute(t.query, "bound").rows
        for t in workload
    }
    for discipline in ("fifo", "wrr"):
        result = make_executor(system).execute_concurrent(
            [(t.tenant, t.query) for t in workload],
            strategy="bound",
            discipline=discipline,
            max_in_flight=2,
        )
        assert result.discipline == discipline
        for outcome in result.outcomes:
            assert outcome.result.rows == solos[outcome.tenant]
        assert result.makespan == max(result.makespans())
        assert result.p95_makespan() <= result.makespan
        assert result.throughput() > 0.0
        assert result.fairness_ratio() >= 1.0


@pytest.mark.parametrize("window", [None, 2])
@pytest.mark.parametrize("batch_size", [1, 64])
def test_solo_parallel_execute_is_a_one_tenant_concurrent_run(
    system, batch_size, window
):
    """A solo ``parallel`` execution and a one-tenant concurrent run
    record and replay the same DAG: same rows, traffic, clocks and
    aggregate channel statistics (backlog peaks included)."""
    network = make_executor(system).network
    traffic = 0
    for t in tenant_workload(8, seed=11):
        executor = FederatedExecutor(
            system, network, batch_size, concurrency=2, max_in_flight=window
        )
        solo = executor.execute(t.query, "parallel")
        shared = executor.execute_concurrent(
            {"x": t.query}, strategy="parallel"
        )
        one = shared.tenant("x").result
        assert one.rows == solo.rows, t.tenant
        assert one.stats.messages == solo.stats.messages, t.tenant
        assert one.stats.elapsed_seconds == solo.stats.elapsed_seconds
        assert one.stats.busy_seconds == solo.stats.busy_seconds
        assert shared.makespan == solo.stats.elapsed_seconds
        assert shared.channels == solo.channels, t.tenant
        traffic += solo.stats.messages
    assert traffic


def test_concurrent_rejects_bad_inputs(system, monkeypatch):
    executor = make_executor(system)
    query = federated_selective_query(entity=1, hops=2)
    with pytest.raises(FederationError):
        executor.execute_concurrent({})
    with pytest.raises(FederationError):
        executor.execute_concurrent({"": query})
    with pytest.raises(FederationError):
        executor.execute_concurrent({"a": query}, strategy="collect")

    def _no_prepare(*args, **kwargs):
        raise AssertionError("invalid input must be rejected before prepare")

    # Each of these is rejected up front, before any query is prepared.
    with monkeypatch.context() as patch:
        patch.setattr(executor, "prepare", _no_prepare)
        with pytest.raises(FederationError, match="duplicate"):
            executor.execute_concurrent([("a", query), ("a", query)])
        with pytest.raises(FederationError, match="unknown tenant"):
            executor.execute_concurrent({"a": query}, weights={"typo": 3})
        with pytest.raises(FederationError, match=">= 1"):
            executor.execute_concurrent({"a": query}, weights={"a": 0})
        with pytest.raises(FederationError, match="discipline"):
            executor.execute_concurrent(
                {"a": query, "b": query}, discipline="priority"
            )
        with pytest.raises(FederationError, match="max_active"):
            executor.execute_concurrent({"a": query}, max_active=0)
        wide = FederatedExecutor(system, concurrency=2)
        patch.setattr(wide, "prepare", _no_prepare)
        with pytest.raises(FederationError, match="max_in_flight"):
            wide.execute_concurrent({"a": query}, max_in_flight=1)
    result = executor.execute_concurrent({"a": query}, strategy="bound")
    with pytest.raises(FederationError):
        result.tenant("nope")
    assert result.tenant("a").tenant == "a"


def test_admission_cap_through_executor(system):
    workload = tenant_workload(3, seed=11)
    result = make_executor(system).execute_concurrent(
        [(t.tenant, t.query) for t in workload],
        strategy="bound",
        max_active=1,
    )
    assert result.active_peak == 1
    waits = [o.admission_wait for o in result.outcomes]
    assert waits[0] == 0.0
    assert all(b > a for a, b in zip(waits, waits[1:]))


def test_adaptive_control_adjusts_and_preserves_answers(system):
    workload = tenant_workload(2, seed=11)
    queries = [(t.tenant, t.query) for t in workload]
    solos = {
        t.tenant: make_executor(system).execute(t.query, "bound").rows
        for t in workload
    }
    result = make_executor(system).execute_concurrent(
        queries,
        strategy="bound",
        discipline="wrr",
        adaptive=True,
        control=BOUND_CONTROL,
    )
    assert result.adjustments, "the controller never touched a window"
    for adjustment in result.adjustments:
        assert 1 <= adjustment.after <= BOUND_CONTROL.max_window
    assert result.rounds == 2  # batch re-planning ran
    assert result.batch_size == 2
    for outcome in result.outcomes:
        assert outcome.result.rows == solos[outcome.tenant]


# ---------------------------------------------------------------------------
# Offered-load ladder: AIMD against fixed windows, WRR against FIFO
# ---------------------------------------------------------------------------

#: Fixed per-endpoint in-flight windows and offered loads (tenants).
WINDOWS = (1, 2, 8)
LOADS = (2, 4, 8)

#: ``(load, variant)`` → (messages, makespan_us, p95_us, adjustments,
#: rounds, batch) of ``tenant_workload(load, seed=11)`` under WRR on
#: the ``system`` fixture.  The only regression pins the shared-kernel
#: clock of ``execute_concurrent`` has.
LOAD_PINS = {
    (2, "w1"): (422, 13_540_000, 13_540_000, 0, 1, 1),
    (2, "w2"): (422, 13_540_000, 13_540_000, 0, 1, 1),
    (2, "w8"): (422, 13_540_000, 13_540_000, 0, 1, 1),
    (2, "adaptive"): (214, 12_200_000, 12_200_000, 6, 2, 2),
    (4, "w1"): (639, 20_570_000, 20_570_000, 0, 1, 1),
    (4, "w2"): (639, 20_570_000, 20_570_000, 0, 1, 1),
    (4, "w8"): (639, 20_570_000, 20_570_000, 0, 1, 1),
    (4, "adaptive"): (325, 18_690_000, 18_690_000, 6, 2, 2),
    (8, "w1"): (1068, 35_000_000, 35_000_000, 0, 1, 1),
    (8, "w2"): (1068, 35_000_000, 35_000_000, 0, 1, 1),
    (8, "w8"): (1068, 35_000_000, 35_000_000, 0, 1, 1),
    (8, "adaptive"): (544, 30_960_000, 30_960_000, 6, 2, 2),
}

#: discipline → (messages, makespan_us, p95_us, ratio_x1000) of
#: ``skewed_tenant_workload(light=3, seed=5)`` at ``max_in_flight=2``;
#: ``ratio_x1000`` is the max/min per-tenant stretch (shared makespan
#: over solo elapsed), scaled by 1000.
SKEW_PINS = {
    "fifo": (120, 7_370_000, 7_370_000, 177_750),
    "wrr": (120, 7_370_000, 7_370_000, 30_039),
}


def _us(seconds):
    return int(round(seconds * 1e6))


def _messages(result):
    return sum(o.result.stats.messages for o in result.outcomes)


def _signature(result):
    """Byte-level identity of a concurrent run."""
    return (
        tuple(
            (
                o.tenant,
                tuple(sorted(repr(row) for row in o.result.rows)),
                o.makespan,
                o.admission_wait,
                o.result.stats.messages,
            )
            for o in result.outcomes
        ),
        tuple(repr(adj) for adj in result.adjustments),
        result.makespan,
        result.batch_size,
    )


def test_adaptive_p95_never_worse_than_any_fixed_window(system):
    variants = [(f"w{w}", {"max_in_flight": w}) for w in WINDOWS]
    variants.append(("adaptive", {"adaptive": True, "control": BOUND_CONTROL}))
    strict = False
    adjustments = 0
    for load in LOADS:
        workload = tenant_workload(load, seed=11)
        queries = [(t.tenant, t.query) for t in workload]
        solos = {
            t.tenant: make_executor(system).execute(t.query, "bound").rows
            for t in workload
        }
        p95 = {}
        for label, kwargs in variants:

            def run():
                return make_executor(system).execute_concurrent(
                    queries, strategy="bound", discipline="wrr", **kwargs
                )

            result = run()
            for outcome in result.outcomes:
                assert outcome.result.rows == solos[outcome.tenant], (
                    load,
                    label,
                    outcome.tenant,
                )
            footprint = (
                _messages(result),
                _us(result.makespan),
                _us(result.p95_makespan()),
                len(result.adjustments),
                result.rounds,
                result.batch_size,
            )
            assert footprint == LOAD_PINS[load, label], (load, label)
            if label == "adaptive":
                assert _signature(run()) == _signature(result), load
                adjustments += len(result.adjustments)
            p95[label] = result.p95_makespan()
        for window in WINDOWS:
            assert p95["adaptive"] <= p95[f"w{window}"] + 1e-9, (load, window)
            strict |= p95["adaptive"] < p95[f"w{window}"] - 1e-9
    assert strict, "adaptive control never strictly beat a fixed window"
    assert adjustments, "the controller never adjusted a window"


def test_wrr_stretch_ratio_strictly_below_fifo(system):
    workload = skewed_tenant_workload(light=3, seed=5)
    queries = [(t.tenant, t.query) for t in workload]
    solos = {
        t.tenant: make_executor(system).execute(t.query, "bound")
        for t in workload
    }
    ratio = {}
    for discipline in ("fifo", "wrr"):
        result = make_executor(system).execute_concurrent(
            queries, strategy="bound", discipline=discipline, max_in_flight=2
        )
        for outcome in result.outcomes:
            assert outcome.result.rows == solos[outcome.tenant].rows
        stretches = [
            o.makespan / max(solos[o.tenant].stats.elapsed_seconds, 1e-9)
            for o in result.outcomes
        ]
        ratio[discipline] = max(stretches) / min(stretches)
        footprint = (
            _messages(result),
            _us(result.makespan),
            _us(result.p95_makespan()),
            int(round(ratio[discipline] * 1000)),
        )
        assert footprint == SKEW_PINS[discipline], discipline
    assert ratio["wrr"] < ratio["fifo"]


def test_concurrent_metrics_registry(system):
    workload = tenant_workload(2, seed=11)
    result = make_executor(system).execute_concurrent(
        [(t.tenant, t.query) for t in workload],
        strategy="bound",
        adaptive=True,
        control=BOUND_CONTROL,
    )
    rendered = result.metrics().render()
    text = "\n".join(rendered)
    assert f"admission.queries={len(result.outcomes)}" in text
    assert f"controller.adjustments={len(result.adjustments)}" in text
    assert "channel.peer1.completed" in text
    assert "channel.peer1.queueing_delay" in text


def test_prepared_plan_reused_across_tenants(system, monkeypatch):
    """Satellite: one normalisation per distinct query, however many
    tenants submit it."""
    calls = []
    original = FederatedExecutor._normalize

    def counting(self, query, nsm):
        calls.append(query)
        return original(self, query, nsm)

    monkeypatch.setattr(FederatedExecutor, "_normalize", counting)
    executor = make_executor(system)
    query = federated_selective_query(entity=1, hops=2)
    result = executor.execute_concurrent(
        {"a": query, "b": query, "c": query}, strategy="bound"
    )
    assert len(result.outcomes) == 3
    assert len(calls) == 1
    # A pre-prepared query skips normalisation entirely.
    prepared = executor.prepare(query)
    calls.clear()
    executor.execute_concurrent(
        [("a", prepared), ("b", prepared)], strategy="bound"
    )
    assert calls == []


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


def test_concurrent_trace_has_tenant_lanes_and_controller_spans(system):
    workload = tenant_workload(2, seed=11)
    tracer = Tracer()
    result = make_executor(system).execute_concurrent(
        [(t.tenant, t.query) for t in workload],
        strategy="bound",
        discipline="wrr",
        adaptive=True,
        control=BOUND_CONTROL,
        tracer=tracer,
    )
    assert result.adjustments
    document = chrome_trace_events(tracer, domain="virtual")
    assert validate_trace_events(document) == []
    events = document["traceEvents"]
    tenant_tid = {}
    for event in events:
        if event["name"].startswith("tenant:"):
            tenant_tid[event["name"].split(":", 1)[1]] = event["tid"]
    tenants = sorted({t.tenant for t in workload})
    assert sorted(tenant_tid) == tenants
    assert len(set(tenant_tid.values())) == len(tenants)
    requests = [e for e in events if e["name"].startswith("request:")]
    assert requests
    assert {e["tid"] for e in requests} <= set(tenant_tid.values())
    controller_events = [
        e for e in events if e["name"].startswith("controller:")
    ]
    assert len(controller_events) == len(result.adjustments)
    for event in controller_events:
        assert event["tid"] not in tenant_tid.values()
        assert isinstance(event["args"]["window_before"], int)
        assert isinstance(event["args"]["window_after"], int)


def test_validate_trace_events_rejects_bare_controller_span():
    document = {
        "traceEvents": [
            {
                "name": "controller:peer1",
                "cat": "virtual",
                "ph": "X",
                "ts": 0,
                "dur": 10,
                "pid": 1,
                "tid": 1,
                "args": {"congested": 1},
            }
        ]
    }
    problems = validate_trace_events(document)
    assert any("window_before" in p for p in problems)
    assert any("window_after" in p for p in problems)


# ---------------------------------------------------------------------------
# One result boundary: each distinct ID decodes once per round
# ---------------------------------------------------------------------------


def test_concurrent_rows_equal_solo_and_decode_each_id_once_per_round():
    class CountingDictionary(TermDictionary):
        """Counts ``decode`` calls per ID (the count lives here, in the
        test, not in ``src/``)."""

        decoded = Counter()

        def decode(self, tid):
            self.decoded[tid] += 1
            return super().decode(tid)

    dictionary = CountingDictionary()
    source = federated_rps(peers=3, entities=20, facts=120, seed=7)
    system = RPS.from_graphs(
        {
            name: Graph(peer.graph, name=name, dictionary=dictionary)
            for name, peer in source.peers.items()
        }
    )
    executor = FederatedExecutor(system, batch_size=2)
    texts = {
        f"tenant{k:02d}": federated_limit_sparql(hops=2, anchor=k % 20)
        for k in range(64)
    }
    solo = {
        name: executor.execute(text, "parallel").rows
        for name, text in texts.items()
    }
    assert any(solo.values())

    dictionary.decoded.clear()
    result = executor.execute_concurrent(texts)
    assert result.rounds == 1
    for name, rows in solo.items():
        assert result.tenant(name).result.rows == rows, name
    # 64 tenants over 20 anchors share most of their IDs; every one of
    # them decoded once for the whole round, not once per cell.
    assert dictionary.decoded
    assert max(dictionary.decoded.values()) == 1
