"""Fault injection, retry/backoff, replica failover, partial answers."""

import pytest

from repro.errors import (
    EndpointUnavailableError,
    FederationError,
    SimulationError,
)
from repro.federation import (
    ADAPTIVE,
    PARALLEL,
    STRATEGIES,
    FaultModel,
    FaultSpec,
    FederatedExecutor,
    NetworkModel,
    NetworkStats,
    PeerEndpoint,
    PlanInterpreter,
    PullScan,
    RetryPolicy,
)
from repro.federation.plan import ExecContext, InputNode, RelationCache
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.runtime import QueryScheduler
from repro.workload.federation import (
    blackout_fault_model,
    federated_path_query,
    federated_rps,
    flaky_fault_model,
    outage_fault_model,
)


@pytest.fixture(scope="module")
def system():
    return federated_rps(peers=3, entities=20, facts=60, seed=7)


QUERY = federated_path_query()


# ---------------------------------------------------------------------------
# FaultSpec / RetryPolicy / FaultSession units
# ---------------------------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ValueError, match="failure_rate"):
        FaultSpec(failure_rate=1.5)
    with pytest.raises(ValueError, match="timeout_rate"):
        FaultSpec(timeout_rate=-0.1)
    with pytest.raises(ValueError, match="exceeds 1"):
        FaultSpec(failure_rate=0.6, timeout_rate=0.6)
    with pytest.raises(ValueError, match="fail_first"):
        FaultSpec(fail_first=-1)
    with pytest.raises(ValueError, match="outage window"):
        FaultSpec(outages=((2.0, 1.0),))


def test_outage_window_is_half_open():
    spec = FaultSpec(outages=((1.0, 2.0),))
    assert not spec.in_outage(0.999)
    assert spec.in_outage(1.0)
    assert spec.in_outage(1.999)
    assert not spec.in_outage(2.0)


def test_retry_policy_validation_and_backoff():
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError, match="backoff_seconds"):
        RetryPolicy(backoff_seconds=-0.1)
    with pytest.raises(ValueError, match="backoff_factor"):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError, match="timeout_seconds"):
        RetryPolicy(timeout_seconds=-1.0)
    policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=2.0)
    assert policy.backoff(0) == pytest.approx(0.1)
    assert policy.backoff(1) == pytest.approx(0.2)
    assert policy.backoff(2) == pytest.approx(0.4)


def test_fail_first_is_deterministic():
    model = FaultModel(specs={"p": FaultSpec(fail_first=2)}, seed=0)
    session = model.session()
    assert [session.outcome("p", 0.0) for _ in range(4)] == [
        "fail",
        "fail",
        "ok",
        "ok",
    ]
    assert session.attempts("p") == 4


def test_outcome_sequence_is_seeded_per_endpoint():
    model = FaultModel(
        specs={
            "a": FaultSpec(failure_rate=0.4, timeout_rate=0.2),
            "b": FaultSpec(failure_rate=0.4, timeout_rate=0.2),
        },
        seed=42,
    )
    first, second = model.session(), model.session()
    seq_a = [first.outcome("a", 0.0) for _ in range(30)]
    seq_b = [first.outcome("b", 0.0) for _ in range(30)]
    # Byte-identical replay from a fresh session of the same model.
    assert [second.outcome("a", 0.0) for _ in range(30)] == seq_a
    # Per-endpoint streams: one endpoint's draws are independent of the
    # other's (and, with this seed, actually differ).
    assert seq_a != seq_b
    assert {"fail", "timeout"} & set(seq_a)


def test_unconfigured_endpoint_never_fails():
    model = FaultModel(specs={"a": FaultSpec(failure_rate=1.0)}, seed=0)
    session = model.session()
    assert all(session.outcome("other", 0.0) == "ok" for _ in range(10))
    assert session.attempts("other") == 0


def test_endpoint_unavailable_error_carries_context():
    exc = EndpointUnavailableError("gone", endpoint="peer1", attempts=3)
    assert exc.endpoint == "peer1"
    assert exc.attempts == 3


# ---------------------------------------------------------------------------
# Scheduler / channel fault plumbing
# ---------------------------------------------------------------------------


def test_scheduler_delay_postpones_arrival():
    recorder = QueryScheduler().tenant("")
    first = recorder.submit("p0", 1.0)
    retried = recorder.submit("p0", 1.0, after=[first], delay=2.0)
    assert recorder.makespan() == pytest.approx(4.0)
    assert recorder.timeline()[retried.index].arrived_at == pytest.approx(
        3.0
    )
    with pytest.raises(SimulationError, match="delay"):
        recorder.submit("p0", 1.0, delay=-0.5)


def test_channel_counts_failed_attempts():
    recorder = QueryScheduler().tenant("")
    recorder.submit("p0", 0.5, failed=True)
    recorder.submit("p0", 1.0)
    stats = recorder.channel_stats()["p0"]
    assert stats.completed == 2
    assert stats.failed == 1


# ---------------------------------------------------------------------------
# Retry accounting through the executor
# ---------------------------------------------------------------------------


def _fail_first_model(k=1):
    return FaultModel(specs={"peer1": FaultSpec(fail_first=k)}, seed=0)


def test_fail_first_retry_accounting_serial(system):
    policy = RetryPolicy(max_retries=1, backoff_seconds=0.25)
    clean = FederatedExecutor(system).execute(QUERY, ADAPTIVE)
    faulty = FederatedExecutor(
        system, fault_model=_fail_first_model(), retry_policy=policy
    ).execute(QUERY, ADAPTIVE)
    assert faulty.rows == clean.rows
    assert faulty.partial is None
    stats = faulty.stats
    # One extra (failed) message, one retry, one error reply, one
    # backoff sleep — and the failed round trip is charged like traffic.
    assert stats.messages == clean.stats.messages + 1
    assert stats.retries == 1
    assert stats.failures == 1
    assert stats.timeouts == 0
    assert stats.backoff_seconds == pytest.approx(0.25)
    assert stats.busy_seconds > clean.stats.busy_seconds
    # Serial mode: the makespan is wire time plus the backoff sleep.
    assert stats.elapsed_seconds == pytest.approx(
        stats.busy_seconds + stats.backoff_seconds
    )


@pytest.mark.parametrize(
    "knobs, witness",
    [
        ({}, "messages"),
        (
            dict(
                fault_model=flaky_fault_model(
                    "peer1", failure_rate=0.3, timeout_rate=0.1, seed=15
                ),
                retry_policy=RetryPolicy(max_retries=8, backoff_seconds=0.1),
            ),
            "backoff_seconds",
        ),
        (
            dict(
                fault_model=blackout_fault_model("peer1"),
                retry_policy=RetryPolicy(max_retries=1),
                replicas={"peer1": 1},
            ),
            "failovers",
        ),
        (dict(stats_ttl=0), "stats_refreshes"),
    ],
    ids=["plain", "flaky", "failover", "stale"],
)
def test_serial_strategies_elapse_busy_plus_backoff(system, knobs, witness):
    # Every strategy but parallel records on a serial tenant: its
    # makespan is its wire time plus its backoff waits, and statistics
    # refreshes (busy time too) are the prefix the makespan lands on.
    executor = FederatedExecutor(system, **knobs)
    witnessed = 0
    for strategy in STRATEGIES:
        if strategy == PARALLEL:
            continue
        for hops in (1, 2, 3):
            stats = executor.execute(
                federated_path_query(hops=hops), strategy
            ).stats
            assert stats.elapsed_seconds == pytest.approx(
                stats.busy_seconds + stats.backoff_seconds, abs=1e-12
            ), (strategy, hops)
            witnessed += getattr(stats, witness)
    assert witnessed > 0  # the scenario exercises what it is named for


def test_timeouts_charged_at_policy_timeout(system):
    policy = RetryPolicy(max_retries=1, timeout_seconds=0.7)
    model = FaultModel(specs={"peer1": FaultSpec(timeout_rate=1.0)}, seed=0)
    result = FederatedExecutor(
        system, fault_model=model, retry_policy=policy
    ).execute(QUERY, ADAPTIVE)
    # Every attempt times out: budget exhausted, flagged partial.
    assert result.partial is not None
    assert result.stats.timeouts == 2
    assert result.stats.busy_seconds >= 2 * 0.7


def test_runtime_mode_prices_backoff_into_makespan(system):
    policy = RetryPolicy(max_retries=1, backoff_seconds=0.25)
    clean = FederatedExecutor(system).execute(QUERY, PARALLEL)
    faulty = FederatedExecutor(
        system, fault_model=_fail_first_model(), retry_policy=policy
    ).execute(QUERY, PARALLEL)
    assert faulty.rows == clean.rows
    assert faulty.partial is None
    assert faulty.stats.retries == 1
    # The backoff delay flows through the event kernel into the
    # makespan, not just into the busy-time total.
    assert (
        faulty.stats.elapsed_seconds
        > clean.stats.elapsed_seconds + policy.backoff_seconds - 1e-9
    )
    # The failed attempt occupied its channel and is counted there.
    assert sum(c.failed for c in faulty.channels.values()) == 1


def test_outage_window_escaped_by_retrying(system):
    model = outage_fault_model("peer1", start=0.0, end=0.12, seed=0)
    policy = RetryPolicy(max_retries=8, backoff_seconds=0.05)
    clean = FederatedExecutor(system).execute(QUERY, ADAPTIVE)
    result = FederatedExecutor(
        system, fault_model=model, retry_policy=policy
    ).execute(QUERY, ADAPTIVE)
    # Failed attempts advance busy time past the window's end, so the
    # retries eventually land outside the outage and recover fully.
    assert result.rows == clean.rows
    assert result.partial is None
    assert result.stats.failures > 0


# ---------------------------------------------------------------------------
# Replica failover
# ---------------------------------------------------------------------------


def test_failover_uses_replica_and_charges_it(system):
    clean = FederatedExecutor(system).execute(QUERY, ADAPTIVE)
    result = FederatedExecutor(
        system,
        fault_model=blackout_fault_model("peer1"),
        retry_policy=RetryPolicy(max_retries=1),
        replicas={"peer1": 1},
    ).execute(QUERY, ADAPTIVE)
    assert result.rows == clean.rows
    assert result.partial is None
    assert result.stats.failovers >= 1
    # Replica traffic is charged under the replica's own name.
    assert result.stats.per_endpoint_messages.get("peer1.r1", 0) >= 1


def test_executor_rejects_bad_replica_config(system):
    with pytest.raises(FederationError, match="unknown endpoint"):
        FederatedExecutor(system, replicas={"nope": 1})
    with pytest.raises(FederationError, match="must be >= 0"):
        FederatedExecutor(system, replicas={"peer1": -1})


# ---------------------------------------------------------------------------
# Flagged partial answers
# ---------------------------------------------------------------------------


def test_partial_answer_provenance_across_strategies(system):
    executor = FederatedExecutor(
        system,
        fault_model=blackout_fault_model("peer1"),
        retry_policy=RetryPolicy(max_retries=1),
    )
    clean = FederatedExecutor(system).execute(QUERY, ADAPTIVE)
    # run_all_strategies must not raise: flagged partial results are
    # exempt from the answer-agreement check.
    results = executor.run_all_strategies(QUERY)
    for strategy in STRATEGIES:
        result = results[strategy]
        assert result.partial is not None, strategy
        assert result.partial.endpoints() == ("peer1",), strategy
        assert "unreachable peer1" in result.partial.describe()
        # Degraded, never wrong: a subset of the full answer set.
        assert all(row in clean.rows for row in result.rows), strategy


def test_recoverable_faults_match_fault_free_on_all_strategies(system):
    model = flaky_fault_model(
        "peer1", failure_rate=0.3, timeout_rate=0.1, seed=15
    )
    executor = FederatedExecutor(
        system, fault_model=model, retry_policy=RetryPolicy(max_retries=8)
    )
    clean = FederatedExecutor(system)
    for strategy in STRATEGIES:
        expected = clean.execute(QUERY, strategy)
        result = executor.execute(QUERY, strategy)
        assert result.partial is None, strategy
        assert result.rows == expected.rows, strategy


def test_variable_predicate_pull_keeps_keyed_relations_of_a_failed_dump():
    """A ``?y ?p ?z`` pull whose full dump fails still reads the keyed
    relation already pulled from that endpoint, and only that relation:
    the flagged partial answer a merged pulled-relation graph gave."""
    ex = Namespace("http://example.org/")
    dictionary = TermDictionary()
    graph = Graph(dictionary=dictionary)
    for s, p, o in (
        ("a", "knows", "b"),
        ("b", "knows", "c"),
        ("b", "age", "d"),
        ("c", "knows", "a"),
    ):
        graph.add(Triple(ex[s], ex[p], ex[o]))
    endpoint = PeerEndpoint("peer0", graph)
    # The first attempt lands at busy time 0; every later one fails.
    model = FaultModel({"peer0": FaultSpec(outages=((1e-9, 1e9),))})
    ctx = ExecContext(
        NetworkModel(),
        NetworkStats(),
        RelationCache(dictionary),
        QueryScheduler().tenant("", serial=True),
        faults=model.session(),
        retry=RetryPolicy(max_retries=0),
    )
    interp = PlanInterpreter(ctx)
    x, y, p, z = (Variable(name) for name in "xypz")
    keyed = PullScan(InputNode(), TriplePattern(x, ex.knows, y), (endpoint,))
    interp.run(keyed)
    full = PullScan(keyed, TriplePattern(y, p, z), (endpoint,))
    stream = interp.run(full)
    assert keyed.pulled == ("peer0",) and full.pulled == ()
    assert [u.endpoint for u in ctx.unreachable] == ["peer0"]
    assert ctx.unreachable[0].operation.startswith("pull ")
    assert stream.batch.schema == (p, x, y, z)
    rows = [tuple(map(dictionary.decode, row)) for row in stream.batch.rows()]
    assert rows == [
        (ex.knows, ex[s], ex[m], ex[o])
        for s, m, o in (("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b"))
    ]


FLAKY = flaky_fault_model(
    "peer1", failure_rate=0.3, timeout_rate=0.1, seed=15
)
BLACKOUT = blackout_fault_model("peer1")

#: (strategy, fault model, retry policy, replicas, recoverable).
FAULT_SCENARIOS = {
    "flaky": (
        ADAPTIVE,
        FLAKY,
        RetryPolicy(max_retries=8),
        None,
        True,
    ),
    "flaky_parallel": (
        PARALLEL,
        FLAKY,
        RetryPolicy(max_retries=8),
        None,
        True,
    ),
    "outage": (
        ADAPTIVE,
        outage_fault_model("peer1", start=0.0, end=0.12, seed=0),
        RetryPolicy(max_retries=8, backoff_seconds=0.05),
        None,
        True,
    ),
    "failover": (
        ADAPTIVE,
        BLACKOUT,
        RetryPolicy(max_retries=1),
        {"peer1": 1},
        True,
    ),
    "blackout": (
        ADAPTIVE,
        BLACKOUT,
        RetryPolicy(max_retries=1),
        None,
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(FAULT_SCENARIOS))
def test_retry_traffic_stays_within_budget(system, name):
    """Faulty messages <= fault-free x (1 + max_retries) x (1 + replicas).

    Each scenario's faults must actually fire; recoverable ones return
    the fault-free answers unflagged, the blackout without a replica a
    flagged subset naming exactly ``peer1``.
    """
    strategy, model, policy, replicas, recoverable = FAULT_SCENARIOS[name]
    clean = FederatedExecutor(system, retry_policy=policy).execute(
        QUERY, strategy
    )
    faulty = FederatedExecutor(
        system, fault_model=model, retry_policy=policy, replicas=replicas
    ).execute(QUERY, strategy)
    budget = (
        clean.stats.messages
        * (1 + policy.max_retries)
        * (1 + sum((replicas or {}).values()))
    )
    assert faulty.stats.failures > 0
    assert faulty.stats.messages <= budget
    if recoverable:
        assert faulty.partial is None
        assert faulty.rows == clean.rows
    else:
        assert faulty.partial is not None
        assert faulty.partial.endpoints() == ("peer1",)
        assert faulty.rows <= clean.rows


# ---------------------------------------------------------------------------
# Determinism fuzz: same seed, byte-identical schedule and answers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_seeded_fuzz_is_deterministic(system, seed):
    model = flaky_fault_model(
        "peer1", failure_rate=0.3, timeout_rate=0.15, seed=seed
    )
    policy = RetryPolicy(max_retries=8)

    def run(strategy):
        executor = FederatedExecutor(
            system, fault_model=model, retry_policy=policy
        )
        return executor.execute(QUERY, strategy)

    for strategy in (ADAPTIVE, PARALLEL):
        first, second = run(strategy), run(strategy)
        assert first.rows == second.rows
        for field in (
            "messages",
            "retries",
            "failures",
            "timeouts",
            "failovers",
            "busy_seconds",
            "elapsed_seconds",
            "backoff_seconds",
            "per_endpoint_messages",
        ):
            assert getattr(first.stats, field) == getattr(
                second.stats, field
            ), (strategy, field)
        assert first.channels == second.channels
        assert (first.partial is None) == (second.partial is None)
        # Recoverable with this retry budget: answers match fault-free.
        if first.partial is None:
            clean = FederatedExecutor(system).execute(QUERY, strategy)
            assert first.rows == clean.rows
