"""Parallel execution mode: equivalence, makespan, exclusive groups."""

import pytest

from conftest import where_rows
from repro.federation import (
    ADAPTIVE,
    PARALLEL,
    FederatedExecutor,
    NetworkModel,
    NetworkStats,
)
from repro.gpq.evaluation import evaluate_query_star
from repro.workload.federation import (
    federated_exclusive_query,
    federated_path_query,
    federated_rps,
    federated_selective_query,
    federated_union_filter_sparql,
)


@pytest.fixture(scope="module")
def system():
    return federated_rps(peers=3, entities=20, facts=60, seed=7)


@pytest.fixture(scope="module")
def five_peer_system():
    return federated_rps(peers=5, entities=40, facts=150, seed=11)


def _single_graph(system, query):
    union = system.stored_database()
    if isinstance(query, str):
        return where_rows(union, query)
    return evaluate_query_star(union, query)


WORKLOADS = {
    "path2": federated_path_query(hops=2),
    "path3": federated_path_query(hops=3),
    "selective": federated_selective_query(entity=3, hops=2),
    "union_filter": federated_union_filter_sparql(),
    "exclusive": federated_exclusive_query(hops=1),
}


# ---------------------------------------------------------------------------
# Answer-set equivalence and the makespan invariant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_parallel_matches_serial_and_single_graph(system, name):
    query = WORKLOADS[name]
    executor = FederatedExecutor(system)
    expected = _single_graph(system, query)
    serial = executor.execute(query, ADAPTIVE)
    parallel = executor.execute(query, PARALLEL)
    assert serial.rows == expected
    assert parallel.rows == expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_parallel_makespan_never_exceeds_serial(
    system, five_peer_system, name
):
    query = WORKLOADS[name]
    for rps in (system, five_peer_system):
        executor = FederatedExecutor(rps)
        serial = executor.execute(query, ADAPTIVE)
        parallel = executor.execute(query, PARALLEL)
        assert parallel.rows == serial.rows
        assert (
            parallel.stats.elapsed_seconds
            <= serial.stats.elapsed_seconds + 1e-9
        )
        # Elapsed can never exceed the summed serial durations.
        assert (
            parallel.stats.elapsed_seconds
            <= parallel.stats.busy_seconds + 1e-9
        )


def test_serial_strategies_keep_elapsed_equal_to_busy(system):
    executor = FederatedExecutor(system)
    for strategy in ("adaptive", "naive", "bound", "collect"):
        result = executor.execute(WORKLOADS["path2"], strategy)
        assert result.stats.elapsed_seconds == pytest.approx(
            result.stats.busy_seconds
        )


def test_union_branches_overlap(system):
    # Two independent UNION branches, one request each: the parallel
    # makespan is one branch's wire time, not the sum of both.
    executor = FederatedExecutor(system)
    serial = executor.execute(WORKLOADS["union_filter"], ADAPTIVE)
    parallel = executor.execute(WORKLOADS["union_filter"], PARALLEL)
    assert parallel.stats.messages == serial.stats.messages
    assert (
        parallel.stats.elapsed_seconds
        < serial.stats.elapsed_seconds - 1e-9
    )


def test_batch_waves_overlap_under_concurrency():
    # Force many bound-join batches: with batch_size 1 the serial mode
    # pays one latency per batch, the parallel mode overlaps them up to
    # the channel concurrency.
    system = federated_rps(peers=3, entities=20, facts=60, seed=7)
    query = federated_selective_query(entity=3, hops=2)
    serial_ex = FederatedExecutor(system, batch_size=1)
    parallel_ex = FederatedExecutor(system, batch_size=1, concurrency=4)
    serial = serial_ex.execute(query, ADAPTIVE)
    parallel = parallel_ex.execute(query, PARALLEL)
    expected = _single_graph(system, query)
    assert serial.rows == expected
    assert parallel.rows == expected
    assert (
        parallel.stats.elapsed_seconds
        <= serial.stats.elapsed_seconds + 1e-9
    )


def test_higher_concurrency_never_slows_the_makespan(system):
    query = WORKLOADS["path3"]
    elapsed = []
    for concurrency in (1, 2, 8):
        executor = FederatedExecutor(
            system, batch_size=4, concurrency=concurrency
        )
        elapsed.append(
            executor.execute(query, PARALLEL).stats.elapsed_seconds
        )
    assert elapsed[0] + 1e-9 >= elapsed[1] >= elapsed[2] - 1e-9


def test_window_below_concurrency_rejected_at_construction(system):
    from repro.errors import FederationError

    with pytest.raises(FederationError, match="max_in_flight"):
        FederatedExecutor(system, concurrency=4, max_in_flight=2)


def test_parallel_result_carries_channel_stats(system):
    executor = FederatedExecutor(system)
    parallel = executor.execute(WORKLOADS["path2"], PARALLEL)
    assert parallel.channels  # per-endpoint service statistics
    assert sum(c.completed for c in parallel.channels.values()) == (
        parallel.stats.messages
    )
    # A serial strategy replays on one lane: every request completes
    # on its channel, alone, without waiting.
    serial = executor.execute(WORKLOADS["path2"], ADAPTIVE)
    assert sum(c.completed for c in serial.channels.values()) == (
        serial.stats.messages
    )
    for channel in serial.channels.values():
        assert channel.peak_in_flight == 1
        assert channel.wait_seconds == 0
        assert channel.peak_backlog == 0


# ---------------------------------------------------------------------------
# Exclusive groups
# ---------------------------------------------------------------------------


def test_exclusive_group_cuts_messages(system):
    executor = FederatedExecutor(system)
    serial = executor.execute(WORKLOADS["exclusive"], ADAPTIVE)
    parallel = executor.execute(WORKLOADS["exclusive"], PARALLEL)
    assert parallel.rows == serial.rows
    assert parallel.stats.messages < serial.stats.messages


def test_exclusive_group_decision_records_members(system):
    executor = FederatedExecutor(system)
    parallel = executor.execute(WORKLOADS["exclusive"], PARALLEL)
    grouped = [d for d in parallel.decisions if d.group]
    assert len(grouped) == 1
    decision = grouped[0]
    assert len(decision.group) == 2
    assert decision.endpoints == ("peer0",)
    assert decision.action in ("ship", "bound")
    assert "group[2]" in decision.describe()


def test_no_groups_without_a_shared_exclusive_owner(system):
    # The plain path query gives every conjunct its own single owner;
    # no owner holds two conjuncts, so nothing fuses.
    executor = FederatedExecutor(system)
    parallel = executor.execute(WORKLOADS["path2"], PARALLEL)
    assert all(not d.group for d in parallel.decisions)


# ---------------------------------------------------------------------------
# NetworkStats split semantics
# ---------------------------------------------------------------------------


def test_simulated_seconds_alias_is_gone():
    # The PR 5 deprecation completed: the alias raises AttributeError,
    # and the dataclass is not an open attribute bag for it either.
    stats = NetworkStats()
    model = NetworkModel(latency_seconds=1.0, per_solution_seconds=0.5)
    model.charge_query(stats, "p0", solutions=4)
    assert stats.busy_seconds == 3.0
    with pytest.raises(AttributeError):
        _ = stats.simulated_seconds


def test_merge_adds_busy_and_maxes_elapsed():
    model = NetworkModel(latency_seconds=1.0, per_solution_seconds=0.0)
    first, second = NetworkStats(), NetworkStats()
    # Charging records wire time only; the replay sets elapsed time,
    # here by hand: one request, and two in sequence.
    first.elapsed_seconds = model.charge_query(first, "a", 0)
    for endpoint in ("a", "b"):
        second.elapsed_seconds += model.charge_query(second, endpoint, 0)
    first.merge(second)
    assert first.messages == 3
    assert first.busy_seconds == pytest.approx(3.0)
    # Concurrent sub-executions finish when the slower one does.
    assert first.elapsed_seconds == pytest.approx(2.0)
    assert first.per_endpoint_messages == {"a": 2, "b": 1}


def test_refresh_charges_count_in_merge():
    model = NetworkModel()
    first, second = NetworkStats(), NetworkStats()
    model.charge_refresh(first, "a")
    model.charge_refresh(second, "b")
    first.merge(second)
    assert first.stats_refreshes == 2
    assert first.messages == 2
