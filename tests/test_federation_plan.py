"""The federated physical-operator layer: plans, explain, pipelining."""

import pytest

from conftest import where_rows
from repro.federation import (
    ADAPTIVE,
    PARALLEL,
    STRATEGIES,
    FederatedExecutor,
    NetworkModel,
    PreparedQuery,
)
from repro.federation.plan import (
    BoundJoinStream,
    FedOp,
    LeftJoinNode,
    LocalHashJoin,
    PullScan,
    RemoteScan,
    _Stream,
)
from repro.gpq.evaluation import evaluate_query_star
from repro.rdf.terms import Variable
from repro.sparql.batch import Batch
from repro.workload.federation import (
    federated_exclusive_query,
    federated_optional_filter_sparql,
    federated_optional_sparql,
    federated_path_query,
    federated_rps,
    federated_selective_query,
)

#: Cheap round trips, expensive transfer: prices consecutive bound
#: joins cheaper than shipping/pulling, so plans produce multi-batch
#: pipelines.
DEEP_NET = dict(
    latency_seconds=0.01, per_solution_seconds=0.01, per_triple_seconds=0.05
)


@pytest.fixture(scope="module")
def system():
    return federated_rps(peers=3, entities=20, facts=60, seed=7)


def _deep_executors(system):
    return FederatedExecutor(
        system,
        network=NetworkModel(**DEEP_NET),
        batch_size=1,
        concurrency=4,
    )


# ---------------------------------------------------------------------------
# The monolith is gone; results carry operator plans
# ---------------------------------------------------------------------------


def test_strategy_monolith_methods_are_gone():
    for name in (
        "_branch_naive",
        "_branch_bound",
        "_branch_adaptive",
        "_branch_parallel",
    ):
        assert not hasattr(FederatedExecutor, name)


@pytest.mark.parametrize("strategy", ["adaptive", "parallel", "naive", "bound"])
def test_results_carry_an_operator_plan(system, strategy):
    result = FederatedExecutor(system).execute(
        federated_path_query(hops=2), strategy
    )
    assert len(result.plans) == 1
    root = result.plans[0]
    # The plan produces solutions only: its root is the one branch's
    # root, over every branch variable (the head is ?x0 ?x2), and the
    # projection happens at the result boundary.
    assert isinstance(root, FedOp)
    assert isinstance(root, (BoundJoinStream, LocalHashJoin, PullScan))
    assert [v.name for v in root.schema] == ["x0", "x1", "x2"]


def test_collect_baseline_has_no_federated_plan(system):
    result = FederatedExecutor(system).execute(
        federated_path_query(hops=2), "collect"
    )
    assert result.plans == ()


def test_plan_operator_kinds_reflect_decisions(system):
    executor = _deep_executors(system)
    result = executor.execute(
        federated_selective_query(entity=3, hops=3), PARALLEL
    )
    kinds = set()

    def walk(node):
        kinds.add(type(node))
        for child in node.children():
            walk(child)

    walk(result.plans[0])
    assert RemoteScan in kinds  # the anchored first hop ships
    assert BoundJoinStream in kinds  # later hops bound-join


# ---------------------------------------------------------------------------
# Explain over the plan layer
# ---------------------------------------------------------------------------


def test_serial_and_parallel_explains_render_plan_deterministically(system):
    executor = FederatedExecutor(system)
    query = federated_exclusive_query(hops=1)
    for strategy in (ADAPTIVE, PARALLEL):
        traces = {executor.explain(query, strategy=strategy) for _ in range(3)}
        assert len(traces) == 1
        trace = traces.pop()
        assert "plan:" in trace
        assert "PullScan" in trace and "Input" in trace
        # One operator line per plan node, indented under "plan:".
        assert any(
            line.startswith("  ") for line in trace.split("\n")[2:]
        )


def test_parallel_explain_of_exclusive_group_names_the_operator(system):
    trace = FederatedExecutor(system).explain(
        federated_exclusive_query(hops=1), strategy=PARALLEL
    )
    assert "ExclusiveGroupScan" in trace or "[group 2]" in trace


def test_pipelined_bound_join_explain_shows_batch_overlap(system):
    # Multi-batch workload (batch_size=1, fan-out >> 1): the pipelined
    # bound join's explain must report in-flight overlap above 1.
    executor = _deep_executors(system)
    trace = executor.explain(
        federated_selective_query(entity=3, hops=3), strategy=PARALLEL
    )
    assert "BoundJoinStream" in trace
    assert "mode=pipelined" in trace
    in_flights = [
        int(token.split("=", 1)[1])
        for line in trace.split("\n")
        for token in line.split()
        if token.startswith("in_flight=")
    ]
    assert in_flights and max(in_flights) > 1


# ---------------------------------------------------------------------------
# Pipelining invariants
# ---------------------------------------------------------------------------


def test_pipelined_answers_match_the_merged_graph_within_busy_time(system):
    # Deep selective paths on 3 and 5 peers under the cheap-round-trip
    # network, and OPTIONAL (+ FILTER) on a sparse system whose left
    # joins keep unmatched rows, under the default network.
    five = federated_rps(peers=5, entities=40, facts=150, seed=11)
    sparse = federated_rps(peers=3, entities=30, facts=25, seed=13)
    deep = NetworkModel(**DEEP_NET)
    workloads = [
        (system, federated_selective_query(entity=3, hops=3), deep),
        (five, federated_selective_query(entity=3, hops=3), deep),
        (sparse, federated_optional_sparql(), None),
        (sparse, federated_optional_filter_sparql(), None),
    ]
    for rps, query, network in workloads:
        merged = rps.stored_database()
        if isinstance(query, str):
            expected = where_rows(merged, query)
        else:
            expected = evaluate_query_star(merged, query)
        pipelined = FederatedExecutor(
            rps, network=network, batch_size=1, concurrency=4
        ).execute(query, PARALLEL)
        assert pipelined.rows == expected, query
        # Elapsed can never exceed the summed serial durations.
        assert (
            pipelined.stats.elapsed_seconds
            <= pipelined.stats.busy_seconds + 1e-9
        ), query


def test_streaming_is_deterministic(system):
    query = federated_selective_query(entity=3, hops=3)
    elapsed = {
        _deep_executors(system)
        .execute(query, PARALLEL)
        .stats.elapsed_seconds
        for _ in range(3)
    }
    assert len(elapsed) == 1


# ---------------------------------------------------------------------------
# Prepared queries: normalisation runs once per run_all_strategies
# ---------------------------------------------------------------------------


def test_run_all_strategies_normalises_once(system, monkeypatch):
    import repro.federation.executor as executor_module

    calls = []
    original = executor_module.sparql_to_branches

    def counting(query, nsm=None):
        calls.append(query)
        return original(query, nsm)

    monkeypatch.setattr(executor_module, "sparql_to_branches", counting)
    executor = FederatedExecutor(system)
    results = executor.run_all_strategies(federated_optional_sparql())
    assert set(results) == set(STRATEGIES)
    # One normalisation for five strategy executions.
    assert len(calls) == 1


def test_prepared_query_is_reusable_across_strategies(system):
    executor = FederatedExecutor(system)
    query = federated_path_query(hops=2)
    prepared = executor.prepare(query)
    assert isinstance(prepared, PreparedQuery)
    direct = executor.execute(query, ADAPTIVE)
    via_prepared = executor.execute(prepared, ADAPTIVE)
    assert via_prepared.rows == direct.rows
    assert via_prepared.stats.messages == direct.stats.messages


# ---------------------------------------------------------------------------
# Operator-level behaviour
# ---------------------------------------------------------------------------


def test_pull_scan_records_pulled_endpoints(system):
    # The plain path query's cost model pulls small relations.
    result = FederatedExecutor(system).execute(
        federated_path_query(hops=2), ADAPTIVE
    )
    pulls = []

    def walk(node):
        if isinstance(node, PullScan):
            pulls.append(node)
        for child in node.children():
            walk(child)

    walk(result.plans[0])
    pull_decisions = [d for d in result.decisions if d.action == "pull"]
    assert len([p for p in pulls if p.pulled]) == len(pull_decisions)


def test_left_join_node_appears_for_optional(system):
    result = FederatedExecutor(system).execute(
        federated_optional_sparql(), ADAPTIVE
    )
    found = []

    def walk(node):
        if isinstance(node, LeftJoinNode):
            found.append(node)
        for child in node.children():
            walk(child)

    walk(result.plans[0])
    assert len(found) == 1


# ---------------------------------------------------------------------------
# The stream cursor's demand cap
# ---------------------------------------------------------------------------


def test_stream_pull_stops_once_demand_is_met():
    """A pull asks its generator for no chunk past the demanded rows."""
    x = Variable("x")
    advanced = []

    def chunks():
        for start in range(0, 12, 4):
            advanced.append(start)
            yield Batch((x,), [list(range(start, start + 4))]), [()] * 4
        return ()

    stream = _Stream(chunks(), (x,))
    stream.pull(3)
    assert (len(stream), advanced) == (4, [0])
    stream.pull(4)  # the prefix already holds 4 rows: no chunk is read
    assert (len(stream), advanced) == (4, [0])
    stream.pull(5)
    assert (len(stream), advanced) == (8, [0, 4])
    assert not stream.exhausted
    stream.pull()
    assert (len(stream), advanced, stream.exhausted) == (12, [0, 4, 8], True)
    assert stream.batch.columns == [list(range(12))]
