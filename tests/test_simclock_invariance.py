"""Simulated-clock invariance of the federated data plane.

The batch-native data plane may only move wall time.  Everything the
simulated clock sees — messages, transfer units, busy/elapsed seconds,
retry and failover counters, per-channel service statistics and the
analyzed plan text — is compared with ``simclock_golden.json``.  Its
numbers date from the commit *before* the data plane went columnar::

    PYTHONPATH=<parent checkout>/src python tests/test_simclock_invariance.py

Its plan text was regenerated once since, when the solution modifiers
left the federated plan for the executor's result boundary: every
``explain`` is the old one without its ``Project``/``Slice``/``TopK``
lines (the plan root is now the branch root or the branch ``Union``),
and no number moved.

Its ``channels`` were regenerated once, when every strategy began to
record on the runtime: the 64 keys of the four serial strategies went
from ``{}`` to one-lane statistics (``peak_in_flight`` 1, no wait, no
backlog, ``completed`` summing to ``messages``); every other byte of
all 81 keys stayed.

Two keys were regenerated when every bound join began to batch its
input in arrival order instead of term-ID order:
``mixed_domain_bound_join/stream`` (its request seconds, makespan and
busy seconds) and ``deep_path/bound/stream`` (one channel's busy
seconds, in the last digits).  No row count, message, transfer unit
or plan text moved, and the system now runs on the process-wide
dictionary: no simulated number depends on term IDs.

One deliberate exception: on a demand-capped execution (LIMIT, ASK) an
operator's ``rows_out`` now counts whole chunks (an endpoint response,
an operator chunk) instead of the rows a row-at-a-time consumer pulled,
so those analyzed texts compare with ``rows_out`` masked.  Requests,
batches and every network counter still compare exactly.
"""

import json
import pathlib
import re
import sys

import pytest

from repro.federation import (
    STRATEGIES,
    FederatedExecutor,
    NetworkModel,
    NetworkStats,
    RetryPolicy,
)
from repro.federation.endpoint import PeerEndpoint
from repro.federation.plan import (
    BoundJoinStream,
    ExecContext,
    PlanInterpreter,
    RelationCache,
    RemoteScan,
    UnionNode,
    explain_fed_plan,
)
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.runtime.scheduler import QueryScheduler
from repro.sparql.batch import UNBOUND
from repro.workload.federation import (
    blackout_fault_model,
    federated_ask_sparql,
    federated_exclusive_query,
    federated_limit_sparql,
    federated_optional_filter_sparql,
    federated_optional_sparql,
    federated_path_query,
    federated_rps,
    federated_selective_query,
    federated_topk_sparql,
    federated_union_filter_sparql,
    flaky_fault_model,
)
from repro.workload.topologies import peer_namespace

GOLDEN = pathlib.Path(__file__).with_name("simclock_golden.json")

#: Every text builder of ``workload/federation.py``, default arguments.
BUILDERS = {
    "path": federated_path_query,
    "selective": federated_selective_query,
    "exclusive": federated_exclusive_query,
    "optional": federated_optional_sparql,
    "optional_filter": federated_optional_filter_sparql,
    "limit_text": federated_limit_sparql,
    "topk": federated_topk_sparql,
    "ask": federated_ask_sparql,
    "union_filter": federated_union_filter_sparql,
}

#: Cheap round trips, expensive transfer: multi-batch bound-join
#: pipelines whose request durations depend on batch composition.
DEEP = dict(
    network=NetworkModel(
        latency_seconds=0.01,
        per_solution_seconds=0.01,
        per_triple_seconds=0.05,
    ),
    batch_size=2,
    concurrency=4,
)

#: Scenarios whose execution is demand-capped (see the module docstring).
DEMAND_CAPPED = ("ask", "limit", "deep_limit", "deep_ask")

_ROWS_OUT = re.compile(r"rows_out=\d+ ?")


def _system():
    return federated_rps(peers=3, entities=20, facts=60, seed=7)


def _stats(stats: NetworkStats) -> dict:
    return {
        "messages": stats.messages,
        "transfer_units": stats.transfer_units,
        "solutions_transferred": stats.solutions_transferred,
        "triples_transferred": stats.triples_transferred,
        "busy_seconds": stats.busy_seconds,
        "elapsed_seconds": stats.elapsed_seconds,
        "backoff_seconds": stats.backoff_seconds,
        "retries": stats.retries,
        "failures": stats.failures,
        "timeouts": stats.timeouts,
        "failovers": stats.failovers,
        "per_endpoint_messages": dict(
            sorted(stats.per_endpoint_messages.items())
        ),
    }


def _channels(channels) -> dict:
    return {
        name: {
            "completed": c.completed,
            "failed": c.failed,
            "admitted": c.admitted,
            "busy_seconds": c.busy_seconds,
            "wait_seconds": c.wait_seconds,
            "peak_in_flight": c.peak_in_flight,
            "peak_backlog": c.peak_backlog,
        }
        for name, c in sorted(channels.items())
    }


def _run(executor, query, strategy) -> dict:
    """One execution's simulated-clock footprint and analyzed plan.

    The decision-tracing strategies record ``explain(analyze=True)``
    (which renders the plan tree too); the others the analyzed tree.
    """
    result = executor.execute(query, strategy, analyze=True)
    if strategy in ("adaptive", "parallel"):
        text = executor.explain(query, strategy=strategy, analyze=True)
    else:
        text = "\n".join(explain_fed_plan(plan) for plan in result.plans)
    return {
        "rows": len(result.rows),
        "partial": None
        if result.partial is None
        else list(result.partial.endpoints()),
        "stats": _stats(result.stats),
        "channels": _channels(result.channels),
        "explain": text.split("\n"),
    }


def _mixed_domain_plan(recorder):
    """A bound join whose input mixes domains, built by hand.

    The executor never plans one (a conjunctive block's pipeline is
    domain-homogeneous), but the operator supports it: a UNION of
    ``{x, y}`` rows and ``{y, z}`` rows feeds a bound join on ``?y``,
    seven rows a batch.  Batches take the UNION's rows in arrival
    order, so one batch straddles the two domains; with a
    per-solution transfer price the per-request durations expose the
    composition.

    Returns ``(join, ctx)`` recording onto ``recorder``; the join is
    not run yet.
    """
    executor = FederatedExecutor(_system())
    x, y, z, w = (Variable(n) for n in "xyzw")
    knows = [peer_namespace(k).knows for k in range(3)]
    ep = executor.endpoints
    union = UnionNode(
        [
            RemoteScan((TriplePattern(x, knows[0], y),), (ep[0],)),
            RemoteScan((TriplePattern(y, knows[1], z),), (ep[1],)),
        ]
    )
    join = BoundJoinStream(
        union, (TriplePattern(y, knows[2], w),), (ep[2],), batch_size=7
    )
    ctx = ExecContext(
        DEEP["network"],
        NetworkStats(),
        RelationCache(executor.dictionary),
        recorder,
    )
    return join, ctx


def _mixed_domain_bound_join() -> dict:
    """The hand-built mixed-domain bound join on the runtime."""
    scheduler = QueryScheduler(concurrency=2)
    join, ctx = _mixed_domain_plan(scheduler.tenant(""))
    rows = PlanInterpreter(ctx).run(join)
    makespan = scheduler.makespan()
    return {
        "rows": len(rows),
        "stats": _stats(ctx.stats),
        "makespan": makespan,
        "request_seconds": [h.seconds for h in join.handles],
        "explain": explain_fed_plan(join).split("\n"),
    }


def snapshot() -> dict:
    """Every scenario's record, keyed ``scenario/strategy/stream``.

    The ``stream`` suffix names the pipelined bound joins; it is kept so
    the keys read as they did when a wave-barrier mode sat beside them.
    """
    out = {}
    system = _system()
    plain = FederatedExecutor(system)
    deep = FederatedExecutor(system, **DEEP)
    flaky = FederatedExecutor(
        system,
        fault_model=flaky_fault_model(),
        retry_policy=RetryPolicy(max_retries=6, backoff_seconds=0.1),
    )
    failover = FederatedExecutor(
        system,
        fault_model=blackout_fault_model("peer1"),
        retry_policy=RetryPolicy(max_retries=1),
        replicas={"peer1": 1},
    )
    scenarios = [(name, plain, build()) for name, build in BUILDERS.items()]
    scenarios += [
        ("limit", plain, federated_limit_sparql(hops=2, limit=5)),
        ("deep_path", deep, federated_path_query(hops=2)),
        ("deep_optional", deep, federated_optional_sparql()),
        (
            "deep_limit",
            deep,
            federated_limit_sparql(hops=2, limit=3, offset=1),
        ),
        ("deep_ask", deep, federated_ask_sparql()),
        ("flaky", flaky, federated_path_query(hops=2)),
        ("failover", failover, federated_path_query(hops=2)),
    ]
    for name, executor, query in scenarios:
        for strategy in STRATEGIES:
            out[f"{name}/{strategy}/stream"] = _run(executor, query, strategy)
    out["mixed_domain_bound_join/stream"] = _mixed_domain_bound_join()
    return out


@pytest.fixture(scope="module")
def current():
    return json.loads(json.dumps(snapshot()))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _masked(lines):
    return [_ROWS_OUT.sub("", line) for line in lines]


def test_golden_covers_every_scenario(current, golden):
    assert sorted(current) == sorted(golden)
    # 9 builders + 7 extra scenarios, 5 strategies, + 1 by hand.
    assert len(golden) == (9 + 7) * 5 + 1


def test_network_stats_and_channels_are_unchanged(current, golden):
    for key, expected in golden.items():
        got = current[key]
        assert got["stats"] == expected["stats"], key
        assert got["rows"] == expected["rows"], key
        for field in ("channels", "partial", "makespan", "request_seconds"):
            assert got.get(field) == expected.get(field), (key, field)


def test_analyzed_plan_text_is_unchanged(current, golden):
    for key, expected in golden.items():
        want, have = expected["explain"], current[key]["explain"]
        if key.split("/")[0] in DEMAND_CAPPED:
            want, have = _masked(want), _masked(have)
        assert have == want, key


@pytest.mark.parametrize("serial", (False, True))
def test_bound_join_batches_its_input_in_arrival_order(serial, monkeypatch):
    # Answers are sets, so batch order may only move timing: every
    # execution slices the child's rows as they arrive, whatever their
    # term IDs and domains.  The join's endpoint records what each
    # request carries.
    recorder = QueryScheduler(concurrency=2).tenant("", serial=serial)
    join, ctx = _mixed_domain_plan(recorder)
    (endpoint,) = join.endpoints
    answer = PeerEndpoint.solutions
    shipped = []

    def solutions(self, patterns, batch, filters=()):
        if self is endpoint:
            shipped.append(batch)
        return answer(self, patterns, batch, filters)

    monkeypatch.setattr(PeerEndpoint, "solutions", solutions)
    interp = PlanInterpreter(ctx)
    interp.run(join)
    child = interp.run(join.child).batch
    assert any(UNBOUND in column for column in child.columns)
    assert len(shipped) > 2
    assert [row for batch in shipped for row in batch.rows()] == list(
        child.rows()
    )
    assert all(batch.n == join.batch_size for batch in shipped[:-1])
    assert 0 < shipped[-1].n <= join.batch_size


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
