"""Federated query execution over the peers of an RPS (§5 item 4).

The paper's prototype sketch federates conjunctive SPARQL sub-queries
over peer access points.  This package provides the simulated version:

* :mod:`repro.federation.network` — the parametric message/transfer
  cost model and its accumulated statistics;
* :mod:`repro.federation.endpoint` — a peer's graph wrapped as a
  simulated SPARQL access point answering (possibly bound) triple
  patterns at the dictionary-ID level;
* :mod:`repro.federation.cost` — the per-conjunct cost model behind the
  adaptive strategy: prices *ship* / *bound* / *pull* alternatives from
  endpoint cardinality statistics and the live intermediate binding
  count;
* :mod:`repro.federation.statistics` — the TTL statistics catalog:
  endpoint cardinalities age across executions and refreshes are
  charged as real messages, so stale plans (and their recovery) are
  observable;
* :mod:`repro.federation.faults` — deterministic fault injection: the
  seeded per-endpoint :class:`FaultModel`/:class:`FaultSpec`
  configuration, the per-execution :class:`FaultSession`, the
  :class:`RetryPolicy` (retries, exponential backoff, timeouts), and
  the :class:`PartialAnswer` provenance attached to degraded results;
* :mod:`repro.federation.bindings` — what the federation adds to the
  local engine's :class:`~repro.sparql.batch.Batch` (name-sorted
  schemas, keep-first dedup on packed int row keys, compiled FILTER
  splitting); joins, left joins and FILTER masks are the kernels of
  :mod:`repro.sparql.batch`;
* :mod:`repro.federation.plan` — the physical-operator layer: streaming
  operators (``RemoteScan``, ``BoundJoinStream`` with pipelined
  batches, ``ExclusiveGroupScan``, ``PullScan``, ``LocalHashJoin``,
  ``LeftJoin`` for federated OPTIONAL, ``Filter``/``Union``), the
  planner that builds them from cost-model decisions, and the memoised
  interpreter that walks one plan, recording every request on the
  discrete-event runtime (serially under every strategy but
  ``parallel``);
* :mod:`repro.federation.executor` — the distributed executor facade:
  normalises queries, prepares filters once, finishes every plan root
  with the local engine's solution modifiers, and runs each strategy as
  a plan-construction policy — the cost-model-driven ``adaptive``
  strategy (with FILTER/UNION pushdown into per-endpoint sub-queries),
  the overlap-aware ``parallel`` mode on the discrete-event runtime
  (:mod:`repro.runtime`) with FedX-style exclusive groups,
  makespan-priced decisions and pipelined bound joins, plus three
  fixed baselines — ``naive`` per-pattern shipping, FedX-style
  ``bound`` joins with solution batching, and the ``collect``
  data-dump baseline.
"""

from repro.federation.cost import CostModel, Decision, EndpointStats
from repro.federation.endpoint import PeerEndpoint
from repro.federation.faults import (
    FaultModel,
    FaultSession,
    FaultSpec,
    PartialAnswer,
    RetryPolicy,
    Unreachable,
)
from repro.federation.executor import (
    ADAPTIVE,
    FIXED_STRATEGIES,
    PARALLEL,
    STRATEGIES,
    FederatedExecutor,
    FederationResult,
    PreparedQuery,
)
from repro.federation.network import NetworkModel, NetworkStats
from repro.federation.plan import (
    BoundJoinStream,
    ExclusiveGroupScan,
    FederatedPlanner,
    FedOp,
    FilterNode,
    LeftJoinNode,
    LocalHashJoin,
    PlanInterpreter,
    PullScan,
    RemoteScan,
    UnionNode,
)
from repro.federation.statistics import StatisticsCatalog

__all__ = [
    "ADAPTIVE",
    "FIXED_STRATEGIES",
    "PARALLEL",
    "STRATEGIES",
    "BoundJoinStream",
    "CostModel",
    "Decision",
    "EndpointStats",
    "ExclusiveGroupScan",
    "FaultModel",
    "FaultSession",
    "FaultSpec",
    "FederatedExecutor",
    "FederatedPlanner",
    "FederationResult",
    "FedOp",
    "FilterNode",
    "LeftJoinNode",
    "LocalHashJoin",
    "NetworkModel",
    "NetworkStats",
    "PartialAnswer",
    "PeerEndpoint",
    "PlanInterpreter",
    "PreparedQuery",
    "PullScan",
    "RemoteScan",
    "RetryPolicy",
    "StatisticsCatalog",
    "UnionNode",
    "Unreachable",
]
