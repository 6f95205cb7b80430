"""Multi-tenant offered loads for concurrent execution.

A PDMS coordinator answers many peers' queries at once, so the
concurrency tests need *offered load*: a deterministic set of
tenants, each submitting one federated query drawn from the standard
templates (:func:`~repro.workload.federation.federated_path_query` and
friends).  Two shapes:

* :func:`tenant_workload` — a seeded mix of path / selective /
  exclusive queries across N tenants, the throughput-vs-load workload.
  Distinct tenants that draw the same template parameters share one
  query *object*, so the executor's prepared-plan reuse is exercised.
* :func:`skewed_tenant_workload` — one heavy tenant flooding the
  endpoints with a full path query next to a set of light anchored
  queries, the starvation workload the fairness disciplines are judged
  on.

Everything is a pure function of the seed: the same arguments always
produce the same tenants and queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.gpq.query import GraphPatternQuery
from repro.workload.federation import (
    federated_exclusive_query,
    federated_path_query,
    federated_selective_query,
)

__all__ = ["TenantQuery", "skewed_tenant_workload", "tenant_workload"]


@dataclass(frozen=True)
class TenantQuery:
    """One tenant's submission: a name and a query."""

    tenant: str
    query: GraphPatternQuery


def tenant_workload(
    tenants: int, seed: int = 0, entities: int = 20
) -> List[TenantQuery]:
    """A deterministic mixed offered load of ``tenants`` queries.

    Each tenant draws one template — selective path (twice as likely,
    the common cheap query), full path, or exclusive-group — with
    seeded parameters.  Tenants drawing identical parameters share the
    same query object, so the multi-tenant entry point's prepared-plan
    reuse kicks in exactly as it would for repeated real traffic.
    ``entities`` bounds the selective template's anchor entity (match
    it to the system's entity count).
    """
    if tenants < 1:
        raise ValueError(f"need >= 1 tenant: {tenants}")
    rng = random.Random(seed)
    shared: Dict[Tuple, GraphPatternQuery] = {}
    out: List[TenantQuery] = []
    for i in range(tenants):
        kind = rng.choice(("selective", "selective", "path", "exclusive"))
        if kind == "selective":
            key: Tuple = ("selective", rng.randrange(entities), 2)
            if key not in shared:
                shared[key] = federated_selective_query(
                    entity=key[1], hops=key[2]
                )
        elif kind == "path":
            key = ("path", rng.choice((1, 2)))
            if key not in shared:
                shared[key] = federated_path_query(hops=key[1])
        else:
            key = ("exclusive", 1)
            if key not in shared:
                shared[key] = federated_exclusive_query(hops=key[1])
        out.append(TenantQuery(f"t{i}", shared[key]))
    return out


def skewed_tenant_workload(
    light: int = 3, seed: int = 0, entities: int = 20
) -> List[TenantQuery]:
    """One flooding tenant next to ``light`` cheap anchored queries.

    The heavy tenant runs the full 2-hop path query — a burst of
    bound-join batches against every endpoint — while each light
    tenant runs one anchored selective query that needs only a few
    small requests.  Under FIFO admission the burst lands first and
    the light tenants queue behind all of it; a fairness discipline
    should interleave them instead, which ``tests/test_concurrency.py``
    measures as the max/min per-tenant stretch ratio.
    """
    if light < 1:
        raise ValueError(f"need >= 1 light tenant: {light}")
    rng = random.Random(seed)
    out = [TenantQuery("heavy", federated_path_query(hops=2))]
    for i in range(light):
        out.append(
            TenantQuery(
                f"light{i}",
                federated_selective_query(
                    entity=rng.randrange(entities), hops=2
                ),
            )
        )
    return out
