"""Workload ``tenants_selective``: many small queries, shared runtime.

Four peers x 3000 facts over 1000 shared entities behind an executor
with ``batch_size=2`` and ``max_in_flight=8``: 64 tenants submit
anchored 3-hop texts at once, so each round issues hundreds of
messages that carry a few dozen rows.  ``prepare``, the cost model,
the planner and the discrete-event runtime dominate; the data plane
does little.  Anchors are fresh every round.
"""

from __future__ import annotations

from typing import Dict, List

import probes
from federated import FederatedWorkload
from harness import Op, Spans
from repro.obs import NULL_TRACER, Tracer
from repro.workload.federation import federated_limit_sparql

#: The 16 solo ops rotate over these.
SOLO_STRATEGIES = ("adaptive", "parallel", "bound", "naive")
#: (op name, adaptive) of the two concurrent ops.
CONCURRENT = (
    ("concurrent.fixed", False),
    ("concurrent.adaptive", True),
)


class TenantsSelective(FederatedWorkload):
    """2 bulk ops (64 tenants each) and 16 point ops per round."""

    name = "tenants_selective"
    peers = 4
    tenants = 64
    solos = 16
    executor_options = {"batch_size": 2, "max_in_flight": 8}
    traced_rounds = 15

    def build(self) -> None:
        if self.quick:
            self.tenants, self.solos = 8, 4
        self.fresh_per_round = self.tenants
        super().build()
        self.fixed_texts: Dict[str, str] = {}
        self.last_concurrent = {}

    def texts(self, index: int) -> List[str]:
        """The round's anchored 3-hop texts, one per tenant."""
        return [
            federated_limit_sparql(hops=3, anchor=anchor)
            for anchor in self.fresh(index, self.entities)
        ]

    def concurrent_op(self, name: str, queries, adaptive, tracer) -> Op:
        """One ``execute_concurrent`` call over the round's tenants."""
        executor = self.executor
        active = tracer if tracer is not None else NULL_TRACER

        def run():
            return executor.execute_concurrent(
                queries,
                strategy="bound",
                discipline="wrr",
                adaptive=adaptive,
                tracer=active,
            )

        def check(result) -> bool:
            self.last_concurrent[name] = result
            self.counters["federation.sim_makespan_s"] += result.makespan
            ok = len(result.outcomes) == len(queries)
            for outcome in result.outcomes:
                if outcome.result.partial is not None:
                    ok = False
                    continue
                self.count(outcome.result)
                expected = self.local_rows(queries[outcome.tenant])
                ok = ok and outcome.result.rows == expected
            return ok

        return Op(name, "bulk", run, check)

    def round(self, index: int, tracer=None) -> List[Op]:
        texts = self.texts(index)
        queries = {f"t{i}": text for i, text in enumerate(texts)}
        ops = [
            self.concurrent_op(name, queries, adaptive, tracer)
            for name, adaptive in CONCURRENT
        ]
        for i, text in enumerate(texts[: self.solos]):
            strategy = SOLO_STRATEGIES[i % len(SOLO_STRATEGIES)]
            ops.append(
                self.federated_op(
                    f"solo.{strategy}", "point", text, strategy, tracer
                )
            )
        return ops

    def probe(self, spans: Spans) -> Dict[str, float]:
        executor = self.executor
        texts = self.texts(7)
        queries = {f"t{i}": text for i, text in enumerate(texts)}
        batch = {f"a{i}": text for i, text in enumerate(texts[: self.solos])}

        tracer = Tracer()
        executor.execute_concurrent(
            queries,
            strategy="bound",
            discipline="wrr",
            adaptive=True,
            tracer=tracer,
        )
        out = self.federated_probe(
            spans,
            batch,
            {},
            self.texts(8)[:8],
            tracer,
            lambda: executor.explain(
                texts[0], strategy="parallel", analyze=True
            ),
        )
        fixed = probes.op_ms(spans, "concurrent.fixed")
        adaptive = probes.op_ms(spans, "concurrent.adaptive")
        result = self.last_concurrent["concurrent.adaptive"]
        out.update(probes.channel_metrics(result.channels))
        out.update(
            {
                "federation.concurrent.fixed.ms": fixed,
                "federation.concurrent.adaptive.ms": adaptive,
                "federation.adaptive_cost_x": probes.ratio(adaptive, fixed),
                "runtime.adjustments": len(result.adjustments),
            }
        )
        return out
