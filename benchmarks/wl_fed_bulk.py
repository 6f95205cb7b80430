"""Workload ``fed_bulk``: result-heavy federated queries over 3 peers.

Three peers x 3000 facts over 1000 shared entities (~12k triples).
Unanchored texts produce 3k-9k-row intermediates, so the federated
operators, the ID-binding plumbing and the columnar local joins do the
work while the runtime replays a handful of messages.  The point class
is anchored texts with fresh anchors every round, which keeps the
executor's prepare cache cold.
"""

from __future__ import annotations

from typing import Dict, List

import probes
from federated import FederatedWorkload
from harness import Op, Spans
from repro.obs import Tracer
from repro.workload.federation import (
    federated_ask_sparql,
    federated_limit_sparql,
    federated_optional_sparql,
    federated_topk_sparql,
    federated_union_filter_sparql,
)

BULK_STRATEGIES = ("adaptive", "parallel", "bound")
LIMIT = 10
ANCHORED = 20


class FedBulk(FederatedWorkload):
    """10 bulk ops and 22 point ops per round."""

    name = "fed_bulk"
    fresh_per_round = ANCHORED + 1

    def build(self) -> None:
        super().build()
        self.fixed_texts = {
            "path2": federated_limit_sparql(hops=2),
            "union_filter": federated_union_filter_sparql(),
            "topk": federated_topk_sparql(),
            "optional": federated_optional_sparql(),
            "ask": federated_ask_sparql(),
        }
        self.bulk_texts = ("path2", "union_filter", "topk")

    def round(self, index: int, tracer=None) -> List[Op]:
        texts = self.fixed_texts
        ops = [
            self.federated_op(
                f"{name}.{strategy}",
                "bulk",
                texts[name],
                strategy,
                tracer,
                fixed=name,
            )
            for name in self.bulk_texts
            for strategy in BULK_STRATEGIES
        ]
        ops.append(
            self.federated_op(
                "optional.parallel",
                "bulk",
                texts["optional"],
                "parallel",
                tracer,
                fixed="optional",
            )
        )
        anchors = self.fresh(index, self.entities)
        for i, anchor in enumerate(anchors[:ANCHORED]):
            strategy = BULK_STRATEGIES[i % len(BULK_STRATEGIES)]
            ops.append(
                self.federated_op(
                    f"anchored.{strategy}",
                    "point",
                    federated_limit_sparql(hops=2, anchor=anchor),
                    strategy,
                    tracer,
                )
            )
        ops.append(
            self.federated_op(
                "ask.adaptive",
                "point",
                texts["ask"],
                "adaptive",
                tracer,
                fixed="ask",
                ask=True,
            )
        )
        ops.append(
            self.federated_op(
                "anchored_limit.adaptive",
                "point",
                federated_limit_sparql(
                    hops=2, limit=LIMIT, anchor=anchors[-1]
                ),
                "adaptive",
                tracer,
                limit_of=federated_limit_sparql(hops=2, anchor=anchors[-1]),
                limit=LIMIT,
            )
        )
        return ops

    def probe(self, spans: Spans) -> Dict[str, float]:
        texts = self.fixed_texts
        executor = self.executor
        batch = {n: texts[n] for n in self.bulk_texts + ("optional",)}
        anchors = self.fresh(7, self.entities)
        cold = [federated_limit_sparql(hops=2, anchor=a) for a in anchors[:8]]
        rows = {
            "ask": texts["ask"],
            "limit": federated_limit_sparql(
                hops=2, limit=LIMIT, anchor=anchors[8]
            ),
        }
        tracer = Tracer()
        parallel = executor.execute(
            texts["path2"], "parallel", tracer=tracer, analyze=True
        )
        out = self.federated_probe(
            spans,
            batch,
            rows,
            cold,
            tracer,
            lambda: executor.explain(
                texts["path2"], strategy="parallel", analyze=True
            ),
        )
        out.update(probes.channel_metrics(parallel.channels))
        out.update(
            probes.bindings_probes(
                spans, executor, texts["path2"], texts["optional"]
            )
        )
        out.update(probes.overhead_probes(spans, executor, self.merged, batch))
        return out
