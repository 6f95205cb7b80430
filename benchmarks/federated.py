"""What the two federated workloads share: system, oracle, checks.

The oracle for every federated op is ``sparql.engine.execute`` on the
merged graph (``RPS.stored_database()``), the single-graph answer the
federation must reproduce.  SELECT ops compare row sets, ASK ops the
boolean, unordered ``LIMIT`` ops the count plus membership in the
unlimited answer.  A flagged ``PartialAnswer`` is a failure.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import probes
from harness import Op, Spans, Workload
from repro.federation import STRATEGIES, FederatedExecutor
from repro.obs import NULL_TRACER, Tracer
from repro.sparql.engine import execute
from repro.workload.federation import federated_rps


class FederatedWorkload(Workload):
    """A seeded ``federated_rps`` behind one ``FederatedExecutor``."""

    peers = 3
    entities = 1000
    facts = 3000
    quick_entities = 60
    quick_facts = 180
    executor_options: Dict[str, Any] = {}

    def build(self) -> None:
        if self.quick:
            self.entities = self.quick_entities
            self.facts = self.quick_facts
        self.system = federated_rps(
            peers=self.peers,
            entities=self.entities,
            facts=self.facts,
            seed=self.seed,
        )
        self.executor = FederatedExecutor(self.system, **self.executor_options)
        self._merged = None
        self._local_rows: Dict[str, Any] = {}
        #: Simulated-clock counters summed over every checked result,
        #: under their per-layer metric names.
        self.counters = dict.fromkeys(
            (
                "federation.messages",
                "federation.transfer_units",
                "federation.solutions_transferred",
                "federation.rows_out",
                "federation.sim_makespan_s",
            ),
            0,
        )

    @property
    def merged(self):
        """The oracle's graph, built on first use (never in an op)."""
        if self._merged is None:
            self._merged = self.system.stored_database()
        return self._merged

    def local_rows(self, text: str):
        """Row set (or boolean, for ASK) of ``text`` on the merged graph."""
        if text not in self._local_rows:
            if len(self._local_rows) > 1024:
                self._local_rows.clear()
            result = execute(self.merged, text)
            self._local_rows[text] = (
                set(result.rows) if hasattr(result, "rows") else bool(result)
            )
        return self._local_rows[text]

    def oracle(self, name: str):
        return self.local_rows(self.fixed_texts[name])

    def count(self, result) -> None:
        """Fold one ``FederationResult`` into the simulated counters."""
        stats, counters = result.stats, self.counters
        counters["federation.messages"] += stats.messages
        counters["federation.transfer_units"] += stats.transfer_units
        counters["federation.solutions_transferred"] += (
            stats.solutions_transferred
        )
        counters["federation.rows_out"] += len(result.rows)

    def answer(self, result):
        """Rows of a complete federated result; ``None`` when flagged."""
        if result.partial is not None:
            return None
        self.count(result)
        self.counters["federation.sim_makespan_s"] += (
            result.stats.elapsed_seconds
        )
        return result.rows

    def federated_op(
        self,
        name: str,
        kind: str,
        text: str,
        strategy: str,
        tracer=None,
        fixed: Optional[str] = None,
        ask: bool = False,
        limit_of: Optional[str] = None,
        limit: int = 0,
    ) -> Op:
        """One ``FederatedExecutor.execute`` call with its check.

        ``fixed`` names the shared reference answer of a text that
        never changes; otherwise the merged-graph oracle runs per
        round.  ``limit_of`` is the unlimited text of a ``LIMIT`` op.
        """
        executor = self.executor
        active = tracer if tracer is not None else NULL_TRACER
        analyze = tracer is not None

        def run():
            return executor.execute(
                text, strategy, tracer=active, analyze=analyze
            )

        def check(result) -> bool:
            rows = self.answer(result)
            if rows is None:
                return False
            if ask:
                rows = bool(rows)
            if fixed is not None:
                return self.fixed(fixed, rows)
            if limit_of is not None:
                full = self.local_rows(limit_of)
                return len(rows) == min(limit, len(full)) and rows <= full
            return rows == self.local_rows(text)

        return Op(name, kind, run, check)

    def federated_probe(
        self,
        spans: Spans,
        probe_texts: Dict[str, str],
        row_texts: Dict[str, str],
        cold_texts: List[str],
        traced: Tracer,
        analyze,
    ) -> Dict[str, float]:
        """The per-layer numbers both federated workloads report.

        ``probe_texts`` are the batch-engine texts executed prepared
        under every strategy and locally on the merged graph;
        ``cold_texts`` have never been prepared; ``traced`` holds one
        execution recorded with the program's tracer and ``analyze``
        renders an analyzed plan.
        """
        out = probes.rdf_probes(spans, self.merged, self.seed)
        out.update(
            probes.sparql_front_probes(
                spans, list(probe_texts.values()) + cold_texts
            )
        )
        out.update(
            probes.sparql_engine_probes(
                spans, self.merged, probe_texts, row_texts
            )
        )
        out.update(
            probes.federation_probes(
                spans, self.executor, probe_texts, cold_texts, STRATEGIES
            )
        )
        out.update(probes.kernel_probe(spans))
        out.update(probes.obs_probes(spans, traced, analyze))
        out.update(probes.replay_probe(spans, traced, self.executor))
        out.update(self.counters)
        return out
