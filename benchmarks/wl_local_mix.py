"""Workload ``local_mix``: the local SPARQL engine on ~120k triples.

``random_entity_graph`` with 33,333 entities, 8 predicates, 100,000
relation triples and 20,000 attribute triples.  ``sparql/`` and
``rdf/`` do all the work; ``federation/`` and ``runtime/`` none.  The
bulk class is seven result-heavy texts on the batch engine with a hot
plan cache; the point class puts the row engine (bare ``LIMIT``,
``ASK``) beside anchored lookups whose fresh subjects make every text
new, so parse, normalise and plan run each time and the run's distinct
texts outnumber the plan cache's 256 slots.
"""

from __future__ import annotations

from typing import Dict, List

import probes
from harness import Op, Spans, Workload
from repro.obs import NULL_TRACER, Tracer
from repro.rdf.terms import IRI
from repro.sparql.algebra import (
    evaluate_algebra,
    reference_select,
    translate_group,
)
from repro.sparql.cache import default_plan_cache
from repro.sparql.engine import execute, explain
from repro.sparql.parser import parse_query
from repro.workload import GeneratorConfig, random_entity_graph

LIMIT = 10
HOT = 2


def same_rows(rows, expected) -> bool:
    """Equal as sets, and ``rows`` holds no duplicate."""
    return len(rows) == len(set(rows)) and set(rows) == set(expected)


class LocalMix(Workload):
    """7 bulk ops and 24 point ops per round."""

    name = "local_mix"
    fresh_per_round = 20
    traced_rounds = 15

    def build(self) -> None:
        # The engine's process-wide plan cache keeps the graph of every
        # plan it holds alive; emptying it makes each set-up start as a
        # fresh process would, and keeps peak_rss_mb to one graph.
        default_plan_cache.clear()
        entities, triples, attributes = (
            (300, 900, 180) if self.quick else (33_333, 100_000, 20_000)
        )
        self.config = GeneratorConfig(
            entities=entities,
            predicates=8,
            triples=triples,
            attributes=attributes,
            seed=self.seed,
        )
        self.graph = random_entity_graph(self.config)
        ns = self.config.namespace
        p = [f"<{ns}p{i}>" for i in range(8)]
        value = f"<{ns}value>"
        self.path2 = f"SELECT ?a ?c WHERE {{ ?a {p[0]} ?b . ?b {p[1]} ?c }}"
        self.bulk_texts = {
            "path2": self.path2,
            "star2": (
                f"SELECT ?a ?b ?c WHERE {{ ?a {p[2]} ?b . ?a {p[3]} ?c }}"
            ),
            "path3": (
                f"SELECT ?a ?d WHERE {{ ?a {p[0]} ?b . ?b {p[1]} ?c . "
                f"?c {p[2]} ?d }}"
            ),
            "union_join": (
                f"SELECT ?a ?c WHERE {{ {{ ?a {p[4]} ?b }} UNION "
                f"{{ ?a {p[5]} ?b }} . ?b {p[6]} ?c }}"
            ),
            "optional": (
                f"SELECT ?a ?b ?v WHERE {{ ?a {p[7]} ?b "
                f"OPTIONAL {{ ?b {value} ?v }} }}"
            ),
            "filter": (
                f"SELECT ?a ?v WHERE {{ ?a {p[1]} ?b . ?b {value} ?v . "
                f'FILTER(?v != "7") }}'
            ),
            "topk": (
                f"SELECT ?a ?c WHERE {{ ?a {p[3]} ?b . ?b {p[4]} ?c }} "
                f"ORDER BY DESC(?b) ?a LIMIT {LIMIT}"
            ),
        }
        self.row_texts = {
            "limit": f"{self.path2} LIMIT {LIMIT}",
            "ask": f"ASK {{ ?a {p[0]} ?b . ?b {p[1]} ?c }}",
        }
        self.predicates = p

    def anchored(self, entity: int) -> str:
        """A 2-hop lookup from one ground subject."""
        ns, p = self.config.namespace, self.predicates
        return (
            f"SELECT ?b ?c WHERE {{ <{ns}e{entity}> {p[0]} ?b . "
            f"?b {p[1]} ?c }}"
        )

    def local_op(self, name, kind, text, tracer, check) -> Op:
        """One ``sparql.engine.execute`` call on the workload graph."""
        graph = self.graph
        active = tracer if tracer is not None else NULL_TRACER

        def run():
            return execute(graph, text, tracer=active)

        return Op(name, kind, run, check)

    def fixed_op(self, name, kind, text, tracer) -> Op:
        """An op whose text never changes: rows, or the ASK boolean."""

        def check(result) -> bool:
            rows = hasattr(result, "rows")
            return self.fixed(name, result.rows if rows else bool(result))

        return self.local_op(name, kind, text, tracer, check)

    def round(self, index: int, tracer=None) -> List[Op]:
        ops = [
            self.fixed_op(name, kind, text, tracer)
            for kind, texts in (
                ("bulk", self.bulk_texts),
                ("point", self.row_texts),
            )
            for name, text in texts.items()
        ]
        hot = self.fresh(0, self.config.entities)[:HOT]
        for entity in hot + self.fresh(index, self.config.entities):
            text = self.anchored(entity)
            ops.append(
                self.local_op(
                    "anchored.hot" if entity in hot else "anchored.cold",
                    "point",
                    text,
                    tracer,
                    lambda result, text=text: same_rows(
                        result.rows, self.reference_rows(text)
                    ),
                )
            )
        return ops

    def reference_rows(self, text: str):
        """Rows of ``text`` from the reference ``sparql/algebra.py``."""
        return reference_select(self.graph, parse_query(text))

    def optional_rows(self):
        """The OPTIONAL text's answer by index lookups alone.

        The reference evaluator's left join is quadratic (12k x 20k
        compatibility tests here), so this one oracle reads the two
        relations straight from ``Graph.triples``.
        """
        ns = self.config.namespace
        values = {}
        for triple in self.graph.triples(predicate=IRI(f"{ns}value")):
            values.setdefault(triple.subject, []).append(triple.object)
        rows = set()
        for triple in self.graph.triples(predicate=IRI(f"{ns}p7")):
            a, b = triple.subject, triple.object
            for v in values.get(b, [None]):
                rows.add((a, b, v))
        return rows

    def verify(self, name: str, answer) -> bool:
        if name == "optional":
            return same_rows(answer, self.optional_rows())
        if name == "ask":
            where = parse_query(self.row_texts["ask"]).where
            found = evaluate_algebra(self.graph, translate_group(where))
            return answer == bool(found)
        if name == "limit":
            full = self.reference_rows(self.path2)
            return len(answer) == min(LIMIT, len(full)) and set(
                answer
            ) <= set(full)
        reference = self.reference_rows(self.bulk_texts[name])
        if name == "topk":
            return answer == reference  # ORDER BY: the order counts
        return same_rows(answer, reference)

    def probe(self, spans: Spans) -> Dict[str, float]:
        graph = self.graph
        cold = [
            self.anchored(entity)
            for entity in self.fresh(500, self.config.entities)
        ]  # round 500 is far beyond the traced run's ten rounds
        out = probes.rdf_probes(spans, graph, self.seed)
        out.update(probes.sparql_front_probes(spans, cold))
        out.update(
            probes.sparql_engine_probes(
                spans, graph, self.bulk_texts, self.row_texts
            )
        )
        out.update(probes.kernel_probe(spans))
        tracer = Tracer()
        execute(graph, cold[0], tracer=tracer)
        out.update(
            probes.obs_probes(
                spans,
                tracer,
                lambda: explain(graph, self.path2, analyze=True),
            )
        )
        return out
