"""Workload ``certain_answers``: the paper's own pipeline, two ways.

A 5-peer cycle of translation assertions without equivalences
(``cycle_rps``, 100 entities and 300 facts per peer) and the
Figure-1-shaped film system with ~220 harvested ``owl:sameAs``
equivalences (``scaled_film_rps``, 60 films).  Every round
materialises both universal solutions (Algorithm 1), answers path
queries over the cycle solution and by perfect rewriting, and asks
anchored Listing-1-shaped questions of the film solution.  Rewriting
only runs on the equivalence-free system: with equivalences it
exhausts its budget (``RewritingError``), a finding of the paper's
Proposition 3, not a failure of an op.
"""

from __future__ import annotations

import time
from typing import Dict, List

import probes
from harness import Op, Spans, Workload
from repro.gpq.evaluation import evaluate_query
from repro.peers import (
    certain_answers,
    certain_ask,
    chase_universal_solution,
    chase_via_data_exchange,
    gpq_to_cq,
    is_solution,
    rewriting_tgds,
)
from repro.rewriting import ANS, certain_answers_by_rewriting
from repro.tgd.atoms import Atom, RelVar
from repro.tgd.cq import ConjunctiveQuery
from repro.tgd.rewrite import rewrite_ucq
from repro.workload import (
    PAPER_EXPECTED_ANSWERS,
    cycle_rps,
    example2_rps,
    paper_query_text,
    path_query,
    peer_namespace,
    scaled_film_rps,
)

FILM_QUERIES = 5


def film_text(film: int) -> str:
    """Listing 1 anchored at ``film``: its actors and their ages."""
    return (
        "PREFIX DB1: <http://db1.example.org/> "
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
        f"SELECT ?x ?y WHERE {{ DB1:film{film} DB1:starring ?z . "
        "?z DB1:artist ?x . ?x foaf:age ?y }"
    )


class CertainAnswers(Workload):
    """3 bulk ops and 9 point ops per round."""

    name = "certain_answers"
    fresh_per_round = FILM_QUERIES
    traceable = False
    traced_rounds = 5

    def build(self) -> None:
        quick = self.quick
        self.cycle = cycle_rps(
            5,
            entities=20 if quick else 100,
            facts=60 if quick else 300,
            link_fraction=0.0,
            seed=self.seed,
        )
        self.films = 12 if quick else 60
        self.film = scaled_film_rps(
            films=self.films, linked_fraction=0.5, seed=self.seed
        )
        self.paper = example2_rps()
        knows = [peer_namespace(i).knows for i in range(2)]
        self.q1 = path_query(knows[:1], project_all=True)
        self.q2 = path_query(knows, project_all=True)
        #: This round's raw results by op name, for cross-op checks.
        self.results = {}
        self._exchange = {}

    def chase_op(self, name: str, system) -> Op:
        """Algorithm 1 on one system; later ops read its solution."""

        def run():
            self.results[name] = chase_universal_solution(system)
            return self.results[name]

        def check(result) -> bool:
            counters = (
                len(result.solution),
                result.rounds,
                result.assertion_firings,
                result.equivalence_triples,
            )
            self.defer(name + ".solution", result.solution)
            return self.fixed(name, counters)

        return Op(name, "bulk", run, check)

    def round(self, index: int, tracer=None) -> List[Op]:
        results = self.results
        cycle, film = self.cycle, self.film

        def solution(name):
            return results[name].solution

        def keep(name, call):
            def run():
                results[name] = call()
                return results[name]

            return run

        ops = [
            self.chase_op("chase.cycle", cycle),
            self.chase_op("chase.film", film),
            Op(
                "rewriting.q2",
                "bulk",
                keep(
                    "rewriting.q2",
                    lambda: certain_answers_by_rewriting(cycle, self.q2),
                ),
                lambda result: self.fixed("rewriting.q2", result.answers),
            ),
            Op(
                "chase_answers.q1",
                "point",
                lambda: certain_answers(
                    cycle, self.q1, solution=solution("chase.cycle")
                ),
                lambda answers: answers == results["rewriting.q1"].answers,
            ),
            Op(
                "chase_answers.q2",
                "point",
                lambda: certain_answers(
                    cycle, self.q2, solution=solution("chase.cycle")
                ),
                lambda answers: answers == results["rewriting.q2"].answers,
            ),
            Op(
                "rewriting.q1",
                "point",
                keep(
                    "rewriting.q1",
                    lambda: certain_answers_by_rewriting(cycle, self.q1),
                ),
                lambda result: self.fixed("rewriting.q1", result.answers),
            ),
        ]
        films = self.fresh(index, self.films)
        for number in films:
            text = film_text(number)
            ops.append(
                Op(
                    "film.answers",
                    "point",
                    lambda text=text: certain_answers(
                        film, text, solution=solution("chase.film")
                    ),
                    lambda answers, number=number: self.fixed(
                        f"film.{number}", answers
                    ),
                )
            )
        ask_text = film_text(films[0])
        ops.append(
            Op(
                "film.ask",
                "point",
                lambda: certain_ask(
                    film, ask_text, solution=solution("chase.film")
                ),
                lambda held, number=films[0]: held
                == bool(self.reference(f"film.{number}")),
            )
        )
        return ops

    def finish(self, samples) -> None:
        """Deferred oracles, then the paper's own example.

        Listing 1 over ``example2_rps()`` must yield the published
        answers; if the pipeline gets that wrong, no answer of the run
        counts as checked.
        """
        super().finish(samples)
        start = time.perf_counter()
        answers = certain_answers(self.paper, paper_query_text())
        self.oracle_seconds += time.perf_counter() - start
        if answers != PAPER_EXPECTED_ANSWERS:
            for sample in samples:
                sample.ok = False

    def verify(self, name: str, answer) -> bool:
        """Independent checks of the reference answers.

        Chase solutions must satisfy Definition 2; film answers must
        match the relational (Section 3) chase; the rewriting answers
        are already compared with the chase answers every round and
        here with the relational chase as a third opinion.
        """
        if name.endswith(".solution"):
            system = self.cycle if "cycle" in name else self.film
            return is_solution(system, answer)
        if name.startswith("chase."):
            return True  # counters: only their stability is checked
        if name.startswith("film."):
            text = film_text(int(name.split(".")[1]))
            return answer == certain_answers(
                self.film, text, solution=self.exchange("film")
            )
        query = self.q1 if name.endswith("q1") else self.q2
        return answer == certain_answers(
            self.cycle, query, solution=self.exchange("cycle")
        )

    def exchange(self, which: str):
        """Universal solution by the relational chase, computed once."""
        if which not in self._exchange:
            system = self.cycle if which == "cycle" else self.film
            self._exchange[which], _ = chase_via_data_exchange(system)
        return self._exchange[which]

    def probe(self, spans: Spans) -> Dict[str, float]:
        cycle = self.results["chase.cycle"]
        film = self.results["chase.film"]
        for _ in range(probes.REPEAT):
            with spans.span("gpq.evaluate"):
                evaluate_query(cycle.solution, self.q2)
        # The rewriting half of certain_answers_by_rewriting(q2): the
        # head reified as an answer atom, then rewrite_ucq; the rest
        # of that op's wall is homomorphism search over the instance.
        base = gpq_to_cq(self.q2, label="q")
        answer = Atom(ANS, *[RelVar(v.name) for v in self.q2.head])
        reified = ConjunctiveQuery([], list(base.body) + [answer])
        tgds = rewriting_tgds(self.cycle)
        for _ in range(probes.REPEAT):
            with spans.span("tgd.rewrite_ucq"):
                rewritten = rewrite_ucq(reified, tgds)
        chase_ms = {
            name: probes.op_ms(spans, f"chase.{name}")
            for name in ("cycle", "film")
        }
        inferred = cycle.inferred_triples + film.inferred_triples
        rewrite_ms = spans.median_ms("tgd.rewrite_ucq")
        q2_ms = probes.op_ms(spans, "rewriting.q2")
        out = probes.rdf_probes(spans, cycle.solution, self.seed)
        out.update(
            probes.sparql_front_probes(
                spans, [film_text(n) for n in range(FILM_QUERIES)]
            )
        )
        out.update(probes.kernel_probe(spans))
        out.update(probes.obs_probes(spans, None, None))
        out.update(
            {
                "gpq.evaluate.ms": spans.median_ms("gpq.evaluate"),
                "tgd.rewrite_ucq.ms": rewrite_ms,
                "tgd.rewrite.explored": rewritten.explored,
                "tgd.rewrite.disjuncts": len(rewritten.ucq),
                "tgd.rewrite.useful_ratio": probes.ratio(
                    len(rewritten.ucq), rewritten.explored
                ),
                "peers.chase.cycle.ms": chase_ms["cycle"],
                "peers.chase.film.ms": chase_ms["film"],
                "peers.chase.rounds": cycle.rounds + film.rounds,
                "peers.chase.solution_triples": len(cycle.solution)
                + len(film.solution),
                "peers.chase.assertion_firings": cycle.assertion_firings
                + film.assertion_firings,
                "peers.chase.equivalence_triples": (
                    cycle.equivalence_triples + film.equivalence_triples
                ),
                "peers.chase.inferred_per_s": probes.ratio(
                    inferred, sum(chase_ms.values()) / 1e3
                ),
                "rewriting.q1.ms": probes.op_ms(spans, "rewriting.q1"),
                "rewriting.q2.ms": q2_ms,
                "rewriting.match.ms": q2_ms - rewrite_ms,
            }
        )
        return out
