"""Definition 2: checking that a peer-to-peer database is a solution.

A peer-to-peer database I is a *solution* for an RPS P based on a stored
database D when (1) every stored peer database is contained in I, (2)
every graph mapping assertion satisfies ``Q_I ⊆ Q′_I``, and (3) every
equivalence mapping satisfies the three ``Q*`` context equalities.  This
module checks the definition directly — it is the ground truth the chase
and the property tests are verified against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.gpq.evaluation import evaluate_query, evaluate_query_star
from repro.gpq.query import obj_query, pred_query, subj_query
from repro.rdf.graph import Graph
from repro.peers.system import RPS

__all__ = ["SolutionReport", "is_solution", "check_solution"]


@dataclass
class SolutionReport:
    """Detailed outcome of a Definition-2 check.

    Attributes:
        ok: overall verdict.
        missing_stored: stored triples absent from the candidate.
        assertion_violations: per assertion, the tuples in Q_I \\ Q′_I.
        equivalence_violations: human-readable descriptions of failed
            context equalities.
    """

    ok: bool = True
    missing_stored: List[str] = field(default_factory=list)
    assertion_violations: List[Tuple[str, int]] = field(default_factory=list)
    equivalence_violations: List[str] = field(default_factory=list)


def check_solution(
    system: RPS, candidate: Graph, max_reported: int = 10
) -> SolutionReport:
    """Check Definition 2 for ``candidate``, reporting all failures."""
    report = SolutionReport()

    # Condition 1: d ⊆ I for every stored peer database d.
    for name in system.peer_names():
        for triple in system.peers[name].graph:
            if triple not in candidate:
                report.ok = False
                if len(report.missing_stored) < max_reported:
                    report.missing_stored.append(f"[{name}] {triple.n3()}")

    # Condition 2: Q_I ⊆ Q'_I for every graph mapping assertion.
    for index, assertion in enumerate(system.assertions):
        source_answers = evaluate_query(candidate, assertion.source)
        if not source_answers:
            continue
        target_answers = evaluate_query(candidate, assertion.target)
        violating = source_answers - target_answers
        if violating:
            report.ok = False
            label = assertion.label or f"assertion#{index}"
            report.assertion_violations.append((label, len(violating)))

    # Condition 3: subj/pred/obj context equalities (Q* semantics).
    for equivalence in system.equivalences:
        left, right = equivalence.terms()
        for probe_name, probe in (
            ("subjQ", subj_query),
            ("predQ", pred_query),
            ("objQ", obj_query),
        ):
            left_context = evaluate_query_star(candidate, probe(left))
            right_context = evaluate_query_star(candidate, probe(right))
            if left_context != right_context:
                report.ok = False
                difference = len(left_context ^ right_context)
                report.equivalence_violations.append(
                    f"{probe_name}({left.n3()}) != {probe_name}({right.n3()}) "
                    f"({difference} differing context tuples)"
                )
    return report


def is_solution(system: RPS, candidate: Graph) -> bool:
    """Boolean Definition-2 check."""
    return check_solution(system, candidate).ok
