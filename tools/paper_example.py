"""Print Listing 1's two tables for the paper's Example 2, both routes.

Usage::

    python tools/paper_example.py

Answers the Listing-1 query over ``example2_rps()`` (Figure 1's three
sources, the ``Q₂ ⇝ Q₁`` assertion, one equivalence per stored
``owl:sameAs``) twice — by the chase (Algorithm 1, then the query over
the universal solution) and by perfect rewriting (Proposition 2, over
the quotient by ``≡ₑ``) — and prints, per route, the "Result" and the
"Result without redundancy" tables with the wall time; for the chase
also the sizes of the stored database D, of the quotient K the
fixpoint ran on and of the universal solution J it was expanded to,
with the firings, nulls and classes; for the rewriting the CQs
explored, the disjuncts evaluated and the number of equivalence classes
the answers were expanded by.

The exit code is 1 when either route's "Result" differs from
``PAPER_EXPECTED_ANSWERS`` or its "Result without redundancy" from
``PAPER_EXPECTED_NONREDUNDANT``.  Runs on a bare checkout: only the
standard library and ``src/`` are imported.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.peers import certain_answers_report  # noqa: E402
from repro.peers.quotient import quotient_graph  # noqa: E402
from repro.rdf.terms import IRI  # noqa: E402
from repro.rewriting import (  # noqa: E402
    certain_answers_by_rewriting,
    deduplicate_answers,
)
from repro.workload import (  # noqa: E402
    PAPER_EXPECTED_ANSWERS,
    PAPER_EXPECTED_NONREDUNDANT,
    example2_rps,
    figure1_namespaces,
    paper_query_text,
)


def print_table(title: str, rows, nsm) -> None:
    print(f"  {title}:")
    shown = sorted(
        tuple(nsm.display(t) if isinstance(t, IRI) else t.n3() for t in row)
        for row in rows
    )
    for row in shown:
        print("    " + "  ".join(f"{cell:24s}" for cell in row).rstrip())


def main() -> int:
    system, text = example2_rps(), paper_query_text()
    nsm = figure1_namespaces()

    start = time.perf_counter()
    report = certain_answers_report(system, text)
    chase_ms = (time.perf_counter() - start) * 1e3
    chased, chase = report.answers, report.chase
    start = time.perf_counter()
    rewritten = certain_answers_by_rewriting(system, text)
    rewriting_ms = (time.perf_counter() - start) * 1e3

    routes = {
        "chase": (chased, deduplicate_answers(system, chased)),
        "rewriting": (rewritten.answers, rewritten.nonredundant),
    }
    classes = system.class_map()
    quotient = quotient_graph(chase.solution, classes.representative)
    print(
        f"chase (Algorithm 1): {chase_ms:.1f} ms, "
        f"|D| {chase.stored_triples}, "
        f"|K| {len(quotient)}, "
        f"|J| {len(chase.solution)}, "
        f"firings {chase.assertion_firings}, "
        f"nulls {chase.blank_nodes_created}, "
        f"classes {len(classes.classes)}"
    )
    print(
        f"rewriting (Proposition 2): {rewriting_ms:.1f} ms, "
        f"explored {rewritten.explored}, disjuncts {rewritten.disjuncts}, "
        f"classes {len(classes.classes)}"
    )
    ok = True
    for route, (result, nonredundant) in routes.items():
        print(f"{route}:")
        print_table("Result", result, nsm)
        print_table("Result without redundancy", nonredundant, nsm)
        if (
            result != PAPER_EXPECTED_ANSWERS
            or nonredundant != PAPER_EXPECTED_NONREDUNDANT
        ):
            print(f"  MISMATCH: {route} differs from the published tables")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
