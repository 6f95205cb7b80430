"""Proposition 3: RPS mapping TGDs are not FO-rewritable — empirically.

The paper's counterexample is the transitive-closure mapping assertion

.. code-block:: text

    ∀x∀y∃z  tt(x, A, z) ∧ tt(z, A, y) ∧ rt(x) ∧ rt(y)  →  tt(x, A, y)

whose certain answers include every ancestor pair of an A-chain, while
any *finite* UCQ rewriting has a maximal body size and therefore misses
pairs separated by longer chains.  This module builds that system and
the bounded-rewriting machinery used to demonstrate the gap:

* :func:`transitive_closure_rps` — one peer storing an A-chain of
  length n, with the transitivity assertion;
* :func:`bounded_rewriting_answers` — certain answers computed from the
  depth-d partial UCQ rewriting (sound but incomplete);
* :func:`rewriting_growth` — |UCQ| as a function of depth, the
  without-bound growth that contradicts FO-rewritability.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Variable
from repro.rdf.triples import Triple
from repro.tgd.rewrite import RewriteResult, rewrite_ucq
from repro.peers.mappings import GraphMappingAssertion
from repro.peers.system import RPS
from repro.rewriting.boolean import BooleanRewriting
from repro.rewriting.redundancy import EquivalenceQuotient

__all__ = [
    "CHAIN_NS",
    "transitivity_assertion",
    "transitive_closure_rps",
    "bounded_rewriting_answers",
    "rewriting_growth",
    "ancestor_query",
]

CHAIN_NS = Namespace("http://chain.example.org/")


def transitivity_assertion() -> GraphMappingAssertion:
    """``(x, A, z) AND (z, A, y) ⇝ (x, A, y)`` — Section 4's example."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    source = GraphPatternQuery(
        (x, y),
        make_pattern((x, CHAIN_NS.A, z), (z, CHAIN_NS.A, y)),
        name="Qtrans",
    )
    target = GraphPatternQuery(
        (x, y), make_pattern((x, CHAIN_NS.A, y)), name="Qedge"
    )
    return GraphMappingAssertion(
        source, target,
        source_peer="chain", target_peer="chain",
        label="transitivity",
    )


def transitive_closure_rps(chain_length: int) -> RPS:
    """One peer storing ``n0 -A-> n1 -A-> … -A-> n_k`` plus transitivity."""
    graph = Graph(
        (
            Triple(CHAIN_NS.term(f"n{i}"), CHAIN_NS.A, CHAIN_NS.term(f"n{i+1}"))
            for i in range(chain_length)
        ),
        name="chain",
    )
    return RPS.from_graphs({"chain": graph}, assertions=[transitivity_assertion()])


def ancestor_query(start: int = 0, end: Optional[int] = None) -> GraphPatternQuery:
    """``ASK { n_start A n_end }`` — reachable across the whole chain?"""
    if end is None:
        raise ValueError("end node index required")
    pattern = make_pattern(
        (CHAIN_NS.term(f"n{start}"), CHAIN_NS.A, CHAIN_NS.term(f"n{end}"))
    )
    return GraphPatternQuery((), pattern, name="ancestor")


def bounded_rewriting_answers(
    system: RPS,
    query: GraphPatternQuery,
    max_depth: int,
    max_queries: int = 100_000,
) -> Tuple[bool, RewriteResult]:
    """Evaluate the depth-bounded partial rewriting of a Boolean query.

    Returns ``(holds, stats)`` where ``holds`` is the (possibly
    incomplete) Boolean verdict of the depth-``max_depth`` UCQ
    under-approximation, evaluated over the stored database.
    """
    quotient = EquivalenceQuotient(system)
    stats = rewrite_ucq(
        quotient.query(query, label="ask"),
        quotient.tgds,
        max_queries=max_queries,
        max_depth=max_depth,
        strict=False,
    )
    rewriting = BooleanRewriting(
        original=query, ucq=stats.ucq, stats=stats, quotient=quotient
    )
    return rewriting.holds_in(quotient.stored()), stats


def rewriting_growth(
    query: GraphPatternQuery,
    system: RPS,
    depths: Sequence[int],
    max_queries: int = 100_000,
) -> Dict[int, int]:
    """|UCQ| of the depth-d partial rewriting, for each d in ``depths``.

    For the transitive-closure system this grows without bound — the
    empirical face of Proposition 3.
    """
    quotient = EquivalenceQuotient(system)
    bcq = quotient.query(query, label="ask")
    out: Dict[int, int] = {}
    for depth in depths:
        stats = rewrite_ucq(
            bcq,
            quotient.tgds,
            max_queries=max_queries,
            max_depth=depth,
            strict=False,
        )
        out[depth] = len(stats.ucq)
    return out
