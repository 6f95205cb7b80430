"""Listing 2: Boolean (ASK) query rewriting over the peer mappings.

Example 3 reduces certain-answer computation to Boolean queries: a
candidate tuple t is substituted into the query's free variables, and
the resulting ASK query is rewritten into a union of ASK queries (an
FO-query) that entails the mapping assertions — evaluated *directly over
the stored database*, no chase required.

The pipeline:

1. GPQ → relational BCQ over ``tt`` (Section-3 encoding), its constants
   replaced by the representatives of their ``≡ₑ`` classes;
2. UCQ rewriting under the guard-free graph mapping assertion TGDs over
   the same representatives — the equivalences reach the rewriter as
   classes, never as copy TGDs
   (:class:`repro.rewriting.redundancy.EquivalenceQuotient`);
3. disjuncts translated back to triple patterns, rendered as SPARQL ASK
   blocks (the ``ASK {{...} UNION {...}}`` shape of Listing 2, over
   representatives) and evaluated over the quotient of the stored
   ``Graph`` by the columnar batch engine (:func:`disjunct_plan`,
   shared with :mod:`repro.rewriting.perfect`), each disjunct read only
   until its first row — the stored database is never copied into a
   relational instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Union

from repro.errors import RewritingError, TripleError
from repro.gpq.query import GraphPatternQuery
from repro.rdf.graph import Graph
from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import IRI, Term, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.bridge import sparql_to_gpq
from repro.tgd.atoms import Atom, Constant, RelVar
from repro.tgd.cq import ConjunctiveQuery, UnionOfCQs
from repro.tgd.rewrite import RewriteResult, rewrite_ucq
from repro.peers.data_exchange import TT
from repro.peers.system import RPS
from repro.rewriting.redundancy import EquivalenceQuotient
from repro.sparql.algebra import Bgp
from repro.sparql.batch import BatchEmpty, BatchOp, build_batch_plan

__all__ = [
    "BooleanRewriting",
    "rewrite_boolean_query",
    "rewrite_over_quotient",
    "cq_to_ask_block",
    "disjunct_plan",
]


def _atoms_to_patterns(atoms: Iterable[Atom]) -> List[TriplePattern]:
    """Translate ``tt`` atoms back into triple patterns."""
    patterns: List[TriplePattern] = []
    for atom in atoms:
        if atom.predicate != TT:
            raise RewritingError(
                f"disjunct contains non-triple atom {atom!r}"
            )
        terms: List[Term] = []
        for arg in atom.args:
            if isinstance(arg, Constant):
                terms.append(arg.value)
            elif isinstance(arg, RelVar):
                terms.append(Variable(arg.name))
            else:
                raise RewritingError(f"null in rewritten query: {atom!r}")
        patterns.append(TriplePattern(terms[0], terms[1], terms[2]))
    return patterns


def disjunct_plan(stored: Graph, atoms: Iterable[Atom]) -> BatchOp:
    """The batch plan of a ``tt`` conjunction over ``stored``.

    Its ``execute()`` gives every match as ID columns, its ``chunks()``
    the same matches on demand.
    """
    try:
        patterns = _atoms_to_patterns(atoms)
    except TripleError:
        # Rewriting moved a literal into a predicate position: a
        # well-formed relational atom that no RDF triple can match.
        return BatchEmpty(frozenset())
    return build_batch_plan(stored, Bgp(tuple(patterns)))


def cq_to_ask_block(
    cq: ConjunctiveQuery, nsm: Optional[NamespaceManager] = None
) -> str:
    """Render one disjunct as the body of a SPARQL ASK block."""
    lines = []
    for pattern in _atoms_to_patterns(cq.body):
        parts = []
        for term in pattern:
            if nsm is not None and isinstance(term, IRI):
                parts.append(nsm.display(term))
            else:
                parts.append(term.n3())
        lines.append("  " + " ".join(parts) + " .")
    return "{\n" + "\n".join(lines) + "\n}"


@dataclass
class BooleanRewriting:
    """The rewriting of one Boolean query.

    Attributes:
        original: the input Boolean graph pattern query.
        ucq: the rewritten union of relational BCQs, over class
            representatives.
        stats: rewriting statistics.
        quotient: the equivalence classes the rewriting was made under.
    """

    original: GraphPatternQuery
    ucq: UnionOfCQs
    stats: RewriteResult
    quotient: EquivalenceQuotient

    def __len__(self) -> int:
        return len(self.ucq)

    def evaluate(self, stored: Graph) -> bool:
        """Evaluate the union over the stored database (no chase)."""
        return self.holds_in(self.quotient.graph(stored))

    def holds_in(self, quotient_graph: Graph) -> bool:
        """Does some disjunct match the already-quotiented graph?

        Stops at the first disjunct that holds, and reads each disjunct
        only up to its first chunk of matches.
        """
        return any(
            next(disjunct_plan(quotient_graph, cq.body).chunks(), None)
            is not None
            for cq in self.ucq
        )

    def to_sparql(self, nsm: Optional[NamespaceManager] = None) -> str:
        """The Listing-2 surface form: ``ASK {{...} UNION {...} ...}``."""
        blocks = [cq_to_ask_block(cq, nsm) for cq in self.ucq]
        if len(blocks) == 1:
            return "ASK " + blocks[0]
        return "ASK {" + "\nUNION\n".join(blocks) + "}"


def rewrite_boolean_query(
    system: RPS,
    query: Union[str, GraphPatternQuery],
    nsm: Optional[NamespaceManager] = None,
    max_queries: int = 20_000,
) -> BooleanRewriting:
    """Rewrite a Boolean query against the system's mapping TGDs.

    Args:
        system: the RPS supplying G and E.
        query: an arity-0 graph pattern query, or ASK SPARQL text.
        nsm: namespaces for SPARQL parsing.
        max_queries: rewriting budget.

    Raises:
        RewritingError: if the query is not Boolean, or the budget is
            exhausted.
    """
    gpq = query if isinstance(query, GraphPatternQuery) else sparql_to_gpq(query, nsm)
    return rewrite_over_quotient(
        EquivalenceQuotient(system), gpq, max_queries=max_queries
    )


def rewrite_over_quotient(
    quotient: EquivalenceQuotient,
    query: GraphPatternQuery,
    max_queries: int = 20_000,
) -> BooleanRewriting:
    """Rewrite a Boolean query under an already-built quotient.

    For callers that rewrite many queries against one system (the
    tuple-check reduction rewrites once per candidate).
    """
    if not query.is_boolean():
        raise RewritingError(
            "Boolean rewriting expects an arity-0 (ASK) query; "
            "use repro.rewriting.perfect for SELECT queries"
        )
    stats = rewrite_ucq(
        quotient.query(query, label="ask"), quotient.tgds, max_queries=max_queries
    )
    return BooleanRewriting(
        original=query, ucq=stats.ucq, stats=stats, quotient=quotient
    )
