"""Equivalence classes at the rewriting boundary (Listing 1's two tables).

Equivalence mappings make certain answers redundant: every answer
appears once per equivalent IRI combination.  Listing 1 shows the
deduplicated result keeping one representative per equivalence class —
``DB1:Toby_Maguire`` rather than ``foaf:Toby_Maguire``, etc.  The
canonical representative is the least class member in the library-wide
term order, which reproduces the paper's choices exactly.

The same classes are how ``≡ₑ`` reaches the UCQ rewriter:
:class:`EquivalenceQuotient` is the one place every rewriting entry
point (:mod:`~repro.rewriting.perfect`, :mod:`~repro.rewriting.boolean`,
:mod:`~repro.rewriting.limits`) takes its TGDs, its stored graph and
its class map from.  The "Result without redundancy" is what the
rewriting computes, the "Result" is its expansion by class.

The class map itself (:func:`canonical_map`, re-exported here), the
ID → ID quotient of a graph and the expansion by class live in
:mod:`repro.peers.quotient`, below the import arm ``tgd ← peers ←
rewriting``: Algorithm 1 chases the same quotient with the same
representatives.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Set, Tuple

from repro.gpq.query import GraphPatternQuery
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Term
from repro.tgd.cq import ConjunctiveQuery
from repro.tgd.dependencies import TGD
from repro.peers.data_exchange import gpq_to_cq, quotient_atoms, quotient_tgds
from repro.peers.quotient import (
    canonical_map,
    class_members,
    expand_by_class,
    quotient_graph,
)
from repro.peers.system import RPS

__all__ = [
    "EquivalenceQuotient",
    "canonical_map",
    "canonicalize_answer",
    "deduplicate_answers",
]


class EquivalenceQuotient:
    """An RPS seen modulo ``≡ₑ``: what the rewriter is given.

    ``≡ₑ`` copies a triple to every member of a class in each of the
    three positions of the one ``tt`` relation, so it is a congruence:
    the certain answers under G ∪ E are the answers under G alone over
    the quotient, expanded by class.  No equivalence copy TGD is built.

    Attributes:
        representative: :func:`canonical_map` of the system.
        classes: representative → its class, in term order.
        tgds: the guard-free assertion TGDs over representatives.
    """

    def __init__(self, system: RPS) -> None:
        self._system = system
        self.representative: Dict[IRI, IRI] = canonical_map(system)
        self.classes: Dict[IRI, List[IRI]] = class_members(self.representative)
        self.tgds: List[TGD] = quotient_tgds(system, self.representative)

    def query(self, gpq: GraphPatternQuery, label: str = "q") -> ConjunctiveQuery:
        """The paper's ``Qbody`` of ``gpq`` with constants as representatives."""
        base = gpq_to_cq(gpq, label=label)
        return ConjunctiveQuery(
            base.head, quotient_atoms(base.body, self.representative), label=label
        )

    def graph(self, stored: Graph) -> Graph:
        """``stored`` with every class member replaced by its representative.

        ``stored`` itself when the system has no equivalence
        (:func:`repro.peers.quotient.quotient_graph`).
        """
        return quotient_graph(stored, self.representative)

    def stored(self) -> Graph:
        """The quotient of the system's stored database, as the system
        keeps it (:meth:`RPS.stored_quotient`): read it, do not add to it."""
        return self._system.stored_quotient()

    def expand(
        self, rows: Collection[Tuple[Term, ...]]
    ) -> Set[Tuple[Term, ...]]:
        """Every row with each representative replaced by each class member.

        Always a new set; without classes it is ``set(rows)``, which
        rehashes no row when ``rows`` is a set already.
        """
        if not self.classes:
            return set(rows)
        return set(expand_by_class(rows, self.classes))


def canonicalize_answer(
    answer: Tuple[Term, ...], mapping: Dict[IRI, IRI]
) -> Tuple[Term, ...]:
    """Replace each IRI in an answer tuple by its class representative."""
    return tuple(
        mapping.get(term, term) if isinstance(term, IRI) else term
        for term in answer
    )


def deduplicate_answers(
    system: RPS, answers: Iterable[Tuple[Term, ...]]
) -> Set[Tuple[Term, ...]]:
    """Listing 1's "Result without redundancy".

    Each answer tuple is canonicalised through the equivalence classes;
    duplicates collapse.  The result contains only canonical
    representatives.
    """
    mapping = canonical_map(system)
    return {canonicalize_answer(answer, mapping) for answer in answers}
