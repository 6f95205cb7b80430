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
"""

from __future__ import annotations

import itertools
from typing import Collection, Dict, Iterable, List, Set, Tuple

from repro.gpq.query import GraphPatternQuery
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Term
from repro.tgd.cq import ConjunctiveQuery
from repro.tgd.dependencies import TGD
from repro.peers.data_exchange import gpq_to_cq, quotient_atoms, quotient_tgds
from repro.peers.system import RPS

__all__ = [
    "EquivalenceQuotient",
    "canonical_map",
    "canonicalize_answer",
    "deduplicate_answers",
]


def canonical_map(system: RPS) -> Dict[IRI, IRI]:
    """IRI → canonical representative of its equivalence class.

    The representative is the smallest member under the deterministic
    term order; IRIs not mentioned by any equivalence map to themselves
    (and are omitted from the dict).
    """
    classes = system.equivalence_classes()
    out: Dict[IRI, IRI] = {}
    for iri, members in classes.items():
        out[iri] = min(members, key=lambda m: m.sort_key())
    return out


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
        self.classes: Dict[IRI, List[IRI]] = {}
        for member in sorted(self.representative, key=lambda m: m.sort_key()):
            self.classes.setdefault(self.representative[member], []).append(member)
        self.tgds: List[TGD] = quotient_tgds(system, self.representative)

    def query(self, gpq: GraphPatternQuery, label: str = "q") -> ConjunctiveQuery:
        """The paper's ``Qbody`` of ``gpq`` with constants as representatives."""
        base = gpq_to_cq(gpq, label=label)
        return ConjunctiveQuery(
            base.head, quotient_atoms(base.body, self.representative), label=label
        )

    def graph(self, stored: Graph) -> Graph:
        """``stored`` with every class member replaced by its representative.

        One ID → ID map over the graph's ID triples, no ``Triple`` built;
        ``stored`` itself when the system has no equivalence.
        """
        dictionary = stored.dictionary
        to_representative: Dict[int, int] = {}
        for member, representative in self.representative.items():
            member_id = dictionary.lookup(member)
            if member_id is not None and member != representative:
                to_representative[member_id] = dictionary.encode(representative)
        if not to_representative:
            return stored
        get = to_representative.get
        quotient = Graph(name=stored.name, dictionary=dictionary)
        quotient.add_id_triples(
            (
                (get(s, s), get(p, p), get(o, o))
                for s, p, o in stored.id_triples()
            ),
            dictionary,
        )
        return quotient

    def stored(self) -> Graph:
        """The quotient of the system's stored database."""
        return self.graph(self._system.stored_database())

    def expand(
        self, rows: Collection[Tuple[Term, ...]]
    ) -> Set[Tuple[Term, ...]]:
        """Every row with each representative replaced by each class member."""
        classes = self.classes
        if not classes:
            return set(rows)
        out: Set[Tuple[Term, ...]] = set()
        for row in rows:
            out.update(
                itertools.product(*[classes.get(cell, (cell,)) for cell in row])
            )
        return out


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
