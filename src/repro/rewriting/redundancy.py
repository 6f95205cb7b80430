"""Equivalence classes at the rewriting boundary (Listing 1's two tables).

Equivalence mappings make certain answers redundant: every answer
appears once per equivalent IRI combination.  Listing 1 shows the
deduplicated result keeping one representative per equivalence class —
``DB1:Toby_Maguire`` rather than ``foaf:Toby_Maguire``, etc.  The
canonical representative is the least class member in the library-wide
term order, which reproduces the paper's choices exactly.

The classes are the ones the system keeps
(:meth:`repro.peers.system.RPS.class_map`), which both certain-answer
routes read: the rewriting entry points (:mod:`~repro.rewriting.perfect`,
:mod:`~repro.rewriting.boolean`, :mod:`~repro.rewriting.limits`) give
the rewriter the assertion TGDs and the query over representatives
(:func:`repro.peers.data_exchange.quotient_tgds`,
:func:`~repro.peers.data_exchange.quotient_atoms`), match against the
kept quotient of the stored graph, and expand by class
(:func:`repro.peers.quotient.expand_by_class`).  The "Result without
redundancy" is what the rewriting computes, the "Result" is its
expansion by class.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from repro.rdf.terms import IRI, Term
from repro.peers.system import RPS

__all__ = [
    "canonicalize_answer",
    "deduplicate_answers",
]


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
    mapping = system.class_map().representative
    return {canonicalize_answer(answer, mapping) for answer in answers}
