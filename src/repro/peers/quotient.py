"""The quotient of an RPS by ``≡ₑ``: one class map for both routes.

Definition 2(3) makes ``c ≡ₑ c′`` a congruence — the subject, predicate
and object contexts of both sides coincide in every solution — so
Algorithm 1 (:mod:`repro.peers.chase`) and the perfect rewriting
(:mod:`repro.rewriting.perfect`) both work on class representatives and
expand by class at the end.  The representative of a class is its
least member in the library-wide term order, which is Listing 1's
"Result without redundancy".

The system builds the :class:`ClassMap` once per change to E and keeps
it (:meth:`repro.peers.system.RPS.class_map`), together with the
quotient of its stored graph (:func:`quotient_graph`); both routes read
those.  :func:`expand_by_class` is generic in the cell type: the
rewriting expands rows of terms, the chase triples of dictionary IDs.
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Sequence,
    Tuple,
    TypeVar,
    TYPE_CHECKING,
)

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI

if TYPE_CHECKING:  # the system keeps its quotient graph: it imports us
    from repro.peers.system import RPS

__all__ = [
    "ClassMap",
    "canonical_map",
    "class_members",
    "expand_by_class",
    "quotient_graph",
]

Cell = TypeVar("Cell", bound=Hashable)


class ClassMap(NamedTuple):
    """The classes of ``≡ₑ`` as the system keeps them: read, never change."""

    #: Class member → its representative (:func:`canonical_map`).
    representative: Dict[IRI, IRI]
    #: Representative → its class (:func:`class_members`).
    classes: Dict[IRI, List[IRI]]


def canonical_map(system: RPS) -> Dict[IRI, IRI]:
    """IRI → canonical representative of its equivalence class.

    The representative is the smallest member under the deterministic
    term order; IRIs not mentioned by any equivalence map to themselves
    (and are omitted from the dict).
    """
    out: Dict[IRI, IRI] = {}
    for iri, members in system.equivalence_classes().items():
        if iri not in out:  # one minimum per class, not per member
            canonical = min(members, key=lambda m: m.sort_key())
            out.update(dict.fromkeys(members, canonical))
    return out


def class_members(representative: Mapping[IRI, IRI]) -> Dict[IRI, List[IRI]]:
    """Representative → its class, classes and members in term order."""
    classes: Dict[IRI, List[IRI]] = {}
    for member in sorted(representative, key=lambda m: m.sort_key()):
        classes.setdefault(representative[member], []).append(member)
    return classes


def quotient_graph(stored: Graph, representative: Mapping[IRI, IRI]) -> Graph:
    """``stored`` with every class member replaced by its representative.

    One ID → ID map over the graph's ID triples, no ``Triple`` built;
    ``stored`` itself when no member of a class is in its dictionary (a
    member the dictionary never saw is in no triple, and its
    representative is not interned for it).
    """
    dictionary = stored.dictionary
    lookup, encode = dictionary.lookup, dictionary.encode
    to_representative: Dict[int, int] = {}
    for member, canonical in representative.items():
        if member != canonical:
            tid = lookup(member)
            if tid is not None:
                to_representative[tid] = encode(canonical)
    if not to_representative:
        return stored
    get = to_representative.get
    quotient = Graph(name=stored.name, dictionary=dictionary)
    quotient.add_id_triples(
        ((get(s, s), get(p, p), get(o, o)) for s, p, o in stored.id_triples()),
        dictionary,
    )
    return quotient


def expand_by_class(
    rows: Iterable[Tuple[Cell, ...]], classes: Mapping[Cell, Sequence[Cell]]
) -> Iterable[Tuple[Cell, ...]]:
    """Every row with each representative replaced by each class member.

    Rows that mention no class come back as they are, the others as the
    product of their cells' classes (duplicates are the caller's).
    Without classes ``rows`` itself comes back, so ``set()`` of a set of
    rows copies it without hashing a row again.
    """
    if not classes:
        return rows
    get = classes.get

    def expanded() -> Iterator[Tuple[Cell, ...]]:
        for row in rows:
            cells = [get(cell) for cell in row]
            if any(cells):
                yield from itertools.product(
                    *[members or (cell,) for cell, members in zip(row, cells)]
                )
            else:
                yield row

    return expanded()
