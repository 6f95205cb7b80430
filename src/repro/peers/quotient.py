"""The quotient of an RPS by ``≡ₑ``: one class map for both routes.

Definition 2(3) makes ``c ≡ₑ c′`` a congruence — the subject, predicate
and object contexts of both sides coincide in every solution — so
Algorithm 1 (:mod:`repro.peers.chase`) and the perfect rewriting
(:class:`repro.rewriting.redundancy.EquivalenceQuotient`) both work on
class representatives and expand by class at the end.  The
representative of a class is its least member in the library-wide term
order on either route, which is Listing 1's "Result without
redundancy".

Everything below the term-level :func:`canonical_map` is generic in the
cell type: the rewriting expands rows of terms, the chase maps and
expands triples of dictionary IDs.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    TYPE_CHECKING,
)

from repro.rdf.dictionary import IDTriple
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI

if TYPE_CHECKING:  # the system keeps its quotient graph: it imports us
    from repro.peers.system import RPS

__all__ = [
    "canonical_map",
    "class_members",
    "expand_by_class",
    "quotient_graph",
    "quotient_triples",
    "representative_ids",
]

Cell = TypeVar("Cell", bound=Hashable)


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


def representative_ids(
    representative: Mapping[IRI, IRI],
    member_id: Callable[[IRI], Optional[int]],
    representative_id: Callable[[IRI], int],
) -> Dict[int, int]:
    """Member ID → representative ID, for members that are not their own.

    ``member_id`` may answer ``None`` for a member the dictionary never
    saw (no triple can mention it); its representative is then not
    interned either.
    """
    out: Dict[int, int] = {}
    for member, canonical in representative.items():
        if member != canonical:
            tid = member_id(member)
            if tid is not None:
                out[tid] = representative_id(canonical)
    return out


def quotient_triples(
    triples: Iterable[IDTriple], to_representative: Mapping[int, int]
) -> Iterator[IDTriple]:
    """The ID triples with every class member replaced by its representative."""
    if not to_representative:
        return iter(triples)
    get = to_representative.get
    return ((get(s, s), get(p, p), get(o, o)) for s, p, o in triples)


def quotient_graph(stored: Graph, representative: Mapping[IRI, IRI]) -> Graph:
    """``stored`` with every class member replaced by its representative.

    One ID → ID map over the graph's ID triples, no ``Triple`` built;
    ``stored`` itself when no member of a class is in its dictionary.
    """
    dictionary = stored.dictionary
    to_representative = representative_ids(
        representative, dictionary.lookup, dictionary.encode
    )
    if not to_representative:
        return stored
    quotient = Graph(name=stored.name, dictionary=dictionary)
    quotient.add_id_triples(
        quotient_triples(stored.id_triples(), to_representative), dictionary
    )
    return quotient


def expand_by_class(
    rows: Iterable[Tuple[Cell, ...]], classes: Mapping[Cell, Sequence[Cell]]
) -> Iterator[Tuple[Cell, ...]]:
    """Every row with each representative replaced by each class member.

    Rows that mention no class come back as they are; the others as the
    product of their cells' classes (duplicates are the caller's).
    """
    if not classes:
        yield from rows
        return
    get = classes.get
    for row in rows:
        cells = [get(cell) for cell in row]
        if any(cells):
            yield from itertools.product(
                *[members or (cell,) for cell, members in zip(row, cells)]
            )
        else:
            yield row
