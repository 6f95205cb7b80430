"""Peer schemas: the sets of IRIs each peer uses (Section 2.2).

A peer schema *S* is "the set of all the constants u ∈ I adopted by the
corresponding peer to describe data in the form of RDF triples".  Schemas
need not be disjoint — two Linked Data sources may share IRIs.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator

from repro.errors import PeerSystemError
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Term

__all__ = ["PeerSchema"]


class PeerSchema:
    """An immutable set of IRIs identifying a peer's vocabulary.

    Args:
        name: the peer's identifier within the RPS.
        iris: the IRIs of the schema.

    Raises:
        PeerSystemError: if the name is empty or a non-IRI is supplied.
    """

    __slots__ = ("name", "iris", "_hash")

    def __init__(self, name: str, iris: Iterable[IRI]) -> None:
        if not name:
            raise PeerSystemError("peer name must be non-empty")
        iri_set = frozenset(iris)
        for iri in iri_set:
            if not isinstance(iri, IRI):
                raise PeerSystemError(
                    f"peer schema elements must be IRIs, got {iri!r}"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "iris", iri_set)
        object.__setattr__(self, "_hash", hash((name, iri_set)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PeerSchema is immutable")

    @staticmethod
    def from_graph(name: str, graph: Graph) -> "PeerSchema":
        """Infer the schema from a peer's data: all IRIs in its triples."""
        return PeerSchema(name, graph.iris())

    # -- set behaviour -----------------------------------------------------

    def __contains__(self, term: Term) -> bool:
        return term in self.iris

    def __iter__(self) -> Iterator[IRI]:
        return iter(self.iris)

    def __len__(self) -> int:
        return len(self.iris)

    def __or__(self, other: "PeerSchema") -> FrozenSet[IRI]:
        return self.iris | other.iris

    def __and__(self, other: "PeerSchema") -> FrozenSet[IRI]:
        return self.iris & other.iris

    # -- value object ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeerSchema):
            return NotImplemented
        return self.name == other.name and self.iris == other.iris

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PeerSchema({self.name!r}, {len(self.iris)} IRIs)"
