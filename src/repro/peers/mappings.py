"""Peer mappings: graph mapping assertions and equivalence mappings.

Section 2.2 defines two mapping kinds:

* a **graph mapping assertion** ``Q ⇝ Q′`` between two graph pattern
  queries of the same arity over the schemas of two peers, with the
  containment semantics ``Q_I ⊆ Q′_I`` (Definition 2, item 2);
* an **equivalence mapping** ``c ≡ₑ c′`` between schema constants, with
  the same-context semantics over ``subjQ``/``predQ``/``objQ`` under the
  blank-keeping ``Q*`` semantics (Definition 2, item 3) — the formal
  account of ``owl:sameAs``.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.errors import MappingError
from repro.gpq.query import GraphPatternQuery
from repro.rdf.graph import Graph
from repro.rdf.namespaces import OWL_SAME_AS
from repro.rdf.terms import IRI
from repro.peers.schema import PeerSchema

__all__ = ["GraphMappingAssertion", "EquivalenceMapping", "equivalences_from_sameas"]


class GraphMappingAssertion:
    """A graph mapping assertion ``Q ⇝ Q′``.

    Args:
        source: the query Q over the source peer's schema.
        target: the query Q′ over the target peer's schema.
        source_peer: name of the peer whose vocabulary Q uses (optional,
            for schema validation and diagnostics).
        target_peer: name of the peer whose vocabulary Q′ uses.
        label: diagnostic name.

    Raises:
        MappingError: if the arities differ.
    """

    __slots__ = ("source", "target", "source_peer", "target_peer", "label", "_hash")

    def __init__(
        self,
        source: GraphPatternQuery,
        target: GraphPatternQuery,
        source_peer: str = "",
        target_peer: str = "",
        label: str = "",
    ) -> None:
        if source.arity != target.arity:
            raise MappingError(
                f"mapping assertion arity mismatch: source {source.arity} "
                f"vs target {target.arity}"
            )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "source_peer", source_peer)
        object.__setattr__(self, "target_peer", target_peer)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash((source, target)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GraphMappingAssertion is immutable")

    def validate_against(
        self, source_schema: PeerSchema, target_schema: PeerSchema
    ) -> None:
        """Check that Q and Q′ only mention their peer's schema IRIs.

        Raises:
            MappingError: naming the first foreign IRI found.
        """
        for iri in self.source.iris():
            if iri not in source_schema:
                raise MappingError(
                    f"assertion source query uses {iri.n3()} outside the "
                    f"schema of peer {source_schema.name!r}"
                )
        for iri in self.target.iris():
            if iri not in target_schema:
                raise MappingError(
                    f"assertion target query uses {iri.n3()} outside the "
                    f"schema of peer {target_schema.name!r}"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphMappingAssertion):
            return NotImplemented
        return self.source == other.source and self.target == other.target

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        name = f"[{self.label}] " if self.label else ""
        return f"{name}{self.source.to_text()}  ~>  {self.target.to_text()}"


class EquivalenceMapping:
    """An equivalence mapping ``c ≡ₑ c′`` between schema constants.

    Args:
        left: the constant c (an IRI of some peer schema).
        right: the constant c′.

    Raises:
        MappingError: if either side is not an IRI, or both are equal.
    """

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: IRI, right: IRI) -> None:
        if not isinstance(left, IRI) or not isinstance(right, IRI):
            raise MappingError(
                "equivalence mappings relate schema IRIs; got "
                f"{left!r} ≡ {right!r}"
            )
        if left == right:
            raise MappingError(f"trivial equivalence {left.n3()} ≡ itself")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        # Symmetric value semantics: (a,b) == (b,a).
        object.__setattr__(self, "_hash", hash(frozenset((left, right))))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("EquivalenceMapping is immutable")

    def terms(self) -> Tuple[IRI, IRI]:
        return (self.left, self.right)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EquivalenceMapping):
            return NotImplemented
        return {self.left, self.right} == {other.left, other.right}

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.left.n3()} ≡ {self.right.n3()}"


def equivalences_from_sameas(
    graphs: Iterable[Graph],
    sameas_predicate: IRI = OWL_SAME_AS,
) -> List[EquivalenceMapping]:
    """Harvest equivalence mappings from ``owl:sameAs`` triples.

    Example 2 builds E as "an equivalence mapping c ≡ₑ c′ for each triple
    of the form (c, sameAs, c′)"; this helper does exactly that over any
    number of stored graphs.  Reflexive links are skipped; duplicates
    (including symmetric ones) collapse.
    """
    out: List[EquivalenceMapping] = []
    seen = set()
    for graph in graphs:
        for triple in graph.triples(predicate=sameas_predicate):
            subject, object_ = triple.subject, triple.object
            if not isinstance(subject, IRI) or not isinstance(object_, IRI):
                continue
            if subject == object_:
                continue
            key = frozenset((subject, object_))
            if key in seen:
                continue
            seen.add(key)
            out.append(EquivalenceMapping(subject, object_))
    return out
