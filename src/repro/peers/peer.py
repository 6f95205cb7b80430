"""A peer: a schema plus its stored RDF database (Section 2.3).

For each peer schema S the RPS holds a database *d* of triples
``(s, p, o) ∈ (S ∪ B) × S × (S ∪ B ∪ L)`` — every IRI in a stored triple
must come from the peer's own schema.  :meth:`Peer.from_graph` infers
the schema from the data, so this holds by construction.
"""

from __future__ import annotations

from repro.rdf.graph import Graph
from repro.peers.schema import PeerSchema

__all__ = ["Peer"]


class Peer:
    """A named peer with a schema and a local triple store.

    Args:
        schema: the peer's schema.
        graph: the stored database.
    """

    def __init__(self, schema: PeerSchema, graph: Graph) -> None:
        self.schema = schema
        self.graph = graph
        if not self.graph.name:
            self.graph.name = schema.name

    @staticmethod
    def from_graph(name: str, graph: Graph) -> "Peer":
        """Build a peer whose schema is inferred from its data."""
        return Peer(PeerSchema.from_graph(name, graph), graph)

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self.graph)

    def __repr__(self) -> str:
        return f"Peer({self.name!r}, {len(self.graph)} triples)"
