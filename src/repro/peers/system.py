"""RDF Peer Systems: the triple ``P = (S, G, E)`` of Section 2.2.

An :class:`RPS` bundles peer schemas (with their stored databases),
graph mapping assertions and equivalence mappings, and exposes the
derived artefacts the rest of the library consumes: the stored database
*D* (union of peer databases), schema-closure validation, and the
equivalence classes of E.

The system keeps the class map of ``≡ₑ`` (:meth:`RPS.class_map`), one
stored graph and its quotient by ``≡ₑ`` (:meth:`RPS.stored_graph`,
:meth:`RPS.stored_quotient`) for both certain-answer routes: Algorithm 1
starts from the kept quotient, the rewriting matches its disjuncts
against it, and both expand by the kept classes.  Each is rebuilt only
when what it is made of changes: the equivalences for the class map;
the peer set, a peer's graph object or its mutation ``epoch`` for the
graphs, and the class map for the quotient.  They are shared across
calls, so they are read-only: read them, do not change them (a kept
graph whose own epoch moved is rebuilt).

It also keeps the prepared perfect rewritings of
:func:`repro.rewriting.perfect.certain_answers_by_rewriting`
(:meth:`RPS.prepared_rewritings`): one bounded LRU, made on first use,
of at most :data:`REWRITING_CAPACITY` entries.  An entry is keyed on
the query (the parsed query, or its text and namespace fingerprint),
``tuple(assertions)``, the kept class map by identity, the rewriting
budget and the Proposition-2 gate, so a new or appended assertion, a
new equivalence or another budget reaches a new key; it holds the UCQ
and, per disjunct, its answer picks and batch plan, re-planned when
the kept quotient's ``serial`` or ``epoch`` moves.  A failed
rewriting is never kept.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.errors import MappingError, PeerSystemError
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI
from repro.sparql.cache import PlanCache
from repro.peers.mappings import (
    EquivalenceMapping,
    GraphMappingAssertion,
    equivalences_from_sameas,
)
from repro.peers.peer import Peer
from repro.peers.quotient import (
    ClassMap,
    canonical_map,
    class_members,
    quotient_graph,
)
from repro.peers.schema import PeerSchema

#: A kept graph: what it was built from, the graph, and its epoch then.
_Kept = Tuple[Hashable, Graph, int]

__all__ = ["RPS", "REWRITING_CAPACITY"]

#: How many prepared rewritings (:meth:`RPS.prepared_rewritings`) one
#: system keeps; the least recently used goes first.
REWRITING_CAPACITY = 32


class RPS:
    """An RDF Peer System ``P = (S, G, E)``.

    Args:
        peers: the peers (each carrying its schema S ∈ 𝒮 and database d).
        assertions: the graph mapping assertions G.
        equivalences: the equivalence mappings E.
        validate: check mappings against peer schemas on construction.

    Raises:
        PeerSystemError: duplicate peer names.
        MappingError: a mapping references unknown peers or foreign IRIs
            (only when ``validate`` and the mapping names its peers).
    """

    def __init__(
        self,
        peers: Sequence[Peer],
        assertions: Sequence[GraphMappingAssertion] = (),
        equivalences: Sequence[EquivalenceMapping] = (),
        validate: bool = True,
    ) -> None:
        self.peers: Dict[str, Peer] = {}
        for peer in peers:
            if peer.name in self.peers:
                raise PeerSystemError(f"duplicate peer name {peer.name!r}")
            self.peers[peer.name] = peer
        self.assertions: List[GraphMappingAssertion] = list(assertions)
        self.equivalences: List[EquivalenceMapping] = list(equivalences)
        self._classes: Optional[Tuple[tuple, ClassMap]] = None
        self._stored: Optional[_Kept] = None
        self._quotient: Optional[_Kept] = None
        self._rewritings: Optional[PlanCache] = None
        if validate:
            self._validate()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_graphs(
        graphs: Dict[str, Graph],
        assertions: Sequence[GraphMappingAssertion] = (),
        equivalences: Sequence[EquivalenceMapping] = (),
        harvest_sameas: bool = False,
    ) -> "RPS":
        """Build an RPS from named graphs, inferring each peer's schema.

        Args:
            graphs: peer name → stored database.
            assertions: graph mapping assertions.
            equivalences: explicit equivalence mappings.
            harvest_sameas: additionally compile every ``owl:sameAs``
                stored triple into an equivalence mapping (Example 2).
        """
        peers = [Peer.from_graph(name, graph) for name, graph in graphs.items()]
        eqs = list(equivalences)
        if harvest_sameas:
            existing = set(eqs)
            for mapping in equivalences_from_sameas(graphs.values()):
                if mapping not in existing:
                    existing.add(mapping)
                    eqs.append(mapping)
        return RPS(peers, assertions, eqs)

    def _validate(self) -> None:
        for assertion in self.assertions:
            if assertion.source_peer:
                source = self._peer_schema(assertion.source_peer)
                target = self._peer_schema(assertion.target_peer)
                assertion.validate_against(source, target)
        known = self.all_schema_iris()
        for equivalence in self.equivalences:
            for side in equivalence.terms():
                if side not in known:
                    raise MappingError(
                        f"equivalence constant {side.n3()} belongs to no "
                        "peer schema"
                    )

    def _peer_schema(self, name: str) -> PeerSchema:
        try:
            return self.peers[name].schema
        except KeyError:
            raise MappingError(f"mapping references unknown peer {name!r}") from None

    # -- accessors ---------------------------------------------------------------

    def peer_names(self) -> List[str]:
        return sorted(self.peers.keys())

    def all_schema_iris(self) -> Set[IRI]:
        """``S₁ ∪ … ∪ Sₙ`` — the vocabulary of the whole system."""
        out: Set[IRI] = set()
        for peer in self.peers.values():
            out.update(peer.schema.iris)
        return out

    def stored_database(self) -> Graph:
        """The stored database D: the union of all peer databases.

        A new graph on every call, the caller's to change; for reading
        D again and again use :meth:`stored_graph`.
        """
        union = Graph(name="stored")
        for name in self.peer_names():
            union.add_all(self.peers[name].graph)
        return union

    def stored_graph(self) -> Graph:
        """D, kept across calls until a peer's graph changes.

        Rebuilt when the peer set, a peer's graph object or that
        graph's ``epoch`` differs from the last build.  Read it, do not
        add to it.
        """
        key = tuple(
            (name, peer.graph.serial, peer.graph.epoch)
            for name, peer in sorted(self.peers.items())
        )
        self._stored = _keep(self._stored, key, self.stored_database)
        return self._stored[1]

    def stored_quotient(self) -> Graph:
        """:meth:`stored_graph` with every ``≡ₑ`` class member replaced
        by its representative in :meth:`class_map`.

        Kept like :meth:`stored_graph`, and also rebuilt when the class
        map is; the stored graph itself when E is empty.  Read it, do
        not add to it.
        """
        stored = self.stored_graph()
        classes = self.class_map()
        self._quotient = _keep(
            self._quotient,
            (stored.serial, stored.epoch, classes),
            lambda: quotient_graph(stored, classes.representative),
        )
        return self._quotient[1]

    def prepared_rewritings(self) -> PlanCache:
        """The perfect rewritings this system keeps, made on first use.

        Filled and read only by
        :func:`repro.rewriting.perfect.certain_answers_by_rewriting`,
        whose keys carry every input an entry was derived from; at
        most :data:`REWRITING_CAPACITY` entries.
        """
        if self._rewritings is None:
            self._rewritings = PlanCache(REWRITING_CAPACITY)
        return self._rewritings

    def total_stored_triples(self) -> int:
        return sum(len(p.graph) for p in self.peers.values())

    # -- mutation -------------------------------------------------------------------

    def add_assertion(self, assertion: GraphMappingAssertion) -> None:
        if assertion.source_peer:
            assertion.validate_against(
                self._peer_schema(assertion.source_peer),
                self._peer_schema(assertion.target_peer),
            )
        self.assertions.append(assertion)

    def add_equivalence(self, equivalence: EquivalenceMapping) -> None:
        known = self.all_schema_iris()
        for side in equivalence.terms():
            if side not in known:
                raise MappingError(
                    f"equivalence constant {side.n3()} belongs to no peer schema"
                )
        self.equivalences.append(equivalence)

    # -- equivalence classes -----------------------------------------------------------

    def class_map(self) -> ClassMap:
        """The classes of ``≡ₑ``, each member's representative
        (:func:`repro.peers.quotient.canonical_map`) and each
        representative's class, kept until ``equivalences`` changes.

        The one class map of both routes: Algorithm 1
        (:mod:`repro.peers.chase`) chases the quotient by it and the
        rewriting route (:mod:`repro.rewriting.perfect`) rewrites over
        it.  Read it, do not change it.
        """
        key = tuple(self.equivalences)
        if self._classes is None or self._classes[0] != key:
            representative = canonical_map(self)
            self._classes = (
                key,
                ClassMap(representative, class_members(representative)),
            )
        return self._classes[1]

    def equivalence_classes(self) -> Dict[IRI, Set[IRI]]:
        """Union-find closure of E: each IRI → its full equivalence class.

        E is a set of pairs; its reflexive-symmetric-transitive closure
        partitions the affected IRIs.  :meth:`class_map` is what the
        rest of the library reads.
        """
        index: Dict[IRI, int] = {}
        for equivalence in self.equivalences:
            for side in equivalence.terms():
                index.setdefault(side, len(index))
        parent = list(range(len(index)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for equivalence in self.equivalences:
            left, right = equivalence.terms()
            parent[find(index[left])] = find(index[right])
        classes: Dict[int, Set[IRI]] = {}
        for iri, number in index.items():
            classes.setdefault(find(number), set()).add(iri)
        return {iri: classes[find(number)] for iri, number in index.items()}

    def __repr__(self) -> str:
        return (
            f"RPS({len(self.peers)} peers, {len(self.assertions)} assertions, "
            f"{len(self.equivalences)} equivalences)"
        )


def _keep(kept: Optional[_Kept], key: Hashable, build) -> _Kept:
    """``kept`` while it was built from ``key`` and nobody changed it,
    else a fresh build."""
    if kept is not None and kept[0] == key and kept[1].epoch == kept[2]:
        return kept
    graph = build()
    return (key, graph, graph.epoch)
