"""Mapping-topology workload generators.

Builds RPS instances whose peers are arranged in the topologies the
paper's motivation discusses — chains, stars and cycles.  Each edge
peer→peer carries a *vocabulary-translation* graph mapping assertion
(predicate renaming, the simplest non-trivial assertion) plus
sameAs-style equivalence links.

Cycles are the case prior two-tier rewriting approaches cannot handle,
while the RPS chase must terminate regardless of topology (Theorem 1).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Tuple

from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Literal, Variable
from repro.rdf.triples import Triple
from repro.peers.mappings import EquivalenceMapping, GraphMappingAssertion
from repro.peers.system import RPS

__all__ = [
    "peer_namespace",
    "build_topology_rps",
    "chain_rps",
    "star_rps",
    "cycle_rps",
]


def peer_namespace(index: int) -> Namespace:
    """Namespace of the i-th synthetic peer."""
    return Namespace(f"http://peer{index}.example.org/")


def _peer_graph(
    index: int,
    entities: int,
    facts: int,
    rng: random.Random,
) -> Graph:
    """Local data for one peer: ``knows`` edges plus ``age`` attributes.

    Every peer uses its own vocabulary (``peerN:knows`` etc.) so that
    information only flows through mappings.
    """
    ns = peer_namespace(index)
    graph = Graph(name=f"peer{index}")
    entity_iris = [ns.term(f"e{j}") for j in range(entities)]
    knows = ns.knows
    age = ns.age
    for _ in range(facts):
        a, b = rng.choice(entity_iris), rng.choice(entity_iris)
        graph.add(Triple(a, knows, b))
    for iri in entity_iris:
        graph.add(Triple(iri, age, Literal(str(rng.randint(10, 80)))))
    return graph


def _translation_assertion(source: int, target: int) -> GraphMappingAssertion:
    """``(x, peerS:knows, y) ⇝ (x, peerT:knows, y)``.

    The simplest vocabulary translation: whatever the source peer states
    with its ``knows`` predicate must be derivable in the target peer's
    vocabulary.
    """
    x, y = Variable("x"), Variable("y")
    src_ns, tgt_ns = peer_namespace(source), peer_namespace(target)
    q_src = GraphPatternQuery((x, y), make_pattern((x, src_ns.knows, y)))
    q_tgt = GraphPatternQuery((x, y), make_pattern((x, tgt_ns.knows, y)))
    return GraphMappingAssertion(
        q_src,
        q_tgt,
        source_peer=f"peer{source}",
        target_peer=f"peer{target}",
        label=f"peer{source}->peer{target}",
    )


def _entity_links(
    source: int, target: int, entities: int, fraction: float, rng: random.Random
) -> List[EquivalenceMapping]:
    """Equivalences identifying a fraction of entity IRIs across 2 peers."""
    src_ns, tgt_ns = peer_namespace(source), peer_namespace(target)
    out = []
    for j in range(entities):
        if rng.random() < fraction:
            out.append(
                EquivalenceMapping(src_ns.term(f"e{j}"), tgt_ns.term(f"e{j}"))
            )
    return out


def build_topology_rps(
    edges: Iterable[Tuple[int, int]],
    peers: int,
    entities: int = 10,
    facts: int = 20,
    link_fraction: float = 0.3,
    seed: int = 0,
) -> RPS:
    """Assemble an RPS from a peer-index edge list.

    Each directed edge (s, t) contributes one translation assertion
    s ⇝ t plus entity equivalences for a ``link_fraction`` of entities.

    The peers' schemas are extended with the IRIs their incoming
    assertions may introduce (the target queries use the target peer's
    vocabulary, which the peer already has; equivalences reference both
    sides' entity IRIs, which both schemas already contain).
    """
    rng = random.Random(seed)
    graphs: Dict[str, Graph] = {
        f"peer{i}": _peer_graph(i, entities, facts, rng) for i in range(peers)
    }
    assertions: List[GraphMappingAssertion] = []
    equivalences: List[EquivalenceMapping] = []
    seen_links = set()
    for source, target in edges:
        assertions.append(_translation_assertion(source, target))
        pair = frozenset((source, target))
        if pair in seen_links:
            continue
        seen_links.add(pair)
        equivalences.extend(
            _entity_links(source, target, entities, link_fraction, rng)
        )
    return RPS.from_graphs(graphs, assertions, equivalences)


def chain_rps(peers: int, **kwargs) -> RPS:
    """peer0 ⇝ peer1 ⇝ … ⇝ peerN-1."""
    return build_topology_rps(
        [(i, i + 1) for i in range(peers - 1)], peers, **kwargs
    )


def star_rps(peers: int, **kwargs) -> RPS:
    """All satellite peers map into peer0 (a hub)."""
    return build_topology_rps([(i, 0) for i in range(1, peers)], peers, **kwargs)


def cycle_rps(peers: int, **kwargs) -> RPS:
    """peer0 ⇝ peer1 ⇝ … ⇝ peerN-1 ⇝ peer0 — the case prior two-tier
    rewriting approaches cannot express."""
    return build_topology_rps(
        [(i, (i + 1) % peers) for i in range(peers)], peers, **kwargs
    )
