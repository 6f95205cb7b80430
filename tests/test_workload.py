"""The workload generators land the data a per-triple build lands.

The generators intern their vocabulary once and bulk-add ID triples.
Each test here rebuilds the same data the way they did before, one
``Graph.add(Triple(...))`` at a time under the same seed, and holds the
bulk build to it: the same triples in the same insertion order (which
fixes every ordering's run order, chunk order and un-ordered ``LIMIT``
window), and the same orderings after the same reads.  The bulk path's
own contract (``Graph.add_id_triples``) is pinned in
``tests/test_graph.py``.
"""

import random

import pytest

from repro.errors import TripleError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.namespaces import OWL_SAME_AS, Namespace
from repro.rdf.terms import BlankNode, Literal, Variable
from repro.rdf.triples import Triple
from repro.workload.federation import SHARED, federated_rps
from repro.peers.system import RPS
from repro.workload.film_domain import (
    DB1,
    DB2,
    FOAF,
    example2_assertion,
    scaled_film_rps,
)
from repro.workload.generators import (
    GeneratorConfig,
    random_entity_graph,
    vocabulary_ids,
)
from repro.workload.topologies import _entity_links, cycle_rps, peer_namespace


def assert_same_graph(bulk, reference):
    """Same triples in the same order, and the same orderings after the
    same reads (one per ordering, anchored at the first triple)."""
    assert list(bulk) == list(reference)
    assert bulk.epoch == reference.epoch
    anchor = next(reference.id_triples(), None)
    if anchor is None:
        return
    s, p, o = anchor
    for key in ((s, None, None), (None, p, None), (None, None, o)):
        want = list(reference.triples_ids(*key))
        assert list(bulk.triples_ids(*key)) == want
        assert bulk.index_stats() == reference.index_stats()
    assert bulk.check_index_coherence()


# -- per-triple reference builds ---------------------------------------------


def reference_entity_graph(config):
    rng = random.Random(config.seed)
    ns = Namespace(config.namespace)
    entities = [
        BlankNode(f"b{i}") if rng.random() < config.blank_fraction
        else ns.term(f"e{i}")
        for i in range(config.entities)
    ]
    predicates = [ns.term(f"p{i}") for i in range(config.predicates)]
    graph = Graph(name="random")
    if not entities or not predicates:
        return graph
    for _ in range(config.triples):
        subject = rng.choice(entities)
        predicate = rng.choice(predicates)
        graph.add(Triple(subject, predicate, rng.choice(entities)))
    for _ in range(config.attributes):
        subject = rng.choice(entities)
        value = Literal(str(rng.randint(0, 99)))
        graph.add(Triple(subject, ns.term("value"), value))
    return graph


def reference_federated_graphs(peers, entities, facts, seed):
    rng = random.Random(seed)
    iris = [SHARED.term(f"e{i}") for i in range(entities)]
    graphs = []
    for k in range(peers):
        ns = peer_namespace(k)
        graph = Graph(name=f"peer{k}")
        mentioned = set()
        for _ in range(facts):
            a, b = rng.choice(iris), rng.choice(iris)
            graph.add(Triple(a, ns.knows, b))
            mentioned.update((a, b))
        for iri in sorted(mentioned, key=lambda t: t.sort_key()):
            age = Literal(str(rng.randint(10, 80)))
            graph.add(Triple(iri, ns.age, age))
        graphs.append(graph)
    return graphs


def reference_peer_graph(index, entities, facts, rng):
    ns = peer_namespace(index)
    graph = Graph(name=f"peer{index}")
    iris = [ns.term(f"e{j}") for j in range(entities)]
    for _ in range(facts):
        a, b = rng.choice(iris), rng.choice(iris)
        graph.add(Triple(a, ns.knows, b))
    for iri in iris:
        graph.add(Triple(iri, ns.age, Literal(str(rng.randint(10, 80)))))
    return graph


def reference_film_graphs(films, actors_per_film, linked_fraction, seed):
    rng = random.Random(seed)
    source1, source2, source3 = Graph(), Graph(), Graph()
    for f in range(films):
        film1, film2 = DB1.term(f"film{f}"), DB2.term(f"movie{f}")
        if rng.random() < linked_fraction:
            source1.add(Triple(film1, OWL_SAME_AS, film2))
        for a in range(actors_per_film):
            actor_id = f * actors_per_film + a
            actor1 = DB1.term(f"actor{actor_id}")
            actor2 = DB2.term(f"player{actor_id}")
            person = FOAF.term(f"person{actor_id}")
            node = BlankNode(f"st_{f}_{a}")
            source1.add(Triple(film1, DB1.starring, node))
            source1.add(Triple(node, DB1.artist, actor1))
            source2.add(Triple(film2, DB2.actor, actor2))
            age = Literal(str(18 + actor_id % 60))
            source3.add(Triple(person, FOAF.age, age))
            if rng.random() < linked_fraction:
                source1.add(Triple(actor1, OWL_SAME_AS, person))
            if rng.random() < linked_fraction:
                source3.add(Triple(actor2, OWL_SAME_AS, person))
    return [source1, source2, source3]


# -- the bulk builds against them -------------------------------------------


@pytest.mark.parametrize(
    "config",
    [
        GeneratorConfig(
            entities=200, predicates=6, triples=1500, attributes=300,
            blank_fraction=0.3, seed=5,
        ),
        GeneratorConfig(entities=40, triples=400, attributes=0, seed=9),
        GeneratorConfig(entities=0, seed=1),
    ],
)
def test_random_entity_graph_matches_per_triple_build(config):
    assert_same_graph(
        random_entity_graph(config), reference_entity_graph(config)
    )


@pytest.mark.parametrize(
    "peers, entities, facts, seed", [(3, 50, 200, 7), (4, 20, 90, 0)]
)
def test_federated_rps_matches_per_triple_build(peers, entities, facts, seed):
    system = federated_rps(peers, entities, facts, seed)
    reference = reference_federated_graphs(peers, entities, facts, seed)
    for k, graph in enumerate(reference):
        assert_same_graph(system.peers[f"peer{k}"].graph, graph)


@pytest.mark.parametrize("seed", [0, 7])
def test_cycle_rps_matches_per_triple_build(seed):
    peers, entities, facts = 5, 30, 80
    system = cycle_rps(
        peers, entities=entities, facts=facts, link_fraction=0.3, seed=seed
    )
    rng = random.Random(seed)
    for i in range(peers):
        assert_same_graph(
            system.peers[f"peer{i}"].graph,
            reference_peer_graph(i, entities, facts, rng),
        )
    # The link draws that follow the data see the same generator state.
    links = [
        link
        for i in range(peers)
        for link in _entity_links(i, (i + 1) % peers, entities, 0.3, rng)
    ]
    assert list(system.equivalences) == links


@pytest.mark.parametrize("linked_fraction, seed", [(0.6, 3), (1.0, 0)])
def test_scaled_film_rps_matches_per_triple_build(linked_fraction, seed):
    system = scaled_film_rps(
        25, actors_per_film=3, linked_fraction=linked_fraction, seed=seed
    )
    # Harvesting the sameAs links reads the stored graphs, so the
    # reference goes through the same system construction.
    graphs = reference_film_graphs(25, 3, linked_fraction, seed)
    reference = RPS.from_graphs(
        {f"source{k}": graph for k, graph in enumerate(graphs, 1)},
        assertions=[example2_assertion()],
        harvest_sameas=True,
    )
    assert list(system.equivalences) == list(reference.equivalences)
    for name, peer in reference.peers.items():
        assert_same_graph(system.peers[name].graph, peer.graph)


# -- the vocabulary check ---------------------------------------------------


def test_vocabulary_ids_check_each_term_for_its_position():
    dictionary = TermDictionary()
    terms = [BlankNode("b"), Namespace("http://example.org/").a]
    assert vocabulary_ids(dictionary, terms, "subject") == [0, 1]
    assert vocabulary_ids(dictionary, terms[::-1], "object") == [1, 0]
    with pytest.raises(TripleError, match="predicate must be IRI"):
        vocabulary_ids(dictionary, terms, "predicate")
    with pytest.raises(TripleError, match="subject must be IRI or blank"):
        vocabulary_ids(dictionary, [Literal("1")], "subject")
    with pytest.raises(TripleError, match="object must be"):
        vocabulary_ids(dictionary, [Variable("x")], "object")
    assert len(dictionary) == 2
