"""Random RDF data generators.

Deterministic (seeded) generators for synthetic peers: entity-relation
graphs with configurable vocabulary sizes, literal attributes and blank
node fractions.  Used by the property tests (random-but-reproducible
stores) and as building blocks for the topology workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List

from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import BlankNode, Literal, Term
from repro.rdf.triples import check_position

__all__ = [
    "GeneratorConfig",
    "random_graph",
    "random_entity_graph",
    "vocabulary_ids",
]


def vocabulary_ids(
    dictionary: TermDictionary, terms: Iterable[Term], position: str
) -> List[int]:
    """Intern a generator's vocabulary, each term checked once.

    Every term must be admissible in triple ``position`` (an entity that
    also appears as an object is checked as a subject, the stricter of
    the two).  The IDs come back in ``terms`` order, so ``rng.choice``
    over them makes the draws it would make over the terms, and a
    generator lands ``(id, id, id)`` triples with
    :meth:`~repro.rdf.graph.Graph.add_id_triples` instead of building
    and checking a :class:`~repro.rdf.triples.Triple` per triple.
    """
    encode = dictionary.encode
    return [encode(check_position(term, position)) for term in terms]


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for :func:`random_entity_graph`.

    Attributes:
        entities: number of entity IRIs.
        predicates: number of distinct relation predicates.
        triples: number of relation triples to generate.
        attributes: number of literal-attribute triples to generate.
        blank_fraction: probability an entity position uses a blank node.
        namespace: IRI prefix for minted terms.
        seed: RNG seed.
    """

    entities: int = 50
    predicates: int = 5
    triples: int = 150
    attributes: int = 30
    blank_fraction: float = 0.0
    namespace: str = "http://gen.example.org/"
    seed: int = 0


def random_entity_graph(config: GeneratorConfig, name: str = "") -> Graph:
    """Generate a random entity-relation RDF graph.

    Entities are ``ns:eN``, predicates ``ns:pN``, attribute values are
    integer literals.  With ``blank_fraction > 0`` some subjects/objects
    are blank nodes ``_:bN`` (modelling unidentified resources).
    """
    rng = random.Random(config.seed)
    ns = Namespace(config.namespace)
    entity_terms: List[Term] = []
    for i in range(config.entities):
        if rng.random() < config.blank_fraction:
            entity_terms.append(BlankNode(f"b{i}"))
        else:
            entity_terms.append(ns.term(f"e{i}"))
    predicates = [ns.term(f"p{i}") for i in range(config.predicates)]

    graph = Graph(name=name or "random")
    if not entity_terms or not predicates:
        return graph
    dictionary = graph.dictionary
    entities = vocabulary_ids(dictionary, entity_terms, "subject")
    *relations, attribute = vocabulary_ids(
        dictionary, [*predicates, ns.term("value")], "predicate"
    )
    values = vocabulary_ids(
        dictionary, [Literal(str(v)) for v in range(100)], "object"
    )
    choice, randint = rng.choice, rng.randint
    graph.add_id_triples(
        (
            (choice(entities), choice(relations), choice(entities))
            for _ in range(config.triples)
        ),
        dictionary,
    )
    graph.add_id_triples(
        (
            (choice(entities), attribute, values[randint(0, 99)])
            for _ in range(config.attributes)
        ),
        dictionary,
    )
    return graph


def random_graph(
    triples: int = 100,
    seed: int = 0,
    namespace: str = "http://gen.example.org/",
    blank_fraction: float = 0.0,
) -> Graph:
    """Shorthand for a random graph of roughly ``triples`` triples."""
    config = GeneratorConfig(
        entities=max(4, triples // 3),
        predicates=max(2, triples // 25),
        triples=triples,
        attributes=max(1, triples // 5),
        blank_fraction=blank_fraction,
        namespace=namespace,
        seed=seed,
    )
    return random_entity_graph(config)
