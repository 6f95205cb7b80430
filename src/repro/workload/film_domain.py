"""The paper's running example (Figure 1 / Example 1 / Example 2).

Three sources:

* **Source 1** (``DB1:``) — films modelled through intermediate
  *starring* nodes: ``film --starring--> node --artist--> actor``; also
  stores ``owl:sameAs`` links for its film and actors.
* **Source 2** (``DB2:``) — films modelled with a direct ``actor``
  property.
* **Source 3** (``foaf:``) — people and their ages; stores the
  ``owl:sameAs`` link for Willem Dafoe.

Example 2 turns this into an RPS: one graph mapping assertion
``Q₂ ⇝ Q₁`` translating Source-2 ``actor`` edges into Source-1
starring/artist paths, plus one equivalence mapping per stored
``owl:sameAs`` triple.

The module also provides a *scaled* generator producing the same shape
at arbitrary size for the Theorem-1 data-complexity experiments.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.rdf.dictionary import IDTriple
from repro.rdf.graph import Graph
from repro.rdf.namespaces import (
    FOAF_NS,
    Namespace,
    NamespaceManager,
    OWL_SAME_AS,
)
from repro.rdf.terms import BlankNode, Literal, Variable
from repro.rdf.triples import Triple
from repro.peers.mappings import GraphMappingAssertion
from repro.peers.system import RPS
from repro.workload.generators import vocabulary_ids

__all__ = [
    "DB1",
    "DB2",
    "FOAF",
    "figure1_graphs",
    "figure1_namespaces",
    "example2_rps",
    "example2_assertion",
    "paper_query_text",
    "PAPER_EXPECTED_ANSWERS",
    "PAPER_EXPECTED_NONREDUNDANT",
    "scaled_film_rps",
]

DB1 = Namespace("http://db1.example.org/")
DB2 = Namespace("http://db2.example.org/")
FOAF = FOAF_NS


def figure1_namespaces() -> NamespaceManager:
    """Namespace manager binding DB1/DB2/foaf/owl for display & parsing."""
    nsm = NamespaceManager()
    nsm.bind("DB1", DB1.base)
    nsm.bind("DB2", DB2.base)
    return nsm


def figure1_graphs() -> Dict[str, Graph]:
    """The three stored databases of Figure 1, verbatim.

    Blank nodes ``_:st1``/``_:st2`` are the Source-1 starring nodes; the
    figure's sameAs links are stored in Sources 1 and 3 exactly as the
    paper describes.
    """
    st1, st2 = BlankNode("st1"), BlankNode("st2")
    source1 = Graph(
        [
            Triple(DB1.Spiderman, DB1.starring, st1),
            Triple(st1, DB1.artist, DB1.Toby_Maguire),
            Triple(DB1.Spiderman, DB1.starring, st2),
            Triple(st2, DB1.artist, DB1.Kirsten_Dunst),
            Triple(DB1.Spiderman, OWL_SAME_AS, DB2.Spiderman2002),
            Triple(DB1.Toby_Maguire, OWL_SAME_AS, FOAF.Toby_Maguire),
            Triple(DB1.Kirsten_Dunst, OWL_SAME_AS, FOAF.Kirsten_Dunst),
        ],
        name="source1",
    )
    source2 = Graph(
        [
            Triple(DB2.Spiderman2002, DB2.actor, DB2.Willem_Dafoe),
            Triple(DB2.Pleasantville, DB2.actor, DB2.Toby_Maguire),
        ],
        name="source2",
    )
    source3 = Graph(
        [
            Triple(FOAF.Toby_Maguire, FOAF.age, Literal("39")),
            Triple(FOAF.Kirsten_Dunst, FOAF.age, Literal("32")),
            Triple(FOAF.Willem_Dafoe, FOAF.age, Literal("59")),
            Triple(DB2.Willem_Dafoe, OWL_SAME_AS, FOAF.Willem_Dafoe),
        ],
        name="source3",
    )
    return {"source1": source1, "source2": source2, "source3": source3}


def example2_assertion() -> GraphMappingAssertion:
    """The single assertion of Example 2: ``Q₂ ⇝ Q₁``.

    * Q₂ := q(x, y) ← (x, actor, y) over Source 2;
    * Q₁ := q(x, y) ← (x, starring, z) AND (z, artist, y) over Source 1.
    """
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    q2 = GraphPatternQuery((x, y), make_pattern((x, DB2.actor, y)), name="Q2")
    q1 = GraphPatternQuery(
        (x, y),
        make_pattern((x, DB1.starring, z), (z, DB1.artist, y)),
        name="Q1",
    )
    return GraphMappingAssertion(
        q2, q1, source_peer="source2", target_peer="source1", label="Q2~>Q1"
    )


def example2_rps() -> RPS:
    """The full RPS of Example 2 over the Figure-1 data.

    E contains one equivalence per stored ``owl:sameAs`` triple; G is the
    single ``Q₂ ⇝ Q₁`` assertion.
    """
    return RPS.from_graphs(
        figure1_graphs(),
        assertions=[example2_assertion()],
        harvest_sameas=True,
    )


def paper_query_text() -> str:
    """The SPARQL query of Example 1 / Listing 1."""
    return """
        PREFIX DB1: <http://db1.example.org/>
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        SELECT ?x ?y
        WHERE { DB1:Spiderman DB1:starring ?z .
                ?z DB1:artist ?x .
                ?x foaf:age ?y }
    """


#: The six Listing-1 answers (with sameAs redundancy).
PAPER_EXPECTED_ANSWERS = frozenset(
    {
        (DB1.Toby_Maguire, Literal("39")),
        (FOAF.Toby_Maguire, Literal("39")),
        (DB1.Kirsten_Dunst, Literal("32")),
        (FOAF.Kirsten_Dunst, Literal("32")),
        (DB2.Willem_Dafoe, Literal("59")),
        (FOAF.Willem_Dafoe, Literal("59")),
    }
)

#: Listing 1 "Result without redundancy".
PAPER_EXPECTED_NONREDUNDANT = frozenset(
    {
        (DB1.Toby_Maguire, Literal("39")),
        (DB1.Kirsten_Dunst, Literal("32")),
        (DB2.Willem_Dafoe, Literal("59")),
    }
)


def scaled_film_rps(
    films: int,
    actors_per_film: int = 3,
    linked_fraction: float = 1.0,
    seed: int = 0,
) -> RPS:
    """A Figure-1-shaped RPS at configurable scale.

    Source 1 stores ``films`` films in the starring/artist shape, Source
    2 stores the same films in the direct ``actor`` shape under its own
    IRIs, and Source 3 stores one age per actor.  A ``linked_fraction``
    of the film/actor entity pairs get ``owl:sameAs`` links (harvested
    into E), modelling partially-linked LOD sources.

    Args:
        films: number of films per source.
        actors_per_film: actors starring in each film.
        linked_fraction: fraction of entities with sameAs links.
        seed: RNG seed (only the link sampling is randomised).

    Returns:
        The RPS (assertion Q₂ ⇝ Q₁ plus harvested equivalences); the
        stored database grows linearly in ``films × actors_per_film``.
    """
    rng = random.Random(seed)
    source1 = Graph(name="source1")
    source2 = Graph(name="source2")
    source3 = Graph(name="source3")
    dictionary = source1.dictionary
    same_as, starring, artist, actor, age = vocabulary_ids(
        dictionary,
        (OWL_SAME_AS, DB1.starring, DB1.artist, DB2.actor, FOAF.age),
        "predicate",
    )
    ages = vocabulary_ids(
        dictionary, [Literal(str(18 + v)) for v in range(60)], "object"
    )
    # One ID-triple list per source, filled in the order the sources
    # store them; the link draws interleave across sources.
    triples1: List[IDTriple] = []
    triples2: List[IDTriple] = []
    triples3: List[IDTriple] = []
    for f in range(films):
        film1, film2 = vocabulary_ids(
            dictionary,
            (DB1.term(f"film{f}"), DB2.term(f"movie{f}")),
            "subject",
        )
        if rng.random() < linked_fraction:
            triples1.append((film1, same_as, film2))
        for a in range(actors_per_film):
            actor_id = f * actors_per_film + a
            actor1, actor2, person, node = vocabulary_ids(
                dictionary,
                (
                    DB1.term(f"actor{actor_id}"),
                    DB2.term(f"player{actor_id}"),
                    FOAF.term(f"person{actor_id}"),
                    BlankNode(f"st_{f}_{a}"),
                ),
                "subject",
            )
            triples1.append((film1, starring, node))
            triples1.append((node, artist, actor1))
            triples2.append((film2, actor, actor2))
            triples3.append((person, age, ages[actor_id % 60]))
            if rng.random() < linked_fraction:
                triples1.append((actor1, same_as, person))
            if rng.random() < linked_fraction:
                triples3.append((actor2, same_as, person))
    source1.add_id_triples(triples1, dictionary)
    source2.add_id_triples(triples2, dictionary)
    source3.add_id_triples(triples3, dictionary)
    return RPS.from_graphs(
        {"source1": source1, "source2": source2, "source3": source3},
        assertions=[example2_assertion()],
        harvest_sameas=True,
    )
