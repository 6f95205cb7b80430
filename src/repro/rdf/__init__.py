"""RDF substrate: terms, triples, graphs and serialisations.

This package implements the paper's Section-2.1 data model from scratch
(the offline environment provides no rdflib): the disjoint term sets *I*,
*B*, *L* and *V*, RDF triples, triple patterns, an indexed in-memory
triple store, and N-Triples and Turtle-lite round-trip serialisations.
"""

from repro.rdf.dictionary import TermDictionary, default_dictionary
from repro.rdf.graph import Graph
from repro.rdf.namespaces import (
    FOAF_NS,
    Namespace,
    NamespaceManager,
    OWL_NS,
    OWL_SAME_AS,
    RDF_NS,
    RDF_TYPE,
    RDFS_NS,
    XSD_NS,
)
from repro.rdf.ntriples import (
    graph_from_ntriples,
    parse_ntriples,
    serialize_ntriples,
)
from repro.rdf.terms import (
    BlankNode,
    IRI,
    Literal,
    Term,
    Variable,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    fresh_blank_node,
    reset_blank_node_counter,
)
from repro.rdf.triples import Triple, TriplePattern
from repro.rdf.turtle import graph_from_turtle, parse_turtle, serialize_turtle

__all__ = [
    "BlankNode",
    "FOAF_NS",
    "Graph",
    "IRI",
    "Literal",
    "Namespace",
    "NamespaceManager",
    "OWL_NS",
    "OWL_SAME_AS",
    "RDF_NS",
    "RDF_TYPE",
    "RDFS_NS",
    "Term",
    "TermDictionary",
    "Triple",
    "TriplePattern",
    "Variable",
    "XSD_BOOLEAN",
    "XSD_DECIMAL",
    "XSD_DOUBLE",
    "XSD_INTEGER",
    "XSD_NS",
    "XSD_STRING",
    "default_dictionary",
    "fresh_blank_node",
    "graph_from_ntriples",
    "graph_from_turtle",
    "parse_ntriples",
    "parse_turtle",
    "reset_blank_node_counter",
    "serialize_ntriples",
    "serialize_turtle",
]
