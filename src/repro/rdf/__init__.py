"""RDF substrate: terms, triples and graphs.

This package implements the paper's Section-2.1 data model from scratch,
with no third-party RDF library: the disjoint term sets *I*, *B*, *L*
and *V*, RDF triples, triple patterns and an indexed in-memory triple
store.  Graphs are built from triples (``Graph(triples)``) or, by the
``repro.workload`` generators, from dictionary IDs.
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
    "reset_blank_node_counter",
]
