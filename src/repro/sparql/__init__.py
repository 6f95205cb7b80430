"""SPARQL front-end for the conjunctive fragment (plus UNION/FILTER).

Lexer, recursive-descent parser, algebra, the ID-native columnar
engine (:mod:`repro.sparql.batch`, driven by :mod:`repro.sparql.engine`),
result classes, and the bridge to the paper's graph pattern query
language.  The engine evaluates under set semantics, matching
Section 2.1.
"""

from repro.sparql.ast import (
    AskQuery,
    BooleanExpr,
    Comparison,
    GroupPattern,
    OrderCondition,
    Query,
    SelectQuery,
    UnionPattern,
)
from repro.sparql.bridge import gpq_to_sparql, sparql_to_gpq, sparql_union_to_gpqs
from repro.sparql.engine import ask_text, execute, select
from repro.sparql.parser import parse_query
from repro.sparql.results import AskResult, SelectResult

__all__ = [
    "AskQuery",
    "AskResult",
    "BooleanExpr",
    "Comparison",
    "GroupPattern",
    "OrderCondition",
    "Query",
    "SelectQuery",
    "SelectResult",
    "UnionPattern",
    "ask_text",
    "execute",
    "gpq_to_sparql",
    "parse_query",
    "select",
    "sparql_to_gpq",
    "sparql_union_to_gpqs",
]
