"""Graph pattern queries — the paper's Section-2.1 query language.

Triple patterns closed under AND, queries ``q(x) ← GP`` with free and
existential variables, the ``subjQ``/``predQ``/``objQ`` probes, and both
evaluation semantics (``Q_D`` blank-dropping, ``Q*_D`` blank-keeping).
This language is the "conjunctive fragment" of SPARQL; see
:mod:`repro.sparql.bridge` for the two-way translation.
"""

from repro.gpq.bindings import (
    EMPTY_MAPPING,
    SolutionMapping,
    join,
    union,
)
from repro.gpq.evaluation import (
    ask,
    evaluate_pattern,
    evaluate_query,
    evaluate_query_star,
)
from repro.gpq.pattern import GraphPattern, make_pattern
from repro.gpq.query import (
    GraphPatternQuery,
    obj_query,
    pred_query,
    subj_query,
)

__all__ = [
    "EMPTY_MAPPING",
    "GraphPattern",
    "GraphPatternQuery",
    "SolutionMapping",
    "ask",
    "evaluate_pattern",
    "evaluate_query",
    "evaluate_query_star",
    "join",
    "make_pattern",
    "obj_query",
    "pred_query",
    "subj_query",
    "union",
]
