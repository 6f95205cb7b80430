"""Query rewriting over RPS mappings (Section 4).

Boolean (ASK) rewriting per Listing 2, the Proposition-2 perfect
rewriting pipelines (answer-atom method and the paper's tuple-check
reduction), the Proposition-3 bounded-rewriting machinery, and sameAs
redundancy elimination.
"""

from repro.rewriting.boolean import (
    BooleanRewriting,
    cq_to_ask_block,
    rewrite_boolean_query,
)
from repro.rewriting.limits import (
    CHAIN_NS,
    ancestor_query,
    bounded_rewriting_answers,
    rewriting_growth,
    transitive_closure_rps,
    transitivity_assertion,
)
from repro.rewriting.perfect import (
    ANS,
    RewritingAnswers,
    candidate_tuples,
    certain_answers_by_rewriting,
    certain_answers_by_tuple_check,
    check_fo_rewritable,
)
from repro.rewriting.redundancy import (
    canonicalize_answer,
    deduplicate_answers,
)

__all__ = [
    "ANS",
    "BooleanRewriting",
    "CHAIN_NS",
    "RewritingAnswers",
    "ancestor_query",
    "bounded_rewriting_answers",
    "candidate_tuples",
    "canonicalize_answer",
    "certain_answers_by_rewriting",
    "certain_answers_by_tuple_check",
    "check_fo_rewritable",
    "cq_to_ask_block",
    "deduplicate_answers",
    "rewrite_boolean_query",
    "rewriting_growth",
    "transitive_closure_rps",
    "transitivity_assertion",
]
