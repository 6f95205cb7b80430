"""Relational TGD machinery (Section 3/4 substrate).

Atoms and instances, tuple-generating dependencies, homomorphism search,
the restricted chase with labelled nulls, the Definition-4 variable
marking / sticky test, syntactic class membership (linear, guarded,
weakly acyclic, sticky-join), conjunctive queries with containment, and
the UCQ perfect-rewriting engine used by Proposition 2.
"""

from repro.tgd.atoms import (
    Atom,
    Constant,
    Instance,
    LabeledNull,
    RelTerm,
    RelVar,
    fresh_null,
    reset_null_counter,
)
from repro.tgd.chase import ChaseResult, chase, is_satisfied, violations
from repro.tgd.classes import (
    TGDClassification,
    classify,
    is_full_set,
    is_guarded_set,
    is_linear_set,
    is_sticky_join,
    is_weakly_acyclic,
)
from repro.tgd.cq import ConjunctiveQuery, UnionOfCQs
from repro.tgd.dependencies import TGD, rename_apart
from repro.tgd.homomorphism import (
    find_homomorphisms,
    find_one_homomorphism,
)
from repro.tgd.marking import (
    MarkingResult,
    is_sticky,
    mark_variables,
    sticky_witnesses,
)
from repro.tgd.rewrite import (
    AUX_PREFIX,
    RewriteResult,
    decompose_heads,
    rewrite_ucq,
)

__all__ = [
    "AUX_PREFIX",
    "Atom",
    "ChaseResult",
    "ConjunctiveQuery",
    "Constant",
    "Instance",
    "LabeledNull",
    "MarkingResult",
    "RelTerm",
    "RelVar",
    "RewriteResult",
    "TGD",
    "TGDClassification",
    "UnionOfCQs",
    "chase",
    "classify",
    "decompose_heads",
    "find_homomorphisms",
    "find_one_homomorphism",
    "fresh_null",
    "is_full_set",
    "is_guarded_set",
    "is_linear_set",
    "is_satisfied",
    "is_sticky",
    "is_sticky_join",
    "is_weakly_acyclic",
    "mark_variables",
    "rename_apart",
    "reset_null_counter",
    "rewrite_ucq",
    "sticky_witnesses",
    "violations",
]
