"""Homomorphism search between conjunctions of atoms and instances.

A homomorphism from a set of atoms ``A`` (with variables) into an
instance ``I`` maps every variable to a constant/null such that each atom
image is a fact of ``I``.  The chase, CQ evaluation and CQ containment
all reduce to this search.  The implementation is a backtracking join
with most-constrained-atom-first ordering and index-driven candidate
enumeration.  What a search needs to know of its atoms — their
variables, their predicates' sizes, which positions are variables — is
read once per search, not once per step.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.tgd.atoms import Atom, Instance, RelTerm, RelVar, Slot

__all__ = [
    "find_homomorphisms",
    "find_one_homomorphism",
    "SearchPlan",
    "order_atoms",
    "plan_search",
    "run_search",
    "extend_homomorphism",
]

#: An atom compiled for the search: its predicate, its arity and its
#: :data:`~repro.tgd.atoms.Slot` per position.
_Step = Tuple[str, int, Tuple[Slot, ...]]

#: Atoms in search order, compiled once (:func:`plan_search`).
SearchPlan = List[_Step]


def plan_search(ordered: Sequence[Atom]) -> SearchPlan:
    """The search steps of ``ordered``; one object per variable, so a
    binding is found by identity, not by ``RelVar.__eq__``."""
    same: Dict[RelVar, RelVar] = {}
    steps: SearchPlan = []
    for atom in ordered:
        slots = tuple(
            (i, same.setdefault(arg, arg), True)
            if isinstance(arg, RelVar)
            else (i, arg, False)
            for i, arg in enumerate(atom.args, start=1)
        )
        steps.append((atom.predicate, atom.arity, slots))
    return steps


def order_atoms(atoms: Sequence[Atom], instance: Instance) -> List[Atom]:
    """Most-constrained-first ordering: fewer candidate facts first,
    preferring atoms sharing variables with already-ordered ones.

    Each atom's variables and candidate count are read once per call,
    not once per comparison; ties go to the earlier atom.
    """
    facts = instance.facts_with_predicate
    remaining = [
        (atom, atom.variables(), len(facts(atom.predicate))) for atom in atoms
    ]
    ordered: List[Atom] = []
    bound: Set[RelVar] = set()
    while remaining:
        best, best_shared, best_size = 0, -1, 0
        for index, (_, variables, size) in enumerate(remaining):
            shared = len(variables & bound) if bound else 0
            if shared > best_shared or (
                shared == best_shared and size < best_size
            ):
                best, best_shared, best_size = index, shared, size
        atom, variables, _ = remaining.pop(best)
        ordered.append(atom)
        bound |= variables
    return ordered


def find_homomorphisms(
    atoms: Sequence[Atom],
    instance: Instance,
    partial: Optional[Dict[RelVar, RelTerm]] = None,
    limit: Optional[int] = None,
) -> Iterator[Dict[RelVar, RelTerm]]:
    """Enumerate homomorphisms from ``atoms`` into ``instance``.

    Args:
        atoms: conjunction to map (order irrelevant).
        instance: target instance.
        partial: pre-bound variables (the homomorphism must extend it).
        limit: stop after this many homomorphisms.

    Yields:
        Complete variable bindings (including the ``partial`` entries).
        Read them, do not change them: two homomorphisms that differ
        only past the last new binding share one dict.
    """
    return run_search(
        plan_search(order_atoms(atoms, instance)), instance, partial, limit
    )


def run_search(
    steps: SearchPlan,
    instance: Instance,
    partial: Optional[Dict[RelVar, RelTerm]] = None,
    limit: Optional[int] = None,
) -> Iterator[Dict[RelVar, RelTerm]]:
    """:func:`find_homomorphisms` along an already made plan.

    For a caller that maps one conjunction again and again and keeps
    its plan (CQ containment keeps it on the query).
    """
    depth = len(steps)
    candidates = instance.candidates
    count = 0
    stack: List[Tuple[int, Dict[RelVar, RelTerm]]] = [(0, dict(partial or {}))]
    while stack:
        index, bindings = stack.pop()
        if index == depth:
            yield bindings
            count += 1
            if limit is not None and count >= limit:
                return
            continue
        predicate, arity, slots = steps[index]
        for fact in candidates(predicate, slots, bindings):
            if len(fact.args) != arity:
                continue
            fresh: Optional[Dict[RelVar, RelTerm]] = None
            for (_, arg, is_variable), value in zip(slots, fact.args):
                if is_variable:
                    bound = bindings.get(arg)
                    if bound is None and fresh is not None:
                        bound = fresh.get(arg)
                    if bound is None:
                        if fresh is None:
                            fresh = {}
                        fresh[arg] = value
                    elif bound != value:
                        break
                elif arg != value:
                    break
            else:
                # A step that binds nothing new shares its parent's dict.
                stack.append(
                    (index + 1, {**bindings, **fresh} if fresh else bindings)
                )


def find_one_homomorphism(
    atoms: Sequence[Atom],
    instance: Instance,
    partial: Optional[Dict[RelVar, RelTerm]] = None,
) -> Optional[Dict[RelVar, RelTerm]]:
    """First homomorphism or None (the satisfaction check of the chase)."""
    for hom in find_homomorphisms(atoms, instance, partial, limit=1):
        return hom
    return None


def extend_homomorphism(
    head: Sequence[Atom],
    instance: Instance,
    frontier_binding: Dict[RelVar, RelTerm],
) -> Optional[Dict[RelVar, RelTerm]]:
    """Check whether a TGD head is already satisfied under a frontier map.

    Searches for an extension of ``frontier_binding`` covering the head's
    existential variables such that all head atoms are facts of the
    instance.  This is the 'restricted chase' applicability test: the
    dependency only fires when no such extension exists.
    """
    return find_one_homomorphism(head, instance, frontier_binding)
