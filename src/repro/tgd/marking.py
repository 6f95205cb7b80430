"""Definition 4: the variable-marking procedure and the sticky test.

The marking runs in two phases over a set Σ of TGDs:

1. *Initial marking* — for each TGD σ and each variable V in body(σ), if
   some head atom of σ does not contain V, mark every occurrence of V in
   body(σ).  (Existential-head positions never carry body variables, so
   this also marks body variables that vanish entirely.)

2. *Propagation* — to a fixpoint: if a marked variable occurs in some
   body at position π = r[i], then in every TGD whose head contains a
   variable at position π, mark all body occurrences of that variable.

Σ is **sticky** iff no TGD has a marked variable occurring more than once
in its body.  The paper uses this to show equivalence mappings are sticky
while graph mapping assertions in general are not (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.tgd.atoms import RelVar
from repro.tgd.dependencies import TGD

__all__ = ["MarkingResult", "mark_variables", "is_sticky", "sticky_witnesses"]

Position = Tuple[str, int]


@dataclass
class MarkingResult:
    """Outcome of the Definition-4 marking.

    Attributes:
        marked: per-TGD index, the set of marked body variables.
        marked_positions: all positions ``r[i]`` at which some marked
            variable occurs in some body (the propagation frontier).
        rounds: number of propagation rounds until the fixpoint.
    """

    marked: Dict[int, Set[RelVar]] = field(default_factory=dict)
    marked_positions: Set[Position] = field(default_factory=set)
    rounds: int = 0


def _body_positions_of(tgd: TGD, var: RelVar) -> Set[Position]:
    out: Set[Position] = set()
    for atom in tgd.body:
        for i, arg in enumerate(atom.args, start=1):
            if arg == var:
                out.add((atom.predicate, i))
    return out


def _head_vars_at(tgd: TGD, position: Position) -> Set[RelVar]:
    predicate, index = position
    out: Set[RelVar] = set()
    for atom in tgd.head:
        if atom.predicate == predicate and atom.arity >= index:
            arg = atom.args[index - 1]
            if isinstance(arg, RelVar):
                out.add(arg)
    return out


def mark_variables(tgds: Sequence[TGD]) -> MarkingResult:
    """Run the Definition-4 marking procedure to its fixpoint."""
    result = MarkingResult(marked={i: set() for i in range(len(tgds))})

    # Phase 1: initial marking.
    for index, tgd in enumerate(tgds):
        for var in tgd.body_variables():
            if any(var not in atom.variables() for atom in tgd.head):
                result.marked[index].add(var)

    # Collect positions of marked body occurrences.
    def positions_of_marked() -> Set[Position]:
        out: Set[Position] = set()
        for index, tgd in enumerate(tgds):
            for var in result.marked[index]:
                out.update(_body_positions_of(tgd, var))
        return out

    # Phase 2: propagate to fixpoint.
    result.marked_positions = positions_of_marked()
    while True:
        result.rounds += 1
        new_marks = False
        for index, tgd in enumerate(tgds):
            body_vars = tgd.body_variables()
            for position in result.marked_positions:
                for var in _head_vars_at(tgd, position):
                    if var in body_vars and var not in result.marked[index]:
                        result.marked[index].add(var)
                        new_marks = True
        if not new_marks:
            break
        result.marked_positions = positions_of_marked()
    return result


def sticky_witnesses(
    tgds: Sequence[TGD],
) -> List[Tuple[int, RelVar]]:
    """TGD/variable pairs violating stickiness.

    A pair ``(i, V)`` is a witness when V is marked in TGD i and occurs
    more than once in that TGD's body.
    """
    marking = mark_variables(tgds)
    witnesses: List[Tuple[int, RelVar]] = []
    for index, tgd in enumerate(tgds):
        for var in marking.marked[index]:
            occurrences = 0
            for atom in tgd.body:
                occurrences += sum(1 for arg in atom.args if arg == var)
            if occurrences > 1:
                witnesses.append((index, var))
    return witnesses


def is_sticky(tgds: Sequence[TGD]) -> bool:
    """Is the TGD set sticky (Definition 4)?"""
    return not sticky_witnesses(tgds)
