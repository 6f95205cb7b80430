"""Syntactic TGD classes: linear, guarded, weakly acyclic, sticky(-join).

Section 4 observes that RPS dependency sets are "neither sticky, nor
linear, nor weakly-acyclic, nor guarded, nor weakly-guarded" in general —
incomparable to the known decidable classes.  This module implements the
classifiers so that claim is checkable on concrete systems, and so the
rewriting engine can decide when Proposition 2 applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Set, Tuple

from repro.tgd.atoms import RelVar
from repro.tgd.dependencies import TGD
from repro.tgd.marking import is_sticky

__all__ = [
    "is_linear_set",
    "is_guarded_set",
    "is_full_set",
    "is_weakly_acyclic",
    "is_sticky_join",
    "TGDClassification",
    "classify",
]

Position = Tuple[str, int]
#: Source position → {target position: is the edge special?}.
PositionGraph = Dict[Position, Dict[Position, bool]]


def is_linear_set(tgds: Sequence[TGD]) -> bool:
    """Every TGD has a single body atom."""
    return all(tgd.is_linear() for tgd in tgds)


def is_guarded_set(tgds: Sequence[TGD]) -> bool:
    """Every TGD has a body atom containing all its universal variables."""
    return all(tgd.is_guarded() for tgd in tgds)


def is_full_set(tgds: Sequence[TGD]) -> bool:
    """No TGD has existential head variables."""
    return all(tgd.is_full() for tgd in tgds)


def _position_graph(tgds: Sequence[TGD]) -> PositionGraph:
    """The Fagin-et-al. dependency graph over positions.

    Regular edge ``π → π'`` when a frontier variable occurs in the body at
    π and in the head at π'; special edge ``π ⇒ π''`` when a frontier
    variable occurs in the body at π and the head introduces an
    existential variable at π''.  A pair with both kinds of edge counts
    as special.
    """
    graph: PositionGraph = {}
    for tgd in tgds:
        frontier = tgd.frontier()
        existential = tgd.existential_variables()
        body_positions: Dict[RelVar, Set[Position]] = {}
        for atom in tgd.body:
            for i, arg in enumerate(atom.args, start=1):
                if isinstance(arg, RelVar):
                    body_positions.setdefault(arg, set()).add(
                        (atom.predicate, i)
                    )
        head_positions: Dict[RelVar, Set[Position]] = {}
        for atom in tgd.head:
            for i, arg in enumerate(atom.args, start=1):
                if isinstance(arg, RelVar):
                    head_positions.setdefault(arg, set()).add(
                        (atom.predicate, i)
                    )
        existential_positions: Set[Position] = set()
        for var in existential:
            existential_positions.update(head_positions.get(var, set()))
        for var in frontier:
            for source in body_positions.get(var, set()):
                edges = graph.setdefault(source, {})
                for target in head_positions.get(var, set()):
                    edges.setdefault(target, False)
                for target in existential_positions:
                    edges[target] = True
    return graph


def _reaches(graph: PositionGraph, start: Position, goal: Position) -> bool:
    """Is ``goal`` reachable from ``start`` (in zero or more edges)?"""
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for target in graph.get(node, ()):
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return False


def is_weakly_acyclic(tgds: Sequence[TGD]) -> bool:
    """No cycle through a special edge in the position dependency graph.

    A special edge ``π ⇒ π''`` lies on a cycle exactly when π is
    reachable from π''.
    """
    graph = _position_graph(tgds)
    return not any(
        special and _reaches(graph, target, source)
        for source, edges in graph.items()
        for target, special in edges.items()
    )


def is_sticky_join(tgds: Sequence[TGD]) -> bool:
    """Sticky-join membership (conservative approximation).

    Sticky-join sets (Calì, Gottlob & Pieris 2010) generalise both sticky
    and linear sets.  This implementation returns True when the set is
    sticky or linear — a *sound but incomplete* test: every set it
    accepts is sticky-join, but some sticky-join sets are rejected.  The
    paper's Proposition 2 only relies on the linear and sticky cases, for
    which this test is exact.
    """
    return is_linear_set(tgds) or is_sticky(tgds)


@dataclass(frozen=True)
class TGDClassification:
    """Membership flags for one TGD set across the standard classes."""

    linear: bool
    guarded: bool
    full: bool
    weakly_acyclic: bool
    sticky: bool
    sticky_join: bool

    def fo_rewritable_fragment(self) -> bool:
        """Does Proposition 2 apply (linear / sticky / sticky-join)?"""
        return self.linear or self.sticky or self.sticky_join


def classify(tgds: Sequence[TGD]) -> TGDClassification:
    """Classify a TGD set across all implemented classes."""
    return TGDClassification(
        linear=is_linear_set(tgds),
        guarded=is_guarded_set(tgds),
        full=is_full_set(tgds),
        weakly_acyclic=is_weakly_acyclic(tgds),
        sticky=is_sticky(tgds),
        sticky_join=is_sticky_join(tgds),
    )
