"""Solution mappings µ and the algebra over sets of mappings.

Implements the paper's Section-2.1 formalisation (after Pérez et al. and
Buil-Aranda et al.):

* a *mapping* µ is a partial function from variables V to terms in
  I ∪ B ∪ L — :class:`SolutionMapping`;
* two mappings are *compatible* when they agree on their shared domain;
* the join ``Ω₁ ⋈ Ω₂`` unions all compatible pairs.

Mappings are immutable and hashable so sets of mappings (the Ω of the
paper) can be plain Python sets — graph patterns are evaluated under set
semantics, exactly as in the paper.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from repro.errors import QueryError
from repro.rdf.terms import Term, Variable

__all__ = [
    "SolutionMapping",
    "join",
    "union",
    "EMPTY_MAPPING",
]


class SolutionMapping:
    """An immutable partial function µ : V → (I ∪ B ∪ L).

    Args:
        bindings: mapping from :class:`Variable` to ground terms.

    Raises:
        QueryError: if a key is not a Variable or a value is a Variable.
    """

    __slots__ = ("_items", "_dict", "_hash")

    def __init__(self, bindings: Optional[Dict[Variable, Term]] = None) -> None:
        bindings = bindings or {}
        for var, term in bindings.items():
            if not isinstance(var, Variable):
                raise QueryError(f"mapping key must be a Variable, got {var!r}")
            if isinstance(term, Variable):
                raise QueryError(
                    f"mapping value must be ground, got variable {term!r}"
                )
        items: Tuple[Tuple[Variable, Term], ...] = tuple(
            sorted(bindings.items(), key=lambda kv: kv[0].name)
        )
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_dict", dict(items))
        object.__setattr__(self, "_hash", hash(items))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SolutionMapping is immutable")

    # -- partial function interface ------------------------------------

    def domain(self) -> FrozenSet[Variable]:
        """The set ``dom(µ)``."""
        return frozenset(self._dict.keys())

    def __getitem__(self, var: Variable) -> Term:
        return self._dict[var]

    def get(self, var: Variable, default: Optional[Term] = None) -> Optional[Term]:
        return self._dict.get(var, default)

    def __contains__(self, var: Variable) -> bool:
        return var in self._dict

    def __len__(self) -> int:
        return len(self._dict)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._dict)

    def as_dict(self) -> Dict[Variable, Term]:
        return dict(self._dict)

    # -- algebra ---------------------------------------------------------

    def compatible_with(self, other: "SolutionMapping") -> bool:
        """True when µ₁ ∪ µ₂ is still a (single-valued) mapping."""
        small, large = (
            (self, other) if len(self) <= len(other) else (other, self)
        )
        for var, term in small._items:
            bound = large._dict.get(var)
            if bound is not None and bound != term:
                return False
        return True

    def merge(self, other: "SolutionMapping") -> "SolutionMapping":
        """The union µ₁ ∪ µ₂ of two *compatible* mappings.

        Raises:
            QueryError: if the mappings are incompatible.
        """
        if not self.compatible_with(other):
            raise QueryError(f"incompatible mappings: {self} vs {other}")
        merged = dict(self._dict)
        merged.update(other._dict)
        return SolutionMapping(merged)

    def extend(self, var: Variable, term: Term) -> "SolutionMapping":
        """Return a new mapping additionally binding ``var`` to ``term``.

        Raises:
            QueryError: if ``var`` is already bound to a different term.
        """
        bound = self._dict.get(var)
        if bound is not None and bound != term:
            raise QueryError(
                f"variable {var} already bound to {bound}, cannot rebind to {term}"
            )
        merged = dict(self._dict)
        merged[var] = term
        return SolutionMapping(merged)

    # -- value object ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SolutionMapping) and other._items == self._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name}->{t.n3()}" for v, t in self._items)
        return f"{{{inner}}}"


EMPTY_MAPPING = SolutionMapping()


def join(
    omega1: Iterable[SolutionMapping], omega2: Iterable[SolutionMapping]
) -> Set[SolutionMapping]:
    """The paper's ``Ω₁ ⋈ Ω₂``: union of all compatible pairs.

    Implemented as a hash join on the shared variables rather than the
    naive quadratic definition; the result is identical by construction.
    """
    left = list(omega1)
    right = list(omega2)
    if not left or not right:
        return set()
    # Shared variables of a *pair* can vary if domains are heterogeneous,
    # so compute the common domain across the whole sets conservatively:
    # bucket on the intersection of the first elements' domains that is
    # shared by every mapping on each side.
    left_common = frozenset.intersection(*(m.domain() for m in left))
    right_common = frozenset.intersection(*(m.domain() for m in right))
    shared = sorted(left_common & right_common, key=lambda v: v.name)
    if not shared:
        # No variables guaranteed shared: fall back to nested loop.
        return {
            m1.merge(m2)
            for m1 in left
            for m2 in right
            if m1.compatible_with(m2)
        }
    buckets: Dict[Tuple[Term, ...], list] = {}
    for m2 in right:
        key = tuple(m2[v] for v in shared)
        buckets.setdefault(key, []).append(m2)
    out: Set[SolutionMapping] = set()
    for m1 in left:
        key = tuple(m1[v] for v in shared)
        for m2 in buckets.get(key, ()):
            if m1.compatible_with(m2):
                out.add(m1.merge(m2))
    return out


def union(
    omega1: Iterable[SolutionMapping], omega2: Iterable[SolutionMapping]
) -> Set[SolutionMapping]:
    """Set union of two mapping sets (SPARQL ``UNION`` semantics)."""
    return set(omega1) | set(omega2)
