"""Tuple-generating dependencies (TGDs).

A TGD is a first-order sentence

.. code-block:: text

    ∀x ∀y  φ(x, y)  →  ∃z  ψ(x, z)

where φ (the *body*) and ψ (the *head*) are conjunctions of atoms.  The
*frontier* x is the set of universal variables shared between body and
head; z are the existential variables.  The paper expresses both its
source-to-target dependencies and the peer-mapping target dependencies in
this form (Section 3).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Sequence

from repro.errors import TGDError
from repro.tgd.atoms import Atom, RelTerm, RelVar

__all__ = ["TGD", "rename_apart"]


class TGD:
    """A tuple-generating dependency ``body → ∃z head``.

    Args:
        body: non-empty conjunction of atoms (may contain constants).
        head: non-empty conjunction of atoms.
        label: optional human-readable name used in explanations.

    Raises:
        TGDError: if body or head is empty.
    """

    __slots__ = ("body", "head", "label", "_hash")

    def __init__(
        self,
        body: Sequence[Atom],
        head: Sequence[Atom],
        label: str = "",
    ) -> None:
        body_tuple = tuple(body)
        head_tuple = tuple(head)
        if not body_tuple:
            raise TGDError("TGD body must be non-empty")
        if not head_tuple:
            raise TGDError("TGD head must be non-empty")
        object.__setattr__(self, "body", body_tuple)
        object.__setattr__(self, "head", head_tuple)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash((body_tuple, head_tuple)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TGD is immutable")

    # -- variable sets ------------------------------------------------------

    def body_variables(self) -> FrozenSet[RelVar]:
        out: set = set()
        for atom in self.body:
            out.update(atom.variables())
        return frozenset(out)

    def head_variables(self) -> FrozenSet[RelVar]:
        out: set = set()
        for atom in self.head:
            out.update(atom.variables())
        return frozenset(out)

    def frontier(self) -> FrozenSet[RelVar]:
        """Universal variables shared by body and head (the paper's x)."""
        return self.body_variables() & self.head_variables()

    def existential_variables(self) -> FrozenSet[RelVar]:
        """Head variables not occurring in the body (the paper's z)."""
        return self.head_variables() - self.body_variables()

    # -- syntactic properties ------------------------------------------------

    def is_linear(self) -> bool:
        """Linear TGD: exactly one body atom."""
        return len(self.body) == 1

    def is_full(self) -> bool:
        """Full TGD: no existential variables."""
        return not self.existential_variables()

    def is_guarded(self) -> bool:
        """Guarded: some body atom contains all body universal variables."""
        all_vars = self.body_variables()
        return any(atom.variables() >= all_vars for atom in self.body)

    # -- operations ----------------------------------------------------------

    def substitute(self, mapping: Dict[RelVar, RelTerm]) -> "TGD":
        """Apply a substitution to both body and head."""
        return TGD(
            [a.substitute(mapping) for a in self.body],
            [a.substitute(mapping) for a in self.head],
            label=self.label,
        )

    # -- value object -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TGD):
            return NotImplemented
        return self.body == other.body and self.head == other.head

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = " ∧ ".join(repr(a) for a in self.body)
        head = " ∧ ".join(repr(a) for a in self.head)
        exists = self.existential_variables()
        prefix = (
            "∃" + ",".join(sorted(v.name for v in exists)) + " " if exists else ""
        )
        name = f"[{self.label}] " if self.label else ""
        return f"{name}{body} → {prefix}{head}"


def rename_apart(tgd: TGD, taken: Iterable[RelVar]) -> TGD:
    """Rename the TGD's variables away from a set of variables in use.

    Used before unifying a query atom with a TGD head so variable scopes
    cannot collide.
    """
    taken_names = {v.name for v in taken}
    mapping: Dict[RelVar, RelTerm] = {}
    for var in sorted(
        tgd.body_variables() | tgd.head_variables(), key=lambda v: v.name
    ):
        if var.name in taken_names:
            candidate = var.name
            counter = 0
            while candidate in taken_names:
                candidate = f"{var.name}_r{counter}"
                counter += 1
            mapping[var] = RelVar(candidate)
            taken_names.add(candidate)
    if not mapping:
        return tgd
    return tgd.substitute(mapping)
