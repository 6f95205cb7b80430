"""Conjunctive queries over relational atoms.

Provides homomorphism-based containment, the canonical (frozen)
database, core minimisation, and canonical renaming for duplicate
elimination — everything the UCQ rewriting engine of Section 4 needs.

Containment is the expensive part: a query's canonical database is
built on its first containment test and kept on the (immutable) query,
and :meth:`UnionOfCQs.deduplicate` searches for a homomorphism only
between pairs whose :meth:`ConjunctiveQuery.containment_signature`
allows one.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.errors import TGDError
from repro.tgd.atoms import Atom, Constant, Instance, RelTerm, RelVar
from repro.tgd.homomorphism import find_one_homomorphism

__all__ = ["ConjunctiveQuery", "UnionOfCQs"]


class ConjunctiveQuery:
    """A conjunctive query ``q(x) :- body``.

    Args:
        head: answer variables (must occur in the body).
        body: non-empty conjunction of atoms.
        label: diagnostic name.

    Raises:
        TGDError: if the body is empty or a head variable is unsafe.
    """

    __slots__ = ("head", "body", "label", "_hash", "_frozen")

    def __init__(
        self,
        head: Sequence[RelVar],
        body: Sequence[Atom],
        label: str = "q",
    ) -> None:
        head_tuple = tuple(head)
        body_tuple = tuple(body)
        if not body_tuple:
            raise TGDError("conjunctive query body must be non-empty")
        body_vars: Set[RelVar] = set()
        for atom in body_tuple:
            body_vars.update(atom.variables())
        for var in head_tuple:
            if var not in body_vars:
                raise TGDError(f"unsafe head variable {var}")
        object.__setattr__(self, "head", head_tuple)
        object.__setattr__(self, "body", body_tuple)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash((head_tuple, frozenset(body_tuple))))
        object.__setattr__(self, "_frozen", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ConjunctiveQuery is immutable")

    # -- structure ----------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.head)

    def variables(self) -> FrozenSet[RelVar]:
        out: Set[RelVar] = set()
        for atom in self.body:
            out.update(atom.variables())
        return frozenset(out)

    def variable_occurrences(self) -> Dict[RelVar, int]:
        """Total occurrence count of each variable across the body."""
        counts: Dict[RelVar, int] = {}
        for atom in self.body:
            for arg in atom.args:
                if isinstance(arg, RelVar):
                    counts[arg] = counts.get(arg, 0) + 1
        return counts

    def shared_variables(self) -> FrozenSet[RelVar]:
        """Answer variables plus variables occurring more than once.

        These are the variables the rewriting's applicability condition
        forbids from unifying with existential head positions.
        """
        counts = self.variable_occurrences()
        shared = {v for v, n in counts.items() if n > 1}
        shared.update(self.head)
        return frozenset(shared)

    # -- containment / equivalence ------------------------------------------------

    def freeze(self) -> Tuple[Instance, Tuple[RelTerm, ...]]:
        """The canonical database: variables become fresh constants.

        Returns the frozen instance and the image of the head.  Built on
        the first call and shared by later ones: read it, do not add to
        it.
        """
        if self._frozen is None:
            mapping: Dict[RelVar, RelTerm] = {
                v: Constant(("frozen", v.name)) for v in self.variables()
            }
            frozen = Instance(atom.substitute(mapping) for atom in self.body)
            head_image = tuple(mapping[v] for v in self.head)
            object.__setattr__(self, "_frozen", (frozen, head_image))
        return self._frozen

    def containment_signature(self) -> FrozenSet[Tuple]:
        """What a homomorphism into this query's body can rely on.

        The relations of the body (with arity) and every constant at its
        position.  ``self ⊆ other`` needs a homomorphism from ``other``
        into the frozen ``self``, which maps relations and constants to
        themselves, so it needs ``other``'s signature to be a subset of
        ``self``'s — a necessary condition, checked without a search.
        """
        signature: Set[Tuple] = set()
        for atom in self.body:
            signature.add((atom.predicate, atom.arity))
            for position, arg in enumerate(atom.args):
                if isinstance(arg, Constant):
                    signature.add((atom.predicate, position, arg))
        return frozenset(signature)

    def is_contained_in(self, other: "ConjunctiveQuery") -> bool:
        """Classical CQ containment: ``self ⊆ other``.

        Holds iff there is a homomorphism from ``other`` into the frozen
        body of ``self`` mapping head to head (Chandra-Merlin).
        """
        if self.arity != other.arity:
            return False
        frozen, head_image = self.freeze()
        partial = dict(zip(other.head, head_image))
        # Head variables may repeat; zip keeps the last binding, so check
        # consistency explicitly.
        for var, value in zip(other.head, head_image):
            if partial[var] != value:
                return False
        return find_one_homomorphism(other.body, frozen, partial) is not None

    def is_equivalent_to(self, other: "ConjunctiveQuery") -> bool:
        return self.is_contained_in(other) and other.is_contained_in(self)

    def minimize(self) -> "ConjunctiveQuery":
        """Compute the core: drop atoms while preserving equivalence."""
        body = list(self.body)
        changed = True
        while changed and len(body) > 1:
            changed = False
            for atom in list(body):
                candidate_body = [a for a in body if a is not atom]
                candidate_vars: Set[RelVar] = set()
                for a in candidate_body:
                    candidate_vars.update(a.variables())
                if not all(v in candidate_vars for v in self.head):
                    continue
                candidate = ConjunctiveQuery(self.head, candidate_body)
                if candidate.is_equivalent_to(self):
                    body = candidate_body
                    changed = True
                    break
        return ConjunctiveQuery(self.head, body, label=self.label)

    # -- canonical form -------------------------------------------------------------

    def canonical_form(self) -> Tuple:
        """A renaming-invariant key for duplicate elimination.

        Variables are renumbered in first-occurrence order after sorting
        atoms by a variable-name-independent skeleton; two queries equal
        up to variable renaming get equal keys (used by the rewriting's
        ``seen`` set).
        """
        def skeleton(atom: Atom) -> Tuple:
            return (
                atom.predicate,
                tuple(
                    ("v",) if isinstance(a, RelVar) else ("c", repr(a))
                    for a in atom.args
                ),
            )

        ordered = sorted(self.body, key=skeleton)
        numbering: Dict[RelVar, int] = {}
        for var in self.head:
            numbering.setdefault(var, len(numbering))
        for atom in ordered:
            for arg in atom.args:
                if isinstance(arg, RelVar):
                    numbering.setdefault(arg, len(numbering))
        canonical_atoms = tuple(
            (
                atom.predicate,
                tuple(
                    ("v", numbering[a]) if isinstance(a, RelVar) else ("c", repr(a))
                    for a in atom.args
                ),
            )
            for atom in ordered
        )
        canonical_head = tuple(numbering[v] for v in self.head)
        return (canonical_head, canonical_atoms)

    # -- value object -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self.head == other.head and frozenset(self.body) == frozenset(
            other.body
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        body = " ∧ ".join(repr(a) for a in self.body)
        return f"{self.label}({head}) :- {body}"


class UnionOfCQs:
    """A union of conjunctive queries of equal arity (a UCQ)."""

    def __init__(self, disjuncts: Sequence[ConjunctiveQuery], label: str = "Q") -> None:
        disjunct_list = list(disjuncts)
        if not disjunct_list:
            raise TGDError("a UCQ needs at least one disjunct")
        arity = disjunct_list[0].arity
        for cq in disjunct_list:
            if cq.arity != arity:
                raise TGDError("UCQ disjuncts must share the same arity")
        self.disjuncts: List[ConjunctiveQuery] = disjunct_list
        self.label = label

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)

    def deduplicate(self) -> "UnionOfCQs":
        """Remove duplicates (up to renaming) and strictly-contained CQs.

        A disjunct goes when another one contains it; of two equivalent
        disjuncts the earlier stays.  Only pairs whose signatures allow a
        homomorphism are searched for one.
        """
        unique: List[ConjunctiveQuery] = []
        seen = set()
        for cq in self.disjuncts:
            key = cq.canonical_form()
            if key not in seen:
                seen.add(key)
                unique.append(cq)
        signatures = [cq.containment_signature() for cq in unique]

        def contained(i: int, j: int) -> bool:
            return signatures[j] <= signatures[i] and unique[i].is_contained_in(
                unique[j]
            )

        kept = [
            cq
            for i, cq in enumerate(unique)
            if not any(
                j != i and contained(i, j) and not (i < j and contained(j, i))
                for j in range(len(unique))
            )
        ]
        return UnionOfCQs(kept, label=self.label)

    def __repr__(self) -> str:
        return f"<UCQ {self.label} with {len(self.disjuncts)} disjuncts>"
