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
from repro.tgd.homomorphism import (
    SearchPlan,
    order_atoms,
    plan_search,
    run_search,
)

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

    __slots__ = (
        "head",
        "body",
        "label",
        "_hash",
        "_frozen",
        "_canonical",
        "_search_plan",
    )

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
        if head_tuple:
            body_vars: Set[RelVar] = set()
            for atom in body_tuple:
                body_vars.update(atom.variables())
            for var in head_tuple:
                if var not in body_vars:
                    raise TGDError(f"unsafe head variable {var}")
        object.__setattr__(self, "head", head_tuple)
        object.__setattr__(self, "body", body_tuple)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_frozen", None)
        object.__setattr__(self, "_canonical", None)
        object.__setattr__(self, "_search_plan", None)

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
            # Keyed by name: equal variables freeze to one constant.
            frozen_of: Dict[str, Constant] = {}
            facts = []
            for atom in self.body:
                args = []
                for arg in atom.args:
                    if isinstance(arg, RelVar):
                        value = frozen_of.get(arg.name)
                        if value is None:
                            value = Constant(("frozen", arg.name))
                            frozen_of[arg.name] = value
                        arg = value
                    args.append(arg)
                facts.append(Atom(atom.predicate, *args))
            head_image = tuple([frozen_of[v.name] for v in self.head])
            object.__setattr__(self, "_frozen", (Instance(facts), head_image))
        return self._frozen

    def search_plan(self) -> SearchPlan:
        """The body as a containment test maps it, planned once.

        Atoms go most-constrained-first over the query's own canonical
        database: ``other ⊆ self`` maps ``self``'s body into a query
        that shares its relations and constants, so the plan is made
        once per query, not once per test.  Any order finds a
        homomorphism when one exists.
        """
        if self._search_plan is None:
            ordered = order_atoms(self.body, self.freeze()[0])
            object.__setattr__(self, "_search_plan", plan_search(ordered))
        return self._search_plan

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
        # Head variables may repeat: each must meet one value only.
        partial: Dict[RelVar, RelTerm] = {}
        for var, value in zip(other.head, head_image):
            if partial.setdefault(var, value) != value:
                return False
        homomorphisms = run_search(other.search_plan(), frozen, partial, limit=1)
        return next(homomorphisms, None) is not None

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
        ``seen`` set).  Computed on the first call and kept on the
        (immutable) query, like :meth:`freeze`.
        """
        if self._canonical is not None:
            return self._canonical
        # An atom's skeleton is its sort key, and its constant cells are
        # the canonical atom's cells too.
        skeletons = [
            (
                atom.predicate,
                tuple(
                    [
                        ("v",) if isinstance(a, RelVar) else ("c", repr(a))
                        for a in atom.args
                    ]
                ),
            )
            for atom in self.body
        ]
        order = sorted(range(len(skeletons)), key=skeletons.__getitem__)
        # Variables are numbered by name: a name hashes in C.
        numbering: Dict[str, int] = {}
        for var in self.head:
            numbering.setdefault(var.name, len(numbering))
        canonical_atoms = []
        for index in order:
            predicate, cells = skeletons[index]
            row = []
            for arg, cell in zip(self.body[index].args, cells):
                if len(cell) == 1:  # ("v",): a variable
                    number = numbering.get(arg.name)
                    if number is None:
                        number = numbering[arg.name] = len(numbering)
                    cell = ("v", number)
                row.append(cell)
            canonical_atoms.append((predicate, tuple(row)))
        canonical = (
            tuple([numbering[v.name] for v in self.head]),
            tuple(canonical_atoms),
        )
        object.__setattr__(self, "_canonical", canonical)
        return canonical

    # -- value object -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self.head == other.head and frozenset(self.body) == frozenset(
            other.body
        )

    def __hash__(self) -> int:
        if self._hash is None:
            value = hash((self.head, frozenset(self.body)))
            object.__setattr__(self, "_hash", value)
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
        first: Dict[Tuple, ConjunctiveQuery] = {}
        for cq in self.disjuncts:
            first.setdefault(cq.canonical_form(), cq)
        unique = list(first.values())
        signatures = [cq.containment_signature() for cq in unique]

        kept = []
        for i, cq in enumerate(unique):
            signature = signatures[i]
            for j, other in enumerate(signatures):
                if (
                    j != i
                    and other <= signature
                    and cq.is_contained_in(unique[j])
                    and not (
                        i < j
                        and signature <= other
                        and unique[j].is_contained_in(cq)
                    )
                ):
                    break
            else:
                kept.append(cq)
        return UnionOfCQs(kept, label=self.label)

    def __repr__(self) -> str:
        return f"<UCQ {self.label} with {len(self.disjuncts)} disjuncts>"
