"""Relational atoms and terms for the TGD machinery.

Section 3 of the paper encodes an RPS as a relational data-exchange
setting over the alphabets ``Rs = {ts, rs}`` and ``Rt = {tt, rt}``.  This
module provides the first-order building blocks for that encoding:

* :class:`Constant` — wraps an arbitrary hashable value (here, RDF terms);
* :class:`RelVar` — a first-order variable;
* :class:`LabeledNull` — a chase-invented value (the relational twin of a
  fresh blank node);
* :class:`Atom` — ``r(t₁, …, tₖ)``.

Instances (sets of ground atoms) are handled by :class:`Instance`, which
indexes facts by predicate and by (predicate, position, value) for fast
homomorphism search.
"""

from __future__ import annotations

import threading
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import TGDError

__all__ = [
    "Constant",
    "RelVar",
    "LabeledNull",
    "RelTerm",
    "Atom",
    "Instance",
    "fresh_null",
    "reset_null_counter",
]


class Constant:
    """A constant value in the relational model.

    Wraps any hashable payload; in the RPS encoding the payload is an RDF
    term (IRI or literal or blank node from the *stored* database).
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("Constant", value)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Constant is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and other.value == self.value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)


class RelVar:
    """A first-order variable in TGD bodies/heads and CQs."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        if not name:
            raise TGDError("variable name must be non-empty")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("RelVar", name)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RelVar is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RelVar) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"RelVar({self.name!r})"

    def __str__(self) -> str:
        return self.name


class LabeledNull:
    """A labelled null invented by the chase.

    Nulls compare by identity of their numeric id; the paper identifies
    them with freshly created blank nodes.
    """

    __slots__ = ("id", "_hash")

    def __init__(self, id: int) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "_hash", hash(("LabeledNull", id)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LabeledNull is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabeledNull) and other.id == self.id

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LabeledNull({self.id})"

    def __str__(self) -> str:
        return f"⊥{self.id}"


RelTerm = Union[Constant, RelVar, LabeledNull]


class _NullCounter:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0

    def fresh(self) -> LabeledNull:
        with self._lock:
            value = self._next
            self._next += 1
        return LabeledNull(value)

    def reset(self) -> None:
        with self._lock:
            self._next = 0


_NULLS = _NullCounter()


def fresh_null() -> LabeledNull:
    """Mint a process-wide fresh labelled null."""
    return _NULLS.fresh()


def reset_null_counter() -> None:
    """Reset null ids (tests only)."""
    _NULLS.reset()


class Atom:
    """A relational atom ``predicate(args…)``.

    Args:
        predicate: relation symbol name.
        args: terms (constants, variables or nulls).
    """

    __slots__ = ("predicate", "args", "_hash")

    def __init__(self, predicate: str, *args: RelTerm) -> None:
        if not predicate:
            raise TGDError("predicate name must be non-empty")
        for arg in args:
            if not isinstance(arg, (Constant, RelVar, LabeledNull)):
                raise TGDError(
                    f"atom argument must be a relational term, got {arg!r}"
                )
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((predicate, args)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Atom is immutable")

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> FrozenSet[RelVar]:
        return frozenset(a for a in self.args if isinstance(a, RelVar))

    def is_ground(self) -> bool:
        return not any(isinstance(a, RelVar) for a in self.args)

    def substitute(self, mapping: Dict[RelVar, RelTerm]) -> "Atom":
        """Apply a substitution to the variable arguments (the atom
        itself when the substitution changes none of them)."""
        args = tuple(
            [mapping.get(a, a) if isinstance(a, RelVar) else a for a in self.args]
        )
        if args == self.args:
            return self
        return Atom(self.predicate, *args)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Atom)
            and other._hash == self._hash
            and other.predicate == self.predicate
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.predicate}({inner})"


#: One position of an atom as a search reads it: its 1-based index, its
#: argument, and whether that argument is a variable.
Slot = Tuple[int, RelTerm, bool]

#: What :meth:`Instance.candidates` answers when no fact can match.
_NO_FACTS: FrozenSet[Atom] = frozenset()


class Instance:
    """A set of ground atoms (facts), indexed by predicate and by value.

    Supports the chase and homomorphism search.  Mutation is restricted
    to :meth:`add` so the indexes stay coherent.
    """

    __slots__ = ("_facts", "_by_predicate", "_by_pv")

    def __init__(self, facts: Optional[Iterable[Atom]] = None) -> None:
        self._facts: Set[Atom] = set()
        self._by_predicate: Dict[str, Set[Atom]] = {}
        # (predicate, position, value) -> atoms
        self._by_pv: Dict[Tuple[str, int, RelTerm], Set[Atom]] = {}
        if facts is not None:
            for fact in facts:
                self.add(fact)

    def add(self, fact: Atom) -> bool:
        """Add a ground fact; returns True if new.

        Raises:
            TGDError: if the atom contains variables.
        """
        if not fact.is_ground():
            raise TGDError(f"instance facts must be ground, got {fact!r}")
        if fact in self._facts:
            return False
        self._facts.add(fact)
        self._by_predicate.setdefault(fact.predicate, set()).add(fact)
        for i, arg in enumerate(fact.args, start=1):
            self._by_pv.setdefault((fact.predicate, i, arg), set()).add(fact)
        return True

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._facts == other._facts

    def __repr__(self) -> str:
        return f"<Instance with {len(self)} facts>"

    def facts_with_predicate(self, predicate: str) -> Set[Atom]:
        return self._by_predicate.get(predicate, set())

    def candidates(
        self,
        predicate: str,
        slots: Sequence[Slot],
        partial: Dict[RelVar, RelTerm],
    ) -> AbstractSet[Atom]:
        """Facts of ``predicate`` that could match an atom's ``slots``
        under the partial substitution.

        Uses the most selective (predicate, position, value) index entry
        among the atom's ground-or-bound positions (the first one on a
        tie); falls back to the predicate index when every position is
        an unbound variable.  The result is an index entry: read it, do
        not change it.
        """
        by_pv = self._by_pv
        best: Optional[Set[Atom]] = None
        for i, arg, is_variable in slots:
            if is_variable:
                arg = partial.get(arg)
                if arg is None:
                    continue
            bucket = by_pv.get((predicate, i, arg))
            if bucket is None:
                return _NO_FACTS
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is not None:
            return best
        return self.facts_with_predicate(predicate)

    def values(self) -> Set[RelTerm]:
        """The active domain: all constants and nulls in any fact."""
        out: Set[RelTerm] = set()
        for fact in self._facts:
            out.update(fact.args)
        return out

    def copy(self) -> "Instance":
        return Instance(self._facts)
