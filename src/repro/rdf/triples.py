"""RDF triples and triple patterns.

The paper defines an RDF triple as ``(s, p, o) ∈ (I ∪ B) × I × (I ∪ B ∪ L)``
and a *triple pattern* as a tuple from
``(I ∪ L ∪ V) × (I ∪ V) × (I ∪ L ∪ V)`` (Section 2.1, item 1 of the graph
pattern grammar).  Note the asymmetry: the paper's triple *patterns* admit
literals in the subject position but not blank nodes, whereas *triples*
admit blank nodes but not literals in the subject.  We implement both
faithfully; :class:`TriplePattern` additionally allows blank nodes so that
patterns can be matched against chase-produced data when evaluating the
blank-keeping semantics ``Q*_D``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.errors import TripleError
from repro.rdf.terms import (
    BlankNode,
    IRI,
    Literal,
    Term,
    Variable,
)

__all__ = ["Triple", "TriplePattern", "POSITIONS"]

#: Names of the three triple positions, in order.
POSITIONS = ("subject", "predicate", "object")


class Triple:
    """An RDF triple ``(s, p, o)``.

    Positional constraints from the paper's Section 2.1 are enforced:
    the subject is an IRI or blank node, the predicate is an IRI, and the
    object is an IRI, blank node or literal.

    Args:
        subject: IRI or blank node.
        predicate: IRI.
        object: IRI, blank node or literal.

    Raises:
        TripleError: if a position holds a term of the wrong kind.
    """

    __slots__ = ("subject", "predicate", "object", "_hash")

    def __init__(self, subject: Term, predicate: Term, object: Term) -> None:
        if not isinstance(subject, (IRI, BlankNode)):
            raise TripleError(
                f"triple subject must be IRI or blank node, got {subject!r}"
            )
        if not isinstance(predicate, IRI):
            raise TripleError(f"triple predicate must be IRI, got {predicate!r}")
        if not isinstance(object, (IRI, BlankNode, Literal)):
            raise TripleError(
                f"triple object must be IRI, blank node or literal, got {object!r}"
            )
        obj_setattr = super().__setattr__
        obj_setattr("subject", subject)
        obj_setattr("predicate", predicate)
        obj_setattr("object", object)
        obj_setattr("_hash", hash((subject, predicate, object)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Triple is immutable")

    def __iter__(self) -> Iterator[Term]:
        yield self.subject
        yield self.predicate
        yield self.object

    def __getitem__(self, index: int) -> Term:
        return (self.subject, self.predicate, self.object)[index]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Triple)
            and other.subject == self.subject
            and other.predicate == self.predicate
            and other.object == self.object
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Triple") -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> Tuple:
        return (
            self.subject.sort_key(),
            self.predicate.sort_key(),
            self.object.sort_key(),
        )

    def __repr__(self) -> str:
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r})"

    def n3(self) -> str:
        """Render as an N-Triples line (without the trailing newline)."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def terms(self) -> Tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)


class TriplePattern:
    """A triple pattern: a triple whose positions may hold variables.

    Follows the paper's definition — subject/object from ``I ∪ L ∪ V``
    (we additionally admit blank nodes so patterns can be evaluated under
    the ``Q*`` semantics over chase output), predicate from ``I ∪ V``.

    Args:
        subject: IRI, literal, blank node or variable.
        predicate: IRI or variable.
        object: IRI, literal, blank node or variable.

    Raises:
        TripleError: if the predicate is a literal or blank node.
    """

    __slots__ = ("subject", "predicate", "object", "_hash")

    def __init__(self, subject: Term, predicate: Term, object: Term) -> None:
        for pos_name, term in (("subject", subject), ("object", object)):
            if not isinstance(term, (IRI, Literal, BlankNode, Variable)):
                raise TripleError(
                    f"pattern {pos_name} must be an RDF term or variable, "
                    f"got {term!r}"
                )
        if not isinstance(predicate, (IRI, Variable)):
            raise TripleError(
                f"pattern predicate must be IRI or variable, got {predicate!r}"
            )
        obj_setattr = super().__setattr__
        obj_setattr("subject", subject)
        obj_setattr("predicate", predicate)
        obj_setattr("object", object)
        obj_setattr("_hash", hash(("tp", subject, predicate, object)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TriplePattern is immutable")

    def __iter__(self) -> Iterator[Term]:
        yield self.subject
        yield self.predicate
        yield self.object

    def __getitem__(self, index: int) -> Term:
        return (self.subject, self.predicate, self.object)[index]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TriplePattern)
            and other.subject == self.subject
            and other.predicate == self.predicate
            and other.object == self.object
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"TriplePattern({self.subject!r}, {self.predicate!r}, "
            f"{self.object!r})"
        )

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def variables(self) -> frozenset:
        """The set ``var(t)`` of variables occurring in the pattern."""
        return frozenset(t for t in self if isinstance(t, Variable))

    def is_ground(self) -> bool:
        """True if the pattern contains no variables."""
        return not any(isinstance(t, Variable) for t in self)

    def substitute(self, mapping: Dict[Variable, Term]) -> "TriplePattern":
        """Apply a partial substitution, returning a new pattern.

        Variables absent from ``mapping`` are left in place, so the result
        may still contain variables.  This is the paper's ``µ(t)`` notation
        extended to partial mappings.
        """

        def subst(term: Term) -> Term:
            if isinstance(term, Variable):
                return mapping.get(term, term)
            return term

        return TriplePattern(
            subst(self.subject), subst(self.predicate), subst(self.object)
        )

    def to_triple(self, mapping: Optional[Dict[Variable, Term]] = None) -> Triple:
        """Instantiate the pattern into a concrete :class:`Triple`.

        Args:
            mapping: substitution for the pattern's variables; must cover
                all of them.

        Raises:
            TripleError: if a variable remains unbound or a bound value
                violates the triple positional constraints.
        """
        pattern = self.substitute(mapping or {})
        if not pattern.is_ground():
            unbound = sorted(v.name for v in pattern.variables())
            raise TripleError(
                f"cannot instantiate pattern; unbound variables: {unbound}"
            )
        return Triple(pattern.subject, pattern.predicate, pattern.object)

    def matches(self, triple: Triple) -> Optional[Dict[Variable, Term]]:
        """Match against a concrete triple.

        Returns:
            The mapping ``µ`` with ``dom(µ) = var(t)`` such that
            ``µ(t) == triple``, or ``None`` if the pattern does not match.
            Ground positions must equal the triple's term exactly; repeated
            variables must bind consistently.
        """
        binding: Dict[Variable, Term] = {}
        for pat_term, data_term in zip(self, triple):
            if isinstance(pat_term, Variable):
                bound = binding.get(pat_term)
                if bound is None:
                    binding[pat_term] = data_term
                elif bound != data_term:
                    return None
            elif pat_term != data_term:
                return None
        return binding
