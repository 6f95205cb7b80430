"""RDF term model: IRIs, literals, blank nodes and query variables.

The paper (Section 2.1) assumes pairwise disjoint infinite sets *I* (IRIs),
*B* (blank nodes) and *L* (literals), plus a set *V* of variables disjoint
from all three.  This module provides one immutable, hashable class per set:

* :class:`IRI` - an element of *I*;
* :class:`BlankNode` - an element of *B* (the paper identifies blank nodes
  with the labelled nulls of relational data exchange);
* :class:`Literal` - an element of *L*, with optional datatype or language
  tag following RDF 1.0;
* :class:`Variable` - an element of *V*, used only in patterns and queries.

Terms compare by value, hash cheaply (hashes are pre-computed) and have a
total order (used for deterministic result ordering): IRIs < blank nodes <
literals < variables, and lexicographic within each kind.
"""

from __future__ import annotations

import re
import threading
from typing import Optional, Tuple, Union

from repro.errors import TermError

__all__ = [
    "Term",
    "IRI",
    "BlankNode",
    "Literal",
    "Variable",
    "GroundTerm",
    "SubjectTerm",
    "ObjectTerm",
    "XSD_STRING",
    "XSD_INTEGER",
    "XSD_DECIMAL",
    "XSD_DOUBLE",
    "XSD_BOOLEAN",
    "fresh_blank_node",
    "reset_blank_node_counter",
]

# Kind tags give the total order between term kinds.
_KIND_IRI = 0
_KIND_BNODE = 1
_KIND_LITERAL = 2
_KIND_VARIABLE = 3

_IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_BNODE_LABEL = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")
_VARNAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_LANG_TAG = re.compile(r"^[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*$")

XSD = "http://www.w3.org/2001/XMLSchema#"


class Term:
    """Abstract base for all RDF terms and variables.

    Subclasses are immutable value objects.  ``__slots__`` keeps instances
    small because a peer system materialises millions of them.
    """

    __slots__ = ()

    #: Order tag; set by subclasses.
    kind: int = -1

    def sort_key(self) -> Tuple:
        """Key giving the library-wide deterministic total order on terms."""
        raise NotImplementedError

    def n3(self) -> str:
        """Render the term in N-Triples / Turtle surface syntax."""
        raise NotImplementedError

    def is_blank(self) -> bool:
        return isinstance(self, BlankNode)

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


class IRI(Term):
    """An IRI reference (an element of the paper's set *I*).

    Only a light sanity check is performed (RFC 3987 validation is out of
    scope): the IRI must be non-empty and must not contain characters that
    are illegal in any IRI, such as spaces, angle brackets or backslashes.

    Args:
        value: the IRI string, e.g. ``"http://example.org/film/Spiderman"``.

    Raises:
        TermError: if ``value`` is empty or contains a forbidden character.
    """

    __slots__ = ("value", "_hash")
    kind = _KIND_IRI

    def __init__(self, value: str) -> None:
        if not isinstance(value, str):
            raise TermError(f"IRI value must be str, got {type(value).__name__}")
        if not value:
            raise TermError("IRI value must be non-empty")
        match = _IRI_FORBIDDEN.search(value)
        if match:
            raise TermError(
                f"IRI {value!r} contains forbidden character {match.group()!r}"
            )
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("IRI", value)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IRI is immutable")

    def sort_key(self) -> Tuple:
        return (_KIND_IRI, self.value)

    def n3(self) -> str:
        return f"<{self.value}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IRI) and other.value == self.value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def __str__(self) -> str:
        return self.value


class BlankNode(Term):
    """A blank node (element of *B*); the paper's labelled null.

    Blank nodes are identified by a label which must be unique within the
    scope where they are used.  :func:`fresh_blank_node` mints globally
    fresh labels for chase-created nulls.

    Args:
        label: blank node label without the ``_:`` prefix.

    Raises:
        TermError: if the label is empty or contains illegal characters.
    """

    __slots__ = ("label", "_hash")
    kind = _KIND_BNODE

    def __init__(self, label: str) -> None:
        if not isinstance(label, str):
            raise TermError(
                f"BlankNode label must be str, got {type(label).__name__}"
            )
        if not _BNODE_LABEL.match(label):
            raise TermError(f"invalid blank node label {label!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash(("BlankNode", label)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BlankNode is immutable")

    def sort_key(self) -> Tuple:
        return (_KIND_BNODE, self.label)

    def n3(self) -> str:
        return f"_:{self.label}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlankNode) and other.label == self.label

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BlankNode({self.label!r})"

    def __str__(self) -> str:
        return f"_:{self.label}"


class Literal(Term):
    """An RDF literal (element of *L*).

    A literal has a lexical form plus at most one of a datatype IRI or a
    language tag.  Plain literals (neither) are treated as simple strings,
    matching RDF 1.0 which is what the paper's data model uses.

    Args:
        lexical: the lexical form, e.g. ``"39"``.
        datatype: optional datatype :class:`IRI`.
        language: optional BCP-47 language tag, e.g. ``"en"``.

    Raises:
        TermError: if both datatype and language are given, or the language
            tag is malformed.
    """

    __slots__ = ("lexical", "datatype", "language", "_hash")
    kind = _KIND_LITERAL

    def __init__(
        self,
        lexical: str,
        datatype: Optional[IRI] = None,
        language: Optional[str] = None,
    ) -> None:
        if not isinstance(lexical, str):
            raise TermError(
                f"Literal lexical form must be str, got {type(lexical).__name__}"
            )
        if datatype is not None and language is not None:
            raise TermError("a literal cannot have both a datatype and a language")
        if datatype is not None and not isinstance(datatype, IRI):
            raise TermError("Literal datatype must be an IRI")
        if language is not None:
            if not _LANG_TAG.match(language):
                raise TermError(f"invalid language tag {language!r}")
            language = language.lower()
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)
        object.__setattr__(
            self, "_hash", hash(("Literal", lexical, datatype, language))
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Literal is immutable")

    def sort_key(self) -> Tuple:
        return (
            _KIND_LITERAL,
            self.lexical,
            self.datatype.value if self.datatype else "",
            self.language or "",
        )

    def n3(self) -> str:
        escaped = escape_literal(self.lexical)
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype:
            return f'"{escaped}"^^{self.datatype.n3()}'
        return f'"{escaped}"'

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.datatype == self.datatype
            and other.language == self.language
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [repr(self.lexical)]
        if self.datatype:
            parts.append(f"datatype={self.datatype!r}")
        if self.language:
            parts.append(f"language={self.language!r}")
        return f"Literal({', '.join(parts)})"

    def __str__(self) -> str:
        return self.lexical


class Variable(Term):
    """A query variable (element of *V*), written ``?name`` in SPARQL.

    Args:
        name: variable name without the ``?`` / ``$`` sigil.

    Raises:
        TermError: if the name is not a valid identifier.
    """

    __slots__ = ("name", "_hash")
    kind = _KIND_VARIABLE

    def __init__(self, name: str) -> None:
        if not isinstance(name, str):
            raise TermError(
                f"Variable name must be str, got {type(name).__name__}"
            )
        if name.startswith("?") or name.startswith("$"):
            name = name[1:]
        if not _VARNAME.match(name):
            raise TermError(f"invalid variable name {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Variable", name)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Variable is immutable")

    def sort_key(self) -> Tuple:
        return (_KIND_VARIABLE, self.name)

    def n3(self) -> str:
        return f"?{self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return f"?{self.name}"


# Convenience type aliases matching the paper's positional constraints.
GroundTerm = Union[IRI, BlankNode, Literal]
SubjectTerm = Union[IRI, BlankNode]
ObjectTerm = Union[IRI, BlankNode, Literal]

XSD_STRING = IRI(XSD + "string")
XSD_INTEGER = IRI(XSD + "integer")
XSD_DECIMAL = IRI(XSD + "decimal")
XSD_DOUBLE = IRI(XSD + "double")
XSD_BOOLEAN = IRI(XSD + "boolean")


_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def escape_literal(text: str) -> str:
    """Escape a literal lexical form for N-Triples output."""
    out = []
    for ch in text:
        out.append(_ESCAPES.get(ch, ch))
    return "".join(out)


_SIMPLE_UNESCAPES = {
    "n": "\n",
    "r": "\r",
    "t": "\t",
    "b": "\b",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def unescape_literal(text: str) -> str:
    """Reverse :func:`escape_literal`, including ``\\uXXXX`` escapes."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise TermError("dangling backslash in literal")
        nxt = text[i + 1]
        if nxt in _SIMPLE_UNESCAPES:
            out.append(_SIMPLE_UNESCAPES[nxt])
            i += 2
        elif nxt == "u":
            if i + 6 > n:
                raise TermError("truncated \\u escape in literal")
            try:
                out.append(chr(int(text[i + 2 : i + 6], 16)))
            except ValueError as exc:
                raise TermError(f"bad \\u escape in literal: {exc}") from exc
            i += 6
        elif nxt == "U":
            if i + 10 > n:
                raise TermError("truncated \\U escape in literal")
            try:
                out.append(chr(int(text[i + 2 : i + 10], 16)))
            except ValueError as exc:
                raise TermError(f"bad \\U escape in literal: {exc}") from exc
            i += 10
        else:
            raise TermError(f"unknown escape \\{nxt} in literal")
    return "".join(out)


class _BlankNodeCounter:
    """Thread-safe counter minting globally fresh blank node labels."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0

    def fresh(self, prefix: str) -> BlankNode:
        with self._lock:
            value = self._next
            self._next += 1
        return BlankNode(f"{prefix}{value}")

    def reset(self) -> None:
        with self._lock:
            self._next = 0


_COUNTER = _BlankNodeCounter()


def fresh_blank_node(prefix: str = "null") -> BlankNode:
    """Mint a fresh blank node, used by the chase for labelled nulls.

    Labels have the shape ``<prefix><n>`` with a process-wide counter, so
    two calls never collide.  The paper's chase "generates new blank nodes
    as labelled nulls"; this is the minting function it uses.
    """
    return _COUNTER.fresh(prefix)


def reset_blank_node_counter() -> None:
    """Reset the fresh-label counter (tests only; makes runs deterministic)."""
    _COUNTER.reset()
