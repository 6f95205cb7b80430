"""Tokenizer for the SPARQL conjunctive fragment.

Covers the surface syntax the library accepts: ``PREFIX``/``BASE``
headers, ``SELECT``/``ASK`` forms, brace-delimited group graph patterns,
``UNION``, ``FILTER`` with (in)equality, ``DISTINCT``/``REDUCED``,
``ORDER BY``/``LIMIT``/``OFFSET``, variables, IRIs, prefixed names,
literals (with language tags and datatypes), numbers and booleans.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.errors import SparqlSyntaxError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    {
        "SELECT",
        "ASK",
        "WHERE",
        "PREFIX",
        "BASE",
        "UNION",
        "FILTER",
        "DISTINCT",
        "REDUCED",
        "ORDER",
        "BY",
        "ASC",
        "DESC",
        "LIMIT",
        "OFFSET",
        "TRUE",
        "FALSE",
        # Recognised so the parser can reject them with a precise
        # "outside the conjunctive fragment" error instead of a lex error.
        "OPTIONAL",
        "GRAPH",
        "SERVICE",
        "MINUS",
        "BIND",
        "VALUES",
        "GROUP",
        "HAVING",
        "CONSTRUCT",
        "DESCRIBE",
        "EXISTS",
    }
)


class Token(NamedTuple):
    """A lexical token with source position for error messages."""

    kind: str
    value: str
    line: int
    column: int


#: One match per token.  Whitespace and comments are a skipped prefix,
#: so a match ends at a token's last character; the token group is
#: optional so that the pattern matches at every offset, and a match
#: with no group marks either the end of the text or a character that
#: starts no token.  ``pname`` precedes ``word``: a word glued to ``:``
#: is a prefixed name, never a keyword.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:\#[^\n]*\s*)*
    (?:
      (?P<iri><[^<>\s]*>)
    | (?P<var>[?$][A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<bnode>_:[A-Za-z0-9_][A-Za-z0-9_.\-]*)
    | (?P<langtag>@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
    | (?P<dtype>\^\^)
    | (?P<double>[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.?\d+[eE][+-]?\d+))
    | (?P<decimal>[+-]?\d*\.\d+)
    | (?P<integer>[+-]?\d+)
    | (?P<neq>!=)
    | (?P<andand>&&)
    | (?P<oror>\|\|)
    | (?P<pname>[A-Za-z_][A-Za-z0-9_\-]*:[A-Za-z0-9_.\-]*|:[A-Za-z0-9_.\-]+)
    | (?P<word>[A-Za-z_][A-Za-z0-9_\-]*)
    | (?P<punct>[{}().;,*=])
    )?
    """,
    re.VERBOSE,
)

#: Builds a ``Token`` without the named tuple's Python-level ``__new__``.
_new_token = tuple.__new__


def tokenize(text: str) -> List[Token]:
    """Tokenize SPARQL text.

    A token's line and column are those of its first character, from
    the newlines before it in the text itself, so a string literal that
    spans lines moves the tokens after it down.

    Raises:
        SparqlSyntaxError: on any character that starts no token.
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    length = len(text)
    line = 1
    line_start = 0  # offset of the first character of ``line``
    newline = text.find("\n")  # the first newline not counted in ``line``
    if newline < 0:
        newline = length
    pos = 0
    while True:
        found = match(text, pos)
        kind = found.lastgroup
        pos = found.end()
        start = found.start(kind) if kind else pos
        if newline < start:
            line += text.count("\n", newline, start)
            line_start = text.rindex("\n", newline, start) + 1
            newline = text.find("\n", start)
            if newline < 0:
                newline = length
        column = start - line_start + 1
        if kind is None:
            if pos < length:
                raise SparqlSyntaxError(
                    f"unexpected character {text[pos]!r}",
                    line=line,
                    column=column,
                )
            append(_new_token(Token, ("eof", "", line, column)))
            return tokens
        value = text[start:pos]
        if kind == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                kind, value = "keyword", upper
            elif value == "a":
                kind = "a"
            else:
                raise SparqlSyntaxError(
                    f"unexpected identifier {value!r}", line=line, column=column
                )
        append(_new_token(Token, (kind, value, line, column)))
