"""Recursive-descent parser for the SPARQL conjunctive fragment.

Grammar (informal):

.. code-block:: text

    Query        := Prologue (SelectQuery | AskQuery)
    Prologue     := (PREFIX pname: <iri>)*
    SelectQuery  := SELECT (DISTINCT|REDUCED)? (Var+ | *) WHERE? Group
                    (ORDER BY OrderCond+)? (LIMIT n)? (OFFSET n)?
    AskQuery     := ASK WHERE? Group
    Group        := { (TriplesBlock | Group (UNION Group)*
                       | OPTIONAL Group | FILTER Expr)* }
    TriplesBlock := Term Term Term (';' Term Term)* ('.' ...)*

Property paths, GRAPH, subqueries, aggregation and BIND are out of
scope (the paper's language is the conjunctive fragment plus UNION;
OPTIONAL is supported as the algebra's left join); encountering an
unsupported feature raises :class:`UnsupportedSparqlError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import (
    SparqlSyntaxError,
    TermError,
    UnsupportedSparqlError,
)
from repro.rdf.namespaces import NamespaceManager, RDF_TYPE
from repro.rdf.terms import (
    BlankNode,
    IRI,
    Literal,
    Term,
    Variable,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    unescape_literal,
)
from repro.rdf.triples import TriplePattern
from repro.sparql.ast import (
    AskQuery,
    BooleanExpr,
    Comparison,
    FilterExpr,
    GroupPattern,
    OptionalPattern,
    OrderCondition,
    PatternElement,
    Query,
    SelectQuery,
    UnionPattern,
)
from repro.sparql.lexer import Token, tokenize

__all__ = ["parse_query", "SparqlParser"]

_UNSUPPORTED_KEYWORDS = frozenset(
    {
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


#: The prefixes a text starts with when the caller passes no manager.
#: Shared by every parse and never bound: the first PREFIX of a text
#: binds on a copy.
_DEFAULT_NAMESPACES = NamespaceManager()

#: Token kinds whose term is built once per parse (see ``interned``).
_INTERNED_KINDS = frozenset({"iri", "var", "pname"})


class SparqlParser:
    """Parses one query string into an AST.

    Args:
        text: the SPARQL query.
        nsm: optional namespace manager with pre-bound prefixes; PREFIX
            declarations found in the query are added to a copy, so the
            caller's manager is not mutated.
    """

    def __init__(self, text: str, nsm: Optional[NamespaceManager] = None) -> None:
        self.tokens = tokenize(text)
        self.pos = 0
        self.nsm = nsm if nsm is not None else _DEFAULT_NAMESPACES
        #: IRI, variable and prefixed-name terms by token text.
        self.terms: Dict[str, Term] = {}

    # -- token plumbing -------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, token: Token, message: str) -> SparqlSyntaxError:
        return SparqlSyntaxError(message, line=token.line, column=token.column)

    def at_keyword(self, *names: str) -> bool:
        token = self.peek()
        return token.kind == "keyword" and token.value in names

    def expect_keyword(self, name: str) -> Token:
        token = self.next()
        if token.kind != "keyword" or token.value != name:
            raise self.error(token, f"expected {name}, found {token.value!r}")
        return token

    def at_punct(self, char: str) -> bool:
        token = self.peek()
        return token.kind == "punct" and token.value == char

    def expect_punct(self, char: str) -> Token:
        token = self.next()
        if token.kind != "punct" or token.value != char:
            raise self.error(token, f"expected {char!r}, found {token.value!r}")
        return token

    # -- grammar ----------------------------------------------------------

    def parse(self) -> Query:
        self.parse_prologue()
        token = self.peek()
        if self.at_keyword("SELECT"):
            query = self.parse_select()
        elif self.at_keyword("ASK"):
            query = self.parse_ask()
        else:
            raise self.error(token, f"expected SELECT or ASK, found {token.value!r}")
        tail = self.peek()
        if tail.kind != "eof":
            raise self.error(tail, f"unexpected trailing input {tail.value!r}")
        return query

    def parse_prologue(self) -> None:
        own: Optional[NamespaceManager] = None
        while self.at_keyword("PREFIX", "BASE"):
            token = self.next()
            if token.value == "BASE":
                raise UnsupportedSparqlError("BASE declarations are not supported")
            pname = self.next()
            if pname.kind != "pname" or not pname.value.endswith(":"):
                raise self.error(pname, "expected prefix name ending in ':'")
            iri_token = self.next()
            if iri_token.kind != "iri":
                raise self.error(iri_token, "expected namespace IRI")
            if own is None:
                own = self.nsm = self.nsm.copy()
            own.bind(pname.value[:-1], iri_token.value[1:-1])

    def parse_select(self) -> SelectQuery:
        self.expect_keyword("SELECT")
        distinct = reduced = False
        if self.at_keyword("DISTINCT"):
            self.next()
            distinct = True
        elif self.at_keyword("REDUCED"):
            self.next()
            reduced = True
        variables: List[Variable] = []
        if self.at_punct("*"):
            self.next()
        else:
            while self.peek().kind == "var":
                variables.append(self.interned(self.next()))
            if not variables:
                raise self.error(self.peek(), "SELECT needs variables or *")
        if self.at_keyword("WHERE"):
            self.next()
        where = self.parse_group()
        order = self.parse_order_by()
        limit, offset = self.parse_slice()
        return SelectQuery(
            variables=tuple(variables),
            where=where,
            distinct=distinct,
            reduced=reduced,
            order=order,
            limit=limit,
            offset=offset,
        )

    def parse_ask(self) -> AskQuery:
        self.expect_keyword("ASK")
        if self.at_keyword("WHERE"):
            self.next()
        return AskQuery(where=self.parse_group())

    def parse_order_by(self) -> Tuple[OrderCondition, ...]:
        if not self.at_keyword("ORDER"):
            return ()
        self.next()
        self.expect_keyword("BY")
        conditions: List[OrderCondition] = []
        while True:
            descending = False
            if self.at_keyword("ASC", "DESC"):
                descending = self.next().value == "DESC"
                self.expect_punct("(")
                var_token = self.next()
                if var_token.kind != "var":
                    raise self.error(var_token, "expected variable in ORDER BY")
                self.expect_punct(")")
                conditions.append(
                    OrderCondition(self.interned(var_token), descending)
                )
            elif self.peek().kind == "var":
                conditions.append(
                    OrderCondition(self.interned(self.next()), False)
                )
            else:
                break
        if not conditions:
            raise self.error(self.peek(), "ORDER BY needs at least one condition")
        return tuple(conditions)

    def parse_slice(self) -> Tuple[Optional[int], Optional[int]]:
        limit: Optional[int] = None
        offset: Optional[int] = None
        while self.at_keyword("LIMIT", "OFFSET"):
            keyword_token = self.peek()
            keyword = self.next().value
            if (keyword == "LIMIT" and limit is not None) or (
                keyword == "OFFSET" and offset is not None
            ):
                raise self.error(keyword_token, f"duplicate {keyword} clause")
            number = self.next()
            if number.kind != "integer":
                raise self.error(number, f"expected integer after {keyword}")
            value = int(number.value)
            if value < 0:
                raise self.error(
                    number, f"{keyword} must be non-negative, got {value}"
                )
            if keyword == "LIMIT":
                limit = value
            else:
                offset = value
        return limit, offset

    # -- group graph patterns ---------------------------------------------

    def parse_group(self) -> GroupPattern:
        self.expect_punct("{")
        elements: List[PatternElement] = []
        while not self.at_punct("}"):
            token = self.peek()
            if token.kind == "eof":
                raise self.error(token, "unterminated group (missing '}')")
            if token.kind == "punct" and token.value == "{":
                elements.append(self.parse_group_or_union())
            elif self.at_keyword("OPTIONAL"):
                self.next()
                elements.append(OptionalPattern(self.parse_group()))
            elif self.at_keyword("FILTER"):
                self.next()
                elements.append(self.parse_filter())
            elif token.kind == "keyword" and token.value in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedSparqlError(
                    f"{token.value} is outside the conjunctive fragment"
                )
            else:
                elements.extend(self.parse_triples_block())
            # Optional '.' separators between elements.
            while self.at_punct("."):
                self.next()
        self.expect_punct("}")
        return GroupPattern(tuple(elements))

    def parse_group_or_union(self) -> PatternElement:
        first = self.parse_group()
        if not self.at_keyword("UNION"):
            return first
        alternatives = [first]
        while self.at_keyword("UNION"):
            self.next()
            alternatives.append(self.parse_group())
        return UnionPattern(tuple(alternatives))

    def parse_filter(self) -> FilterExpr:
        self.expect_punct("(")
        expr = self.parse_or_expr()
        self.expect_punct(")")
        return expr

    def parse_or_expr(self) -> FilterExpr:
        left = self.parse_and_expr()
        while self.peek().kind == "oror":
            self.next()
            right = self.parse_and_expr()
            left = BooleanExpr("||", left, right)
        return left

    def parse_and_expr(self) -> FilterExpr:
        left = self.parse_comparison()
        while self.peek().kind == "andand":
            self.next()
            right = self.parse_comparison()
            left = BooleanExpr("&&", left, right)
        return left

    def parse_comparison(self) -> FilterExpr:
        if self.at_punct("("):
            self.next()
            expr = self.parse_or_expr()
            self.expect_punct(")")
            return expr
        left = self.parse_term(position="filter")
        op_token = self.next()
        if op_token.kind == "neq":
            op = "!="
        elif op_token.kind == "punct" and op_token.value == "=":
            op = "="
        else:
            raise self.error(op_token, "expected '=' or '!=' in FILTER")
        right = self.parse_term(position="filter")
        return Comparison(left, op, right)

    def parse_triples_block(self) -> List[TriplePattern]:
        patterns: List[TriplePattern] = []
        subject = self.parse_term(position="subject")
        while True:
            predicate = self.parse_verb()
            while True:
                object_ = self.parse_term(position="object")
                try:
                    patterns.append(TriplePattern(subject, predicate, object_))
                except Exception as exc:
                    raise SparqlSyntaxError(str(exc)) from exc
                if self.at_punct(","):
                    self.next()
                    continue
                break
            if self.at_punct(";"):
                self.next()
                if self.at_punct(".") or self.at_punct("}"):
                    break
                continue
            break
        return patterns

    def parse_verb(self) -> Term:
        if self.peek().kind == "a":
            self.next()
            return RDF_TYPE
        return self.parse_term(position="predicate")

    def interned(self, token: Token) -> Term:
        """The term of an IRI, variable or prefixed-name token.

        Built, and so validated, once per distinct token text in a
        parse; the prologue is over before the first term, so a
        prefixed name expands the same way at every occurrence.
        """
        term = self.terms.get(token.value)
        if term is None:
            try:
                if token.kind == "iri":
                    term = IRI(token.value[1:-1])
                elif token.kind == "var":
                    term = Variable(token.value)
                else:
                    term = self.nsm.expand(token.value)
            except TermError as exc:
                raise self.error(token, str(exc)) from exc
            self.terms[token.value] = term
        return term

    def parse_term(self, position: str) -> Term:
        token = self.next()
        if token.kind in _INTERNED_KINDS:
            return self.interned(token)
        try:
            if token.kind == "bnode":
                return BlankNode(token.value[2:])
            if token.kind == "string":
                return self.parse_literal_tail(token)
            if token.kind == "integer":
                return Literal(token.value, datatype=XSD_INTEGER)
            if token.kind == "decimal":
                return Literal(token.value, datatype=XSD_DECIMAL)
            if token.kind == "double":
                return Literal(token.value, datatype=XSD_DOUBLE)
            if token.kind == "keyword" and token.value in ("TRUE", "FALSE"):
                return Literal(token.value.lower(), datatype=XSD_BOOLEAN)
        except TermError as exc:
            raise self.error(token, str(exc)) from exc
        raise self.error(
            token, f"unexpected token {token.value!r} in {position} position"
        )

    def parse_literal_tail(self, token: Token) -> Literal:
        try:
            lexical = unescape_literal(token.value[1:-1])
        except TermError as exc:
            raise self.error(token, str(exc)) from exc
        nxt = self.peek()
        if nxt.kind == "langtag":
            self.next()
            return Literal(lexical, language=nxt.value[1:])
        if nxt.kind == "dtype":
            self.next()
            dt_token = self.next()
            if dt_token.kind == "iri":
                return Literal(lexical, datatype=IRI(dt_token.value[1:-1]))
            if dt_token.kind == "pname":
                return Literal(lexical, datatype=self.nsm.expand(dt_token.value))
            raise self.error(dt_token, "expected datatype IRI")
        return Literal(lexical)


def parse_query(text: str, nsm: Optional[NamespaceManager] = None) -> Query:
    """Parse a SPARQL query string into an AST.

    Raises:
        SparqlSyntaxError: on malformed syntax.
        UnsupportedSparqlError: on features outside the supported
            fragment (GRAPH, property paths, aggregation, ...).
    """
    return SparqlParser(text, nsm).parse()
