"""Result containers and formatting for SPARQL queries.

``SELECT`` produces a :class:`SelectResult` — an ordered sequence of rows
over a fixed variable list — and ``ASK`` a :class:`AskResult`.  Rows print
like the paper's listings (``DB1:Toby_Maguire "39"``), using a namespace
manager when one is supplied.
"""

from __future__ import annotations

from collections import Counter
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import BlankNode, IRI, Term, Variable

__all__ = ["SelectResult", "AskResult"]


class SelectResult:
    """An ordered table of solution rows.

    Args:
        variables: the projection, in order.
        rows: tuples aligned with ``variables``; a ``None`` cell means the
            variable is unbound in that solution (cannot happen in the
            conjunctive fragment but kept for safety).

    A result is a value: ``rows`` is fixed once constructed, which is
    what lets membership tests share one row set.
    """

    def __init__(
        self,
        variables: Sequence[Variable],
        rows: Sequence[Tuple[Optional[Term], ...]],
    ) -> None:
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self.rows: List[Tuple[Optional[Term], ...]] = list(rows)
        self._distinct: Optional[FrozenSet[Tuple[Optional[Term], ...]]] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Optional[Term], ...]]:
        return iter(self.rows)

    def __contains__(self, row: Tuple[Optional[Term], ...]) -> bool:
        if self._distinct is None:
            self._distinct = frozenset(self.rows)
        return tuple(row) in self._distinct

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SelectResult):
            return NotImplemented
        return self.variables == other.variables and Counter(
            self.rows
        ) == Counter(other.rows)

    def __repr__(self) -> str:
        return f"<SelectResult {len(self.rows)} rows x {len(self.variables)} vars>"

    def as_set(self) -> Set[Tuple[Optional[Term], ...]]:
        """Rows as a set (the paper's set semantics)."""
        return set(self.rows)

    def sorted(self) -> "SelectResult":
        """A copy with rows in the deterministic term order."""
        return SelectResult(self.variables, sorted(self.rows, key=_row_key))

    def project(self, variables: Sequence[Variable]) -> "SelectResult":
        """Project onto a sub-list of the variables."""
        indexes = [self.variables.index(v) for v in variables]
        rows = [tuple(row[i] for i in indexes) for row in self.rows]
        return SelectResult(variables, rows)

    def drop_blank_rows(self) -> "SelectResult":
        """Remove rows containing blank nodes (the ``Q_D`` semantics)."""
        rows = [
            row
            for row in self.rows
            if not any(isinstance(cell, BlankNode) for cell in row)
        ]
        return SelectResult(self.variables, rows)

    def to_text(self, nsm: Optional[NamespaceManager] = None) -> str:
        """Paper-listing style rendering, one row per line."""
        lines = []
        for row in self.rows:
            lines.append(" ".join(_render(cell, nsm) for cell in row))
        return "\n".join(lines)

    def to_table(self, nsm: Optional[NamespaceManager] = None) -> str:
        """ASCII table with a header row."""
        header = [f"?{v.name}" for v in self.variables]
        body = [[_render(cell, nsm) for cell in row] for row in self.rows]
        widths = [len(h) for h in header]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        out = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            sep,
        ]
        for row in body:
            out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(out)


class AskResult:
    """Boolean result of an ASK query."""

    def __init__(self, value: bool) -> None:
        self.value = bool(value)

    def __bool__(self) -> bool:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AskResult):
            return self.value == other.value
        if isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("AskResult", self.value))

    def __repr__(self) -> str:
        return f"AskResult({self.value})"

    def to_text(self) -> str:
        return "true" if self.value else "false"


def _render(cell: Optional[Term], nsm: Optional[NamespaceManager]) -> str:
    if cell is None:
        return ""
    if nsm is not None and isinstance(cell, IRI):
        return nsm.display(cell)
    return cell.n3()


def _row_key(row: Tuple[Optional[Term], ...]) -> Tuple:
    return tuple(
        ((0,) if cell is None else (1,) + cell.sort_key()) for cell in row
    )
