"""Result containers for SPARQL queries.

``SELECT`` produces a :class:`SelectResult` — an ordered sequence of rows
over a fixed variable list — and ``ASK`` a :class:`AskResult`.
:func:`_row_key` is the deterministic row order the reference evaluator
sorts by.
"""

from __future__ import annotations

from collections import Counter
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.terms import Term, Variable

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


def _row_key(row: Tuple[Optional[Term], ...]) -> Tuple:
    return tuple(
        ((0,) if cell is None else (1,) + cell.sort_key()) for cell in row
    )
