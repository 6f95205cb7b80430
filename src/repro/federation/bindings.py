"""What the federated layer adds to :class:`~repro.sparql.batch.Batch`.

Above the wire the federation moves the local engine's currency: a
chunk is a :class:`~repro.sparql.batch.Batch` — parallel columns of
integer term IDs, :data:`~repro.sparql.batch.UNBOUND` in a cell the row
does not bind (UNION branches with unequal domains, unmatched OPTIONAL
extensions) — plus a parallel *origin* list naming the recorded
request(s) that produced each row.  Joins, left joins and FILTERs are
the batch engine's kernels (``join_pairs``, ``left_join_pairs``,
``gather_pairs``, ``compile_mask``); this module holds only what is
particular to the federation:

* every operator's schema is **name-sorted** (:func:`schema_of`,
  :func:`relayout`), so a row read off the columns — its tuple or its
  packed key — is the same whichever strategy produced it;
* keep-first deduplication (:func:`fresh_rows`) keys each row by one
  packed int (:func:`~repro.sparql.batch.pack_ids`), which the garbage
  collector does not track;
* :class:`CompiledFilter` carries a compiled mask with the variables
  that make it decidable, for pushdown (:func:`split_filters`).

Nothing here touches the network or the simulation clock; these are
pure functions, shared by the plan interpreter and the executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.rdf.terms import Variable
from repro.sparql.ast import FilterExpr
from repro.sparql.batch import (
    UNBOUND,
    Batch,
    gather_pairs,
    join_pairs,
    left_join_pairs,
    pack_ids,
)

__all__ = [
    "CHUNK_ROWS",
    "CompiledFilter",
    "IDBinding",
    "Row",
    "Schema",
    "as_batch",
    "bindings_of",
    "canonical",
    "dedupe",
    "fresh_rows",
    "hash_join",
    "left_join",
    "project",
    "relayout",
    "schema_of",
    "split_filters",
]

#: A federated solution as a dict: variable -> integer term ID.
IDBinding = Dict[Variable, int]

#: One row read off a batch's columns: term IDs in schema order.
Row = Tuple[int, ...]

#: A name-sorted tuple of variables naming a batch's columns.
Schema = Tuple[Variable, ...]

#: Rows a local operator (join, left join) emits per chunk: bounds the
#: work a demand-capped consumer (LIMIT, ASK) pays for rows it drops.
CHUNK_ROWS = 1024


@dataclass(frozen=True)
class CompiledFilter:
    """A branch filter compiled to a column mask.

    Attributes:
        expr: the source FILTER expression (kept for explain traces).
        variables: the variables the expression mentions; the filter is
            decidable once all of them are bound (an unbound variable
            error-collapses the comparison to false at runtime).
        accept: the :func:`~repro.sparql.batch.compile_mask` mask: one
            verdict per row of a batch.
    """

    expr: FilterExpr
    variables: FrozenSet[Variable]
    accept: Callable[[Batch], List[bool]]


def split_filters(
    filters: List[CompiledFilter], bound: Set[Variable]
) -> Tuple[List[CompiledFilter], List[CompiledFilter]]:
    """Partition filters into (decidable under ``bound``, the rest)."""
    ready: List[CompiledFilter] = []
    rest: List[CompiledFilter] = []
    for f in filters:
        (ready if f.variables <= bound else rest).append(f)
    return ready, rest


# ---------------------------------------------------------------------------
# Schemas, layout and row identity
# ---------------------------------------------------------------------------


def schema_of(variables: Iterable[Variable]) -> Schema:
    """The name-sorted schema over ``variables`` (duplicates collapse)."""
    return tuple(sorted(set(variables), key=attrgetter("name")))


def relayout(batch: Batch, schema: Sequence[Variable]) -> Batch:
    """``batch`` with its columns re-laid out under ``schema``.

    Columns move as they are (no copy); a variable the batch lacks
    becomes an all-``UNBOUND`` column and variables ``schema`` lacks are
    dropped (projection).
    """
    if batch.schema == schema:
        return batch
    columns = []
    for var in schema:
        col = batch.col(var)
        columns.append([UNBOUND] * batch.n if col is None else col)
    return Batch(tuple(schema), columns, batch.n)


def fresh_rows(
    batch: Batch, origins: List, seen: Set[int], base: int
) -> Tuple[Batch, List]:
    """Keep-first deduplication of a chunk: the rows not in ``seen``
    (first occurrences, in order) with their origins; ``seen`` absorbs
    them.

    Rows are keyed by :func:`~repro.sparql.batch.pack_ids` in radix
    ``base``, which must exceed every ID by two; one ``seen`` serves
    chunks of one schema only.
    """
    keys = pack_ids(batch.columns, batch.n, base)
    unique = dict.fromkeys(keys)
    if len(unique) == len(keys) and seen.isdisjoint(unique):
        seen.update(unique)
        return batch, origins
    keep: List[int] = []
    for i, key in enumerate(keys):
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return batch.gather(keep), [origins[i] for i in keep]


# ---------------------------------------------------------------------------
# The dict surface.  ``benchmarks/probes.py`` imports ``canonical``,
# ``dedupe``, ``project``, ``hash_join`` and ``left_join`` (and calls
# ``PeerEndpoint.bound_solutions``) at module level, and nothing under
# ``benchmarks/`` may change in the PR that moved the data plane onto
# batches; the joins are adapters over the batch kernels.  Once a
# ``benchmark`` PR has moved the probes onto the kernels, delete
# everything below this line.
# ---------------------------------------------------------------------------


def as_batch(bindings: Sequence[IDBinding]) -> Batch:
    """Dict bindings as a batch over the variables they bind."""
    schema = schema_of(var for binding in bindings for var in binding)
    return Batch(
        schema,
        [[b.get(var, UNBOUND) for b in bindings] for var in schema],
        len(bindings),
    )


def bindings_of(batch: Batch) -> List[IDBinding]:
    """Rows as dict bindings (unbound cells are simply absent)."""
    schema = batch.schema
    return [
        {var: tid for var, tid in zip(schema, row) if tid != UNBOUND}
        for row in batch.rows()
    ]


def canonical(binding: IDBinding) -> Tuple[Tuple[str, int], ...]:
    """Order-independent identity of one binding (sorted name/ID pairs)."""
    return tuple(sorted((v.name, tid) for v, tid in binding.items()))


def dedupe(bindings: List[IDBinding]) -> List[IDBinding]:
    """Drop duplicate bindings, keeping first occurrences in order."""
    seen: Set[Tuple[Tuple[str, int], ...]] = set()
    out: List[IDBinding] = []
    for binding in bindings:
        key = canonical(binding)
        if key not in seen:
            seen.add(key)
            out.append(binding)
    return out


def project(
    bindings: Sequence[IDBinding], head: Tuple[Variable, ...]
) -> Set[Tuple[Optional[int], ...]]:
    """Project bindings onto the head; unbound cells become ``None``."""
    return {tuple(b.get(v) for v in head) for b in bindings}


def hash_join(
    left: List[IDBinding], right: List[IDBinding]
) -> List[IDBinding]:
    """Join two binding lists on their per-pair shared variables."""
    lhs, rhs = as_batch(left), as_batch(right)
    sel_l, sel_r, _ = join_pairs(lhs, rhs, {})
    return bindings_of(gather_pairs(lhs, rhs, sel_l, sel_r))


def left_join(
    left: List[IDBinding],
    right: List[IDBinding],
    condition: Optional[Callable[[IDBinding], bool]] = None,
) -> List[IDBinding]:
    """SPARQL left join over binding lists, deduplicated keep-first.

    ``condition`` is a predicate over one merged binding.
    """
    lhs, rhs = as_batch(left), as_batch(right)

    def mask(merged: Batch) -> List[bool]:
        return list(map(condition, bindings_of(merged)))

    sel_l, sel_r = left_join_pairs(
        lhs, rhs, {}, None if condition is None else mask
    )
    merged = gather_pairs(lhs, rhs, sel_l, sel_r)
    top = max([0] + [max(col) for col in merged.columns if col])
    return bindings_of(fresh_rows(merged, sel_l, set(), top + 2)[0])
