"""Shared row-batch plumbing for the federated execution layer.

Every federated operator — and the remaining executor glue — speaks the
same currency: a *row batch* under a name-sorted **schema** (a tuple of
variables).  A row is a plain tuple of integer term IDs in schema
order, :data:`~repro.sparql.batch.UNBOUND` marking a cell the row does
not bind (UNION branches with unequal domains, unmatched OPTIONAL
extensions), and a parallel *origin* column names the recorded
request(s) that produced each row.  Row identity is the tuple itself:
deduplication is a set of rows, projection and joins move cells by
column position, and because the schema is name-sorted, tuple order on
fully bound rows *is* the canonical order batches form in.

This module holds the helpers both the physical-operator layer
(:mod:`repro.federation.plan`) and the executor
(:mod:`repro.federation.executor`) need: schema construction and
re-layout, order-stable deduplication, the canonical sort key,
compiled-FILTER selection, the domain-aware hash join and hash left
join, and result projection.  A small dict surface
(:func:`canonical`, :func:`dedupe`, :func:`hash_join`,
:func:`left_join`, :func:`project`, ...) over lists of
``{Variable: int}`` bindings is kept for tests and the benchmark's
per-layer probes; the joins among them are thin adapters over the row
forms.

Nothing here touches the network or the simulation clock; these are pure
functions over rows, which is what makes them shareable across the
serial and runtime-backed plan interpreters.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.rdf.terms import Variable
from repro.sparql.ast import FilterExpr
from repro.sparql.batch import UNBOUND

__all__ = [
    "CHUNK_ROWS",
    "CompiledFilter",
    "IDBinding",
    "Row",
    "Schema",
    "accepted",
    "as_rows",
    "batches",
    "binding_of",
    "bindings_of",
    "canonical",
    "canonical_key",
    "dedupe",
    "fresh_rows",
    "has_unbound",
    "hash_join",
    "join_rows",
    "left_join",
    "left_join_rows",
    "project",
    "project_rows",
    "relayout",
    "schema_of",
    "sorted_bindings",
    "split_filters",
    "unseen",
]

#: A federated solution as a dict: variable -> integer term ID.
IDBinding = Dict[Variable, int]

#: A federated solution as a row: term IDs in schema order.
Row = Tuple[int, ...]

#: A name-sorted tuple of variables naming a row's cells.
Schema = Tuple[Variable, ...]

#: Rows a local operator (join, left join) emits per chunk: bounds the
#: work a demand-capped consumer (LIMIT, ASK) pays for rows it drops.
CHUNK_ROWS = 1024


@dataclass(frozen=True)
class CompiledFilter:
    """A branch filter compiled to an ID-level predicate.

    Attributes:
        expr: the source FILTER expression (kept for explain traces).
        variables: the variables the expression mentions; the filter is
            decidable once all of them are bound (an unbound variable
            error-collapses the comparison to false at runtime).
        accept: the compiled predicate over ID bindings.
    """

    expr: FilterExpr
    variables: FrozenSet[Variable]
    accept: Callable[[IDBinding], bool]


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
# Schemas and row layout
# ---------------------------------------------------------------------------


_name = attrgetter("name")


def schema_of(variables: Iterable[Variable]) -> Schema:
    """The name-sorted schema over ``variables`` (duplicates collapse)."""
    return tuple(sorted(set(variables), key=_name))


def _picker(indices: Sequence[int]) -> Callable[[Row], Row]:
    """``row -> tuple(row[i] for i in indices)`` as one C call."""
    if len(indices) == 1:
        index = indices[0]
        return lambda row: (row[index],)
    if not indices:
        return lambda row: ()
    return itemgetter(*indices)


def relayout(
    schema: Schema, out_schema: Schema
) -> Callable[[List[Row]], List[Row]]:
    """``rows -> rows`` re-laid out from ``schema`` to ``out_schema``.

    Cells of variables ``schema`` lacks become ``UNBOUND``; variables
    ``out_schema`` lacks are dropped (projection).
    """
    if schema == out_schema:
        return lambda rows: rows
    missing = len(schema)
    pick = _picker(
        [
            schema.index(var) if var in schema else missing
            for var in out_schema
        ]
    )
    return lambda rows: [pick(row + (UNBOUND,)) for row in rows]


def has_unbound(rows: Iterable[Row]) -> bool:
    """True when some row leaves a cell of its schema unbound."""
    return any(UNBOUND in row for row in rows)


def as_rows(bindings: Sequence[IDBinding]) -> Tuple[Schema, List[Row]]:
    """Dict bindings as ``(schema, rows)`` over the variables they bind."""
    schema = schema_of(var for binding in bindings for var in binding)
    return schema, [
        tuple(binding.get(var, UNBOUND) for var in schema)
        for binding in bindings
    ]


def binding_of(schema: Schema, row: Row) -> IDBinding:
    """One row as a dict binding (unbound cells are simply absent)."""
    return {var: tid for var, tid in zip(schema, row) if tid != UNBOUND}


def bindings_of(schema: Schema, rows: Iterable[Row]) -> List[IDBinding]:
    """Rows as dict bindings."""
    return [binding_of(schema, row) for row in rows]


def canonical_key(schema: Schema) -> Callable[[Row], Tuple]:
    """Sort key reproducing :func:`canonical` order on rows.

    On fully bound rows the name-sorted schema makes plain tuple order
    the canonical order already; this key is for batches that mix
    domains, where padding with ``UNBOUND`` would sort a row *before*
    rows binding an earlier-named variable instead of after them.
    """
    names = tuple(var.name for var in schema)
    return lambda row: tuple(
        (name, tid) for name, tid in zip(names, row) if tid != UNBOUND
    )


def unseen(rows: Iterable[Row], seen: Set[Row]) -> List[Row]:
    """The rows not in ``seen`` (first occurrences, in order); ``seen``
    absorbs them."""
    out = [row for row in dict.fromkeys(rows) if row not in seen]
    seen.update(out)
    return out


def fresh_rows(
    rows: List[Row], origins: List, seen: Set[Row]
) -> Tuple[List[Row], List]:
    """:func:`unseen` for rows that carry an origin column."""
    unique = dict.fromkeys(rows)
    if len(unique) == len(rows) and seen.isdisjoint(unique):
        seen.update(unique)
        return rows, origins
    out_rows: List[Row] = []
    out_origins: List = []
    for row, origin in zip(rows, origins):
        if row not in seen:
            seen.add(row)
            out_rows.append(row)
            out_origins.append(origin)
    return out_rows, out_origins


def accepted(
    schema: Schema, rows: Sequence[Row], filters: Sequence[CompiledFilter]
) -> List[int]:
    """Indexes of the rows every compiled filter accepts.

    The predicates take dict bindings, so each row is presented as a
    dict over just the variables the filters mention.
    """
    mentioned = set().union(*(f.variables for f in filters))
    variables = tuple(var for var in schema if var in mentioned)
    cells = _picker([schema.index(var) for var in variables])
    if len(filters) == 1:
        accept = filters[0].accept
    else:
        accepts = [f.accept for f in filters]

        def accept(binding: IDBinding) -> bool:
            return all(a(binding) for a in accepts)

    keep: List[int] = []
    for i, row in enumerate(rows):
        picked = cells(row)
        if UNBOUND in picked:
            binding = binding_of(variables, picked)
        else:
            binding = dict(zip(variables, picked))
        if accept(binding):
            keep.append(i)
    return keep


def project_rows(
    schema: Schema, rows: List[Row], head: Sequence[Variable]
) -> Set[Tuple[Optional[int], ...]]:
    """Distinct rows projected onto ``head`` order; unbound cells (and
    head variables the schema lacks) become ``None``."""
    laid_out = relayout(schema, tuple(head))(rows)
    if has_unbound(laid_out):
        return {
            tuple(None if tid == UNBOUND else tid for tid in row)
            for row in laid_out
        }
    return set(laid_out)


# ---------------------------------------------------------------------------
# Domain-aware hash joins
# ---------------------------------------------------------------------------

_Group = Tuple[FrozenSet[Variable], Sequence[int]]


def _domain_groups(schema: Schema, rows: Sequence[Row]) -> List[_Group]:
    """Row indexes bucketed by bound-variable domain, first seen first."""
    if not has_unbound(rows):
        return [(frozenset(schema), range(len(rows)))]
    groups: Dict[Tuple[bool, ...], List[int]] = {}
    for i, row in enumerate(rows):
        mask = tuple(tid != UNBOUND for tid in row)
        groups.setdefault(mask, []).append(i)
    return [
        (frozenset(var for var, bound in zip(schema, mask) if bound), indexes)
        for mask, indexes in groups.items()
    ]


def _key_of(schema: Schema, shared: Sequence[Variable]):
    """Join-key extractor: the ``shared`` cells of a row (a bare ID for
    a single variable, so both sides of a pair must use the same
    ``shared``)."""
    return itemgetter(*(schema.index(var) for var in shared))


def _merger(
    out_schema: Schema,
    left_schema: Schema,
    left_domain: FrozenSet[Variable],
    right_schema: Schema,
) -> Callable[[Row], Row]:
    """``left_row + right_row -> merged row`` for one domain pair: each
    cell comes from the side that binds it (the left on shared
    variables, where both agree)."""
    width = len(left_schema)
    indices = []
    for var in out_schema:
        if var in left_domain or var not in right_schema:
            indices.append(left_schema.index(var))
        else:
            indices.append(width + right_schema.index(var))
    return _picker(indices)


def _probe_plan(
    out_schema: Schema,
    left_schema: Schema,
    left_domain: FrozenSet[Variable],
    right_schema: Schema,
    right_rows: Sequence[Row],
    right_groups: List[_Group],
):
    """Per right-side domain: ``(left key, buckets, merge)``.

    ``buckets`` maps a shared-variable key to the right row indexes
    carrying it, in right-side order; a domain pair sharing no variable
    has ``left key = None`` and every right index as its one bucket (a
    genuine cross product — disconnected patterns).
    """
    plan = []
    for right_domain, indexes in right_groups:
        both = left_domain & right_domain
        shared = [var for var in left_schema if var in both]
        merge = _merger(out_schema, left_schema, left_domain, right_schema)
        if not shared:
            plan.append((None, indexes, merge))
            continue
        right_key = _key_of(right_schema, shared)
        buckets: Dict = {}
        for j in indexes:
            buckets.setdefault(right_key(right_rows[j]), []).append(j)
        plan.append((_key_of(left_schema, shared), buckets, merge))
    return plan


_Joined = Tuple[List[Row], Sequence[int], Sequence[int]]


def join_rows(
    left_schema: Schema,
    left_rows: Sequence[Row],
    right_schema: Schema,
    right_rows: Sequence[Row],
) -> Iterator[_Joined]:
    """Hash-join two row batches on their per-pair shared variables.

    Yields ``(rows, left_indexes, right_indexes)`` chunks of about
    :data:`CHUNK_ROWS` merged rows under
    ``schema_of(left_schema + right_schema)``; the index columns let the
    operator layer merge request origins.  Under FILTER/UNION pushdown
    a side may mix binding *domains* (endpoints can return
    partially-bound rows), so each side is grouped by domain and every
    domain pair joins on its own shared-variable set, left domain
    major, then right domain, then left row, then right-side order.
    """
    if not left_rows or not right_rows:
        return
    if not left_schema:
        # Left rows bind nothing (a branch's seed row): each copy joins
        # to the right side as it stands.
        everything = range(len(right_rows))
        for i in range(len(left_rows)):
            yield list(right_rows), [i] * len(right_rows), everything
        return
    out_schema = schema_of(left_schema + right_schema)
    right_groups = _domain_groups(right_schema, right_rows)
    out: List[Row] = []
    left_sel: List[int] = []
    right_sel: List[int] = []
    for left_domain, left_indexes in _domain_groups(left_schema, left_rows):
        for left_key, table, merge in _probe_plan(
            out_schema,
            left_schema,
            left_domain,
            right_schema,
            right_rows,
            right_groups,
        ):
            for i in left_indexes:
                row = left_rows[i]
                if left_key is None:
                    matches = table
                else:
                    matches = table.get(left_key(row))
                    if matches is None:
                        continue
                out.extend([merge(row + right_rows[j]) for j in matches])
                left_sel.extend([i] * len(matches))
                right_sel.extend(matches)
                if len(out) >= CHUNK_ROWS:
                    yield out, left_sel, right_sel
                    out, left_sel, right_sel = [], [], []
    if out:
        yield out, left_sel, right_sel


def left_join_rows(
    left_schema: Schema,
    left_rows: Sequence[Row],
    right_schema: Schema,
    right_rows: Sequence[Row],
    condition: Optional[Callable[[IDBinding], bool]] = None,
) -> Iterator[_Joined]:
    """SPARQL left join as a hash join, in left-row order.

    A left row is replaced by every compatible merge that passes
    ``condition`` (evaluated on the merged row as a dict, per the
    SPARQL ``LeftJoin`` translation) and kept — padded to the output
    schema, right index ``-1`` — when no merge qualifies.  The optional
    side is bucketed per shared-variable key for every domain pair, as
    :func:`join_rows` does, and a left row visits its matches in
    optional-side order, so emitted rows (duplicates included — the
    caller dedupes keep-first) are exactly the nested loop's.  Chunked
    like :func:`join_rows`.
    """
    out_schema = schema_of(left_schema + right_schema)
    right_groups = _domain_groups(right_schema, right_rows)
    plans: List = [None] * len(left_rows)
    for left_domain, left_indexes in _domain_groups(left_schema, left_rows):
        plan = _probe_plan(
            out_schema,
            left_schema,
            left_domain,
            right_schema,
            right_rows,
            right_groups,
        )
        for i in left_indexes:
            plans[i] = plan
    unmatched = relayout(left_schema, out_schema)(left_rows)
    out: List[Row] = []
    left_sel: List[int] = []
    right_sel: List[int] = []
    for i, row in enumerate(left_rows):
        candidates: List[Tuple[int, Callable[[Row], Row]]] = []
        for left_key, table, merge in plans[i]:
            matches = table if left_key is None else table.get(left_key(row))
            if matches:
                candidates.extend([(j, merge) for j in matches])
        if len(plans[i]) > 1:
            candidates.sort(key=itemgetter(0))
        extended = False
        for j, merge in candidates:
            merged = merge(row + right_rows[j])
            if condition is not None and not condition(
                binding_of(out_schema, merged)
            ):
                continue
            out.append(merged)
            left_sel.append(i)
            right_sel.append(j)
            extended = True
        if not extended:
            out.append(unmatched[i])
            left_sel.append(i)
            right_sel.append(-1)
        if len(out) >= CHUNK_ROWS:
            yield out, left_sel, right_sel
            out, left_sel, right_sel = [], [], []
    if out:
        yield out, left_sel, right_sel


# ---------------------------------------------------------------------------
# The dict surface (tests, benchmark probes)
# ---------------------------------------------------------------------------


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


def sorted_bindings(bindings: List[IDBinding]) -> List[IDBinding]:
    """Deterministic batch order, so message accounting is reproducible."""
    return sorted(bindings, key=canonical)


def batches(bindings: List[IDBinding], size: int) -> List[List[IDBinding]]:
    """Split a binding list into consecutive batches of at most ``size``."""
    return [bindings[i : i + size] for i in range(0, len(bindings), size)]


def project(
    bindings: Sequence[IDBinding], head: Tuple[Variable, ...]
) -> Set[Tuple[Optional[int], ...]]:
    """Project bindings onto the head; unbound cells become ``None``."""
    return {tuple(b.get(v) for v in head) for b in bindings}


def hash_join(
    left: List[IDBinding], right: List[IDBinding]
) -> List[IDBinding]:
    """Join two binding lists on their per-pair shared variables."""
    left_schema, left_rows = as_rows(left)
    right_schema, right_rows = as_rows(right)
    out_schema = schema_of(left_schema + right_schema)
    return [
        binding
        for rows, _, _ in join_rows(
            left_schema, left_rows, right_schema, right_rows
        )
        for binding in bindings_of(out_schema, rows)
    ]


def left_join(
    left: List[IDBinding],
    right: List[IDBinding],
    condition: Optional[Callable[[IDBinding], bool]] = None,
) -> List[IDBinding]:
    """SPARQL left join over binding lists, deduplicated keep-first."""
    left_schema, left_rows = as_rows(left)
    right_schema, right_rows = as_rows(right)
    out_schema = schema_of(left_schema + right_schema)
    seen: Set[Row] = set()
    out: List[IDBinding] = []
    for rows, left_sel, _ in left_join_rows(
        left_schema, left_rows, right_schema, right_rows, condition
    ):
        rows, _ = fresh_rows(rows, left_sel, seen)
        out.extend(bindings_of(out_schema, rows))
    return out
