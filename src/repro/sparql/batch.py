"""Columnar batch execution engine for the SPARQL algebra.

This is the one local engine.  It executes the logical algebra over
:class:`Batch` values: parallel lists of integer term IDs, one column
per variable, moved between operators with C-level bulk operations
(``list.extend`` of whole index runs, sequence repetition,
``map(col.__getitem__, sel)`` gathers) so the python interpreter
touches *groups*, not rows.

A plan can be read two ways, through the same kernels:

* :meth:`BatchOp.execute` — the whole solution bag as one batch, for
  queries whose answer needs every solution (no modifier, ORDER BY);
* :meth:`BatchOp.chunks` — the same bag as a generator of non-empty
  batches, for consumers that may stop early (ASK, un-ordered
  LIMIT/OFFSET).  A BGP reads its first conjunct in geometrically
  growing pieces (:data:`CHUNK_ROWS`, :data:`CHUNK_GROWTH`) and pushes
  each through the rest of its conjuncts; joins materialise their
  build side once and stream the other; the consumer stops pulling
  when it has enough, so no demand is passed down — the pull model of
  ``federation/plan.py``'s chunked streams.

Execution strategies, chosen per BGP step:

* **scan** — the first triple pattern materialises as fresh columns
  from one ordering of the store: :meth:`repro.rdf.graph.Graph.run` for
  one free position, :meth:`~repro.rdf.graph.Graph.group` for two;
* **selection-vector probe** — every later conjunct hands its two key
  columns to :meth:`~repro.rdf.graph.Graph.probe`, which answers with
  the new column and a selection vector of source row indexes; the
  already-computed columns are gathered once at the end.

The store's run representation (a bare ID or a list) never shows here:
the three accessors return lists this module owns.

Joins across groups/unions are batch-at-a-time hash joins; FILTER,
ORDER BY and slicing are vectorized over columns.  Internally batches
carry *bag* semantics (duplicates survive until the result boundary,
which deduplicates and sorts one packed rank int per row,
:func:`pack_ranks`), and unbound cells hold the :data:`UNBOUND`
sentinel, chosen far below the FILTER compiler's negative sentinel IDs
so the two can never collide.

This module is also the only place that knows how solutions are
joined, left-joined and filtered.  The kernels answer with *selection
vectors* — :func:`join_pairs` and :func:`left_join_pairs` name the
``(left row, right row)`` index pairs of the result, in one stated
order, and :func:`gather_pairs` gathers the merged columns from them
— so the federated operators of :mod:`repro.federation.plan`, whose
chunks are a :class:`Batch` plus a parallel origin list, run the same
joins and merge their origins from the same pairs; every FILTER, local
or pushed to an endpoint, is one :func:`compile_mask` mask.

The conjunct order comes from :func:`repro.sparql.plan.plan_bgp`, and
the term-level evaluator of :mod:`repro.sparql.algebra` is the
equivalence oracle: every batch plan, read either way, must produce
exactly its solution set (asserted by the randomized fuzz suite).
"""

from __future__ import annotations

import heapq
import operator
from itertools import compress, islice, repeat
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
    Union,
)

from repro.errors import SparqlEvaluationError
from repro.gpq.evaluation import extend_id_bindings
from repro.obs.analyze import format_actuals
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Variable
from repro.sparql.algebra import AlgebraNode, Bgp, Filter, Join, LeftJoin
from repro.sparql.algebra import Union as AlgebraUnion
from repro.sparql.ast import (
    BooleanExpr,
    Comparison,
    FilterExpr,
    OrderCondition,
)
from repro.sparql.plan import _BOUND_SELECTIVITY, plan_bgp

__all__ = [
    "UNBOUND",
    "Batch",
    "BatchOp",
    "BatchBgp",
    "BatchJoin",
    "BatchUnion",
    "BatchLeftJoin",
    "BatchFilter",
    "build_batch_plan",
    "compile_mask",
    "execute_batch",
    "extend_bindings_batch",
    "gather_pairs",
    "join_pairs",
    "left_join_pairs",
    "passing_rows",
    "select_id_rows_batch",
    "column_rows",
    "pack_ids",
    "pack_ranks",
    "unpack_ranks",
    "top_k",
    "batch_slice",
    "batch_top_k",
]

#: Sentinel ID for an unbound cell.  The FILTER compiler hands
#: uninterned constants small negative sentinels (-1, -2, ...), and real
#: dictionary IDs are non-negative, so a huge negative constant can
#: never collide with either.
UNBOUND = -(2**62)

#: Triples a demand-capped BGP read takes from its first conjunct for
#: the first chunk, and the factor every later chunk grows by.  A small
#: first chunk keeps ASK and ``LIMIT 10`` to a handful of rows; doubling
#: means a read abandoned part-way scanned under twice what it needed,
#: and one drained to the end pays a logarithmic number of per-chunk
#: overheads.
CHUNK_ROWS = 16
CHUNK_GROWTH = 2

#: A compiled conjunct position: an integer ID or a still-free Variable.
_Slot = Union[int, Variable]

_IDRow = Tuple[Optional[int], ...]


class Batch:
    """A batch of solutions as parallel integer columns.

    ``schema`` names one :class:`Variable` per column; ``columns`` holds
    the parallel lists of dictionary IDs (``UNBOUND`` marks an unbound
    cell); ``n`` is the row count, kept explicitly so zero-column
    batches (an empty group pattern binds no variables but has one row)
    stay representable.
    """

    __slots__ = ("schema", "columns", "n")

    def __init__(
        self,
        schema: Tuple[Variable, ...],
        columns: List[List[int]],
        n: Optional[int] = None,
    ) -> None:
        self.schema = schema
        self.columns = columns
        self.n = n if n is not None else (len(columns[0]) if columns else 0)

    @classmethod
    def empty(cls, schema: Tuple[Variable, ...] = ()) -> "Batch":
        return cls(schema, [[] for _ in schema], 0)

    @classmethod
    def singleton(cls) -> "Batch":
        """One row binding nothing — the empty group pattern's result."""
        return cls((), [], 1)

    def col(self, var: Variable) -> Optional[List[int]]:
        """The column for ``var``, or None when it is not in the schema."""
        try:
            return self.columns[self.schema.index(var)]
        except ValueError:
            return None

    def rows(self) -> Iterator[Tuple[int, ...]]:
        """Iterate rows as ID tuples in schema order (bag, with dups)."""
        return iter(column_rows(self.columns, self.n))

    def gather(self, sel: Sequence[int]) -> "Batch":
        """A new batch with the rows named by the selection vector."""
        return Batch(
            self.schema,
            [list(map(c.__getitem__, sel)) for c in self.columns],
            len(sel),
        )

    def slice(self, start: int, stop: Optional[int] = None) -> "Batch":
        """A new batch with rows ``start`` to ``stop`` (the end if None)."""
        end = self.n if stop is None else min(stop, self.n)
        return Batch(
            self.schema,
            [c[start:end] for c in self.columns],
            max(0, end - start),
        )

    def project(
        self, variables: Sequence[Variable]
    ) -> List[Sequence[Optional[int]]]:
        """The result-boundary columns, one per entry of ``variables``.

        ``UNBOUND`` cells become ``None`` and a variable outside the
        schema is an all-``None`` column; fully bound columns are
        returned as they are, not copied.
        """
        cols: List[Sequence[Optional[int]]] = []
        for var in variables:
            col = self.col(var)
            if col is None:
                cols.append([None] * self.n)
            elif UNBOUND in col:
                cols.append([None if c == UNBOUND else c for c in col])
            else:
                cols.append(col)
        return cols

    def id_rows(self, variables: Sequence[Variable]) -> Set[_IDRow]:
        """Distinct projected rows as ID tuples (``None`` = unbound).

        Bag-semantics columns collapse to the distinct row set.
        """
        return set(column_rows(self.project(variables), self.n))


def column_rows(columns: Sequence[Sequence], n: int) -> Sequence[Tuple]:
    """The ``n`` rows of parallel columns (``n`` empty rows for none)."""
    return zip(*columns) if columns else [()] * n


# ---------------------------------------------------------------------------
# Scans and BGP extension steps
# ---------------------------------------------------------------------------


def _repeat_constraints(
    free: List[Tuple[int, Variable]],
) -> List[Tuple[int, int]]:
    """Position pairs a repeated free variable forces to be equal."""
    first: Dict[Variable, int] = {}
    out: List[Tuple[int, int]] = []
    for pos, var in free:
        if var in first:
            out.append((first[var], pos))
        else:
            first[var] = pos
    return out


def _split_slots(
    slots: Tuple[_Slot, _Slot, _Slot],
) -> Tuple[List[Optional[int]], List[Tuple[int, Variable]]]:
    """A conjunct as ``triples_ids`` arguments plus its free positions."""
    args: List[Optional[int]] = [None, None, None]
    free: List[Tuple[int, Variable]] = []
    for pos, slot in enumerate(slots):
        if isinstance(slot, int):
            args[pos] = slot
        else:
            free.append((pos, slot))
    return args, free


def _scan_batch(graph: Graph, slots: Tuple[_Slot, _Slot, _Slot]) -> Batch:
    """Materialise one triple pattern as a batch of fresh columns."""
    args, free = _split_slots(slots)
    s, p, o = args
    if not free:
        n = 1 if graph.contains_ids(s, p, o) else 0  # type: ignore[arg-type]
        return Batch((), [], n)
    if _repeat_constraints(free):  # e.g. ``(?x, p, ?x)``
        return _triples_batch(graph.triples_ids(s, p, o), free)
    schema = tuple(var for _, var in free)
    if len(free) == 1:
        pos = free[0][0]
        if pos == 2:  # (s, p, ?o)
            return Batch(schema, [graph.run("spo", s, p)])
        if pos == 0:  # (?s, p, o)
            return Batch(schema, [graph.run("pos", p, o)])
        return Batch(schema, [graph.run("osp", o, s)])  # (s, ?p, o)
    if len(free) == 2:
        if s is not None:  # (s, ?p, ?o)
            return Batch(schema, list(graph.group("spo", s)))
        if p is not None:  # (?s, p, ?o): grouped by object
            objects, subjects = graph.group("pos", p)
            return Batch(schema, [subjects, objects])
        return Batch(schema, list(graph.group("osp", o)))  # (?s, ?p, o)
    # Fully unbound: unzip the whole triple set in one C pass.
    return _triples_batch(graph.id_triples(), free)


def _triples_batch(
    triples: Iterable[Tuple[int, int, int]], free: List[Tuple[int, Variable]]
) -> Batch:
    """The ``free`` positions of some matching ID triples, as columns.

    A variable that repeats (``(?x, p, ?x)``) keeps the triples whose
    positions agree and gets one column, from its first position.
    """
    constraints = _repeat_constraints(free)
    if constraints:
        kept = [
            ids
            for ids in triples
            if all(ids[i] == ids[j] for i, j in constraints)
        ]
    else:
        kept = list(triples)
    first: Dict[Variable, int] = {}
    for pos, var in free:
        first.setdefault(var, pos)
    if not kept:
        return Batch.empty(tuple(first))
    by_position = list(zip(*kept))
    return Batch(
        tuple(first),
        [list(by_position[pos]) for pos in first.values()],
        len(kept),
    )


def _extend_batch(
    graph: Graph, batch: Batch, slots: Tuple[_Slot, _Slot, _Slot]
) -> Tuple[Batch, List[int]]:
    """Join a batch with one conjunct via per-row index probes.

    The probe loop only builds the new column(s) plus a selection
    vector of source row indexes; the existing columns are gathered
    once afterwards, and the selection vector is returned beside the
    extended batch.  Output is source-row major, a row's matches in
    ``triples_ids`` order.  Every column the conjunct mentions must be
    fully bound (within a BGP all of them are).
    """
    schema = batch.schema
    n = batch.n
    sources: List[Union[int, List[int], None]] = [None, None, None]
    free: List[Tuple[int, Variable]] = []
    for pos, slot in enumerate(slots):
        if isinstance(slot, int):
            sources[pos] = slot
        else:
            col = batch.col(slot)
            if col is not None:
                sources[pos] = col
            else:
                free.append((pos, slot))
    if len(free) > 1 or _repeat_constraints(free):
        return _extend_generic(graph, batch, sources, free)

    def feed(pos: int) -> Sequence[int]:
        src = sources[pos]
        if isinstance(src, list):
            return src
        return [src] * n  # type: ignore[list-item]

    if not free:
        contains = graph.contains_ids
        sel = [
            i
            for i, key in enumerate(zip(feed(0), feed(1), feed(2)))
            if contains(*key)
        ]
        return batch.gather(sel), sel
    pos, var = free[0]
    if pos == 2:
        sel, new_col = graph.probe("spo", feed(0), feed(1))
    elif pos == 0:
        sel, new_col = graph.probe("pos", feed(1), feed(2))
    else:
        sel, new_col = graph.probe("osp", feed(2), feed(0))
    out = batch.gather(sel)
    return Batch(schema + (var,), out.columns + [new_col], len(sel)), sel


def _extend_generic(
    graph: Graph,
    batch: Batch,
    sources: List[Union[int, List[int], None]],
    free: List[Tuple[int, Variable]],
) -> Tuple[Batch, List[int]]:
    """Fallback extension: several or repeated free positions per row."""
    constraints = _repeat_constraints(free)
    emit: List[Tuple[int, Variable]] = []
    seen: Set[Variable] = set()
    for pos, var in free:
        if var not in seen:
            seen.add(var)
            emit.append((pos, var))
    sel: List[int] = []
    new_cols: List[List[int]] = [[] for _ in emit]
    triples_ids = graph.triples_ids
    for i in range(batch.n):
        args = [
            src[i] if isinstance(src, list) else src for src in sources
        ]
        for ids in triples_ids(args[0], args[1], args[2]):
            if constraints and not all(
                ids[a] == ids[b] for a, b in constraints
            ):
                continue
            for k, (pos, _) in enumerate(emit):
                new_cols[k].append(ids[pos])
            sel.append(i)
    out = batch.gather(sel)
    extended = Batch(
        batch.schema + tuple(var for _, var in emit),
        out.columns + new_cols,
        len(sel),
    )
    return extended, sel


def extend_bindings_batch(
    graph: Graph, batch: Batch, slots: Tuple[_Slot, _Slot, _Slot]
) -> Tuple[Batch, List[int]]:
    """:func:`_extend_batch` for the federated operators' batches.

    Returns the extended batch (``batch.schema`` plus the conjunct's
    new variables) *and* the source-row index of each output row (for
    request-origin tracking).

    Order fidelity is a hard contract: output order is exactly a
    per-row ``extend_id_bindings`` loop's — source-row-major, matches
    in ``triples_ids`` index order — because federated consumers batch,
    slice and dedupe on stream order, and message counts are test-gated
    on it.  A conjunct variable whose column holds ``UNBOUND`` cells is
    bound on some rows and free on others (mixed-UNION pulls); those
    inputs take the per-row loop rather than approximate.
    """
    schema = batch.schema
    mentioned = [
        batch.col(slot)
        for slot in slots
        if isinstance(slot, Variable) and slot in schema
    ]
    if any(UNBOUND in col for col in mentioned):
        out_schema = schema + tuple(
            dict.fromkeys(
                slot
                for slot in slots
                if isinstance(slot, Variable) and slot not in schema
            )
        )
        out: List[Tuple[int, ...]] = []
        sel: List[int] = []
        for i, row in enumerate(batch.rows()):
            partial = {
                var: tid for var, tid in zip(schema, row) if tid != UNBOUND
            }
            for extended in extend_id_bindings(graph, slots, partial):
                out.append(
                    tuple(extended.get(var, UNBOUND) for var in out_schema)
                )
                sel.append(i)
        if not out:
            return Batch.empty(out_schema), sel
        return Batch(out_schema, [list(c) for c in zip(*out)], len(out)), sel
    if not schema and batch.n == 1:
        # The single empty row: the conjunct is an unbound scan, which
        # materialises straight from index runs in ``triples_ids`` order.
        scanned = _scan_batch(graph, slots)
        return scanned, [0] * scanned.n
    return _extend_batch(graph, batch, slots)


# ---------------------------------------------------------------------------
# FILTER compilation: column masks
# ---------------------------------------------------------------------------

_Mask = List[bool]


def compile_mask(
    graph: Graph, expr: FilterExpr, sentinels: Dict[Term, int]
) -> Callable[[Batch], _Mask]:
    """Compile a FILTER expression into a vectorized column mask.

    The one FILTER compiler: local ``BatchFilter``/``BatchLeftJoin``
    nodes, the federated ``FilterNode``, filters pushed to an endpoint
    and an OPTIONAL block's condition all evaluate the mask it returns.
    ``graph`` only supplies the term dictionary: ground terms resolve
    to their ID once, at compile time, and a ground term the dictionary
    has never seen — it cannot equal any data term — gets a fresh
    *negative* sentinel from ``sentinels`` (shared across the filters
    of one query, so a constant keeps one sentinel).  Ground-vs-ground
    comparisons fold on the terms themselves.  An unbound cell, or a
    variable outside the batch's schema, fails every comparison (SPARQL
    error semantics collapse to false in this fragment).
    """
    if isinstance(expr, BooleanExpr):
        left = compile_mask(graph, expr.left, sentinels)
        right = compile_mask(graph, expr.right, sentinels)
        if expr.op == "&&":
            return lambda b: [x and y for x, y in zip(left(b), right(b))]
        return lambda b: [x or y for x, y in zip(left(b), right(b))]
    if not isinstance(expr, Comparison):  # pragma: no cover
        raise SparqlEvaluationError(f"unknown filter expression {expr!r}")
    equals = expr.op == "="
    if not isinstance(expr.left, Variable) and not isinstance(
        expr.right, Variable
    ):
        verdict = (expr.left == expr.right) is equals
        return lambda b: [verdict] * b.n

    def resolve_ground(term: Term) -> int:
        tid = graph.term_id(term)
        if tid is None:
            tid = sentinels.setdefault(term, -1 - len(sentinels))
        return tid

    if isinstance(expr.left, Variable) and isinstance(expr.right, Variable):
        lvar, rvar = expr.left, expr.right

        def var_mask(batch: Batch) -> _Mask:
            ca = batch.col(lvar)
            cb = batch.col(rvar)
            if ca is None or cb is None:
                return [False] * batch.n
            if equals:
                return [x == y and x != UNBOUND for x, y in zip(ca, cb)]
            return [
                x != y and x != UNBOUND and y != UNBOUND
                for x, y in zip(ca, cb)
            ]

        return var_mask
    if isinstance(expr.left, Variable):
        var, ground_id = expr.left, resolve_ground(expr.right)
    else:
        var, ground_id = expr.right, resolve_ground(expr.left)

    def ground_mask(batch: Batch) -> _Mask:
        col = batch.col(var)
        if col is None:
            return [False] * batch.n
        if equals:
            return [x == ground_id for x in col]
        return [x != ground_id and x != UNBOUND for x in col]

    return ground_mask


def passing_rows(
    batch: Batch, masks: Sequence[Callable[[Batch], _Mask]]
) -> List[int]:
    """Selection vector of the rows every compiled mask accepts."""
    verdicts = [mask(batch) for mask in masks]
    flags = verdicts[0] if len(verdicts) == 1 else map(all, zip(*verdicts))
    return [i for i, ok in enumerate(flags) if ok]


# ---------------------------------------------------------------------------
# Batch operators
# ---------------------------------------------------------------------------


class BatchOp:
    """Base class: an operator producing a bag of solutions in batches.

    ``execute`` materialises the full result as one :class:`Batch`,
    which is the point: all per-row work collapses into C-level bulk
    list operations.  ``chunks`` produces the same bag piecewise, on
    demand.  ``cardinality`` is the planner's rough output-size
    estimate, which orders join operands.  ``actuals`` is the EXPLAIN
    ANALYZE counter dict (attached per node by
    :func:`repro.obs.analyze.attach_actuals`); the class-level ``None``
    means analysis is off, costing one attribute check per batch
    produced.
    """

    variables: FrozenSet[Variable] = frozenset()
    cardinality: float = 1.0
    actuals: Optional[Dict[str, int]] = None

    def children(self) -> Tuple["BatchOp", ...]:
        return ()

    def _execute(self) -> Batch:
        raise NotImplementedError

    def execute(self) -> Batch:
        batch = self._execute()
        self._count(1, batch.n)
        return batch

    def _chunks(self) -> Iterator[Batch]:
        yield self._execute()

    def chunks(self) -> Iterator[Batch]:
        """The bag of ``execute`` as non-empty batches, made on demand.

        Nothing runs before the first ``next`` and nothing after the
        caller stops pulling, so an abandoned generator is the early
        termination.  Chunk boundaries carry no meaning: consumers see
        one stream of rows in a deterministic order.
        """
        self._count(0, 0)
        for batch in self._chunks():
            if batch.n:
                self._count(1, batch.n)
                yield batch

    def _count(self, batches: int, rows: int) -> None:
        actuals = self.actuals
        if actuals is not None:
            actuals["batches"] = actuals.get("batches", 0) + batches
            actuals["rows_out"] = actuals.get("rows_out", 0) + rows

    def _annotate(self, line: str) -> str:
        """Append the actuals note to one explain line (analyze mode)."""
        return f"{line}{format_actuals(self.actuals)}"

    def explain(self, depth: int = 0) -> List[str]:
        raise NotImplementedError


class BatchEmpty(BatchOp):
    """A pattern that provably cannot match."""

    def __init__(self, variables: FrozenSet[Variable]) -> None:
        self.variables = variables
        self.cardinality = 0.0

    def _execute(self) -> Batch:
        return Batch.empty(tuple(sorted(self.variables, key=str)))

    def explain(self, depth: int = 0) -> List[str]:
        return [self._annotate(f"{'  ' * depth}BatchEmpty")]


class BatchSingleton(BatchOp):
    """The empty group pattern: one row, no columns."""

    def _execute(self) -> Batch:
        return Batch.singleton()

    def explain(self, depth: int = 0) -> List[str]:
        return [self._annotate(f"{'  ' * depth}BatchSingleton")]


class BatchBgp(BatchOp):
    """Columnar BGP execution over the cost-based conjunct order."""

    def __init__(self, graph: Graph, patterns: Sequence) -> None:
        self.graph = graph
        out: Set[Variable] = set()
        for tp in patterns:
            out.update(tp.variables())
        self.variables = frozenset(out)
        self.ordered, self.compiled, self.cardinality = plan_bgp(
            graph, patterns
        )

    def _execute(self) -> Batch:
        compiled = self.compiled
        if compiled is None:
            return Batch.empty(tuple(sorted(self.variables, key=str)))
        graph = self.graph
        batch: Optional[Batch] = None
        for slots in compiled:
            if batch is None:
                batch = _scan_batch(graph, slots)
            else:
                batch, _ = _extend_batch(graph, batch, slots)
            if batch.n == 0:
                break
        if batch is None:  # pragma: no cover - empty BGPs use Singleton
            return Batch.singleton()
        return batch

    def _chunks(self) -> Iterator[Batch]:
        compiled = self.compiled
        if compiled is None:
            return
        graph = self.graph
        args, free = _split_slots(compiled[0])
        matches = graph.triples_ids(*args)
        size = CHUNK_ROWS
        while True:
            triples = list(islice(matches, size))
            if not triples:
                return
            batch = _triples_batch(triples, free)
            for slots in compiled[1:]:
                if batch.n == 0:
                    break
                batch, _ = _extend_batch(graph, batch, slots)
            yield batch
            size *= CHUNK_GROWTH

    def explain(self, depth: int = 0) -> List[str]:
        pad = "  " * depth
        if self.compiled is None:
            return [self._annotate(f"{pad}BatchBgp [unsatisfiable]")]
        lines = [self._annotate(f"{pad}BatchBgp est={self.cardinality:.0f}")]
        for tp in self.ordered:
            lines.append(f"{pad}  . {tp.n3()}")
        return lines


_Table = Dict[object, List[int]]

#: Row indexes of one side grouped by binding domain (see
#: :func:`_domains`).
_Groups = List[Tuple[FrozenSet[Variable], Sequence[int]]]

#: What the join kernels derive from a right side, kept by the operator
#: that joins many left chunks against it: the side's domain groups
#: under ``None`` and one hash table per ``(group index, key
#: variables)``.
_Tables = Dict[object, object]


def _domains(batch: Batch) -> _Groups:
    """Row indexes grouped by the variables the rows leave unbound.

    Groups come first seen first, each with its rows in order; a batch
    without an ``UNBOUND`` cell is one group holding ``range(n)``.
    """
    partial = [
        (var, col)
        for var, col in zip(batch.schema, batch.columns)
        if UNBOUND in col
    ]
    if not partial:
        return [(frozenset(), range(batch.n))]
    flags = [[cell == UNBOUND for cell in col] for _, col in partial]
    groups: Dict[Tuple[bool, ...], List[int]] = {}
    for i, mask in enumerate(zip(*flags)):
        groups.setdefault(mask, []).append(i)
    variables = [var for var, _ in partial]
    return [
        (frozenset(compress(variables, mask)), rows)
        for mask, rows in groups.items()
    ]


def _keys(cols: Sequence[List[int]], rows: Sequence[int]) -> Iterable:
    """One join key per row of ``rows``: its cells in ``cols`` (a bare
    ID for a single column, so both sides must key on the same ``cols``
    count).  A ``range`` is :func:`_domains`' whole side."""
    if not isinstance(rows, range):
        cols = [list(map(col.__getitem__, rows)) for col in cols]
    return cols[0] if len(cols) == 1 else zip(*cols)


def _hash_rows(cols: Sequence[List[int]], rows: Sequence[int]) -> _Table:
    """The build half of a hash join: ``rows`` bucketed by their cells
    in ``cols``, every bucket in row order."""
    buckets: _Table = {}
    setdefault = buckets.setdefault
    for j, key in zip(rows, _keys(cols, rows)):
        setdefault(key, []).append(j)
    return buckets


def _probe_rows(
    table: _Table,
    cols: Sequence[List[int]],
    rows: Sequence[int],
    sel_l: List[int],
    sel_r: List[int],
) -> None:
    """The probe half: append the matches of ``rows`` to the selection
    vectors, probe-row major, table rows in bucket order."""
    get = table.get
    for i, key in zip(rows, _keys(cols, rows)):
        js = get(key)
        if js:
            sel_r.extend(js)
            sel_l.extend([i] * len(js))


def join_pairs(
    left: Batch, right: Batch, tables: _Tables
) -> Tuple[List[int], List[int], bool]:
    """The join of two batches as ``(left row, right row)`` index pairs.

    Returns two parallel selection vectors and whether they are in
    left-row order.  ``right`` is always the build side: ``tables``
    (start it as ``{}``) remembers what was derived from it, so an
    operator that joins many left chunks against one right side hashes
    it once.

    **Order contract.**  On fully bound sides: left-row major, a left
    row's matches in right-side order.  A side may mix binding
    *domains* (``UNBOUND`` cells: UNION branches with unequal domains,
    unmatched OPTIONAL rows, partially bound endpoint rows); an unbound
    cell is compatible with anything, which no bucket can express, so
    each side is grouped by domain and every domain pair is hashed on
    the variables both domains bind (none: a genuine cross product).
    Pairs then come left domain major, then right domain (both first
    seen first), then left row, then right-side order.  A left side
    binding nothing at all (a branch's seed row) takes the right side
    as it stands, row by row.
    """
    sel_l: List[int] = []
    sel_r: List[int] = []
    if not left.schema:
        for i in range(left.n):
            sel_l.extend([i] * right.n)
            sel_r.extend(range(right.n))
        return sel_l, sel_r, True
    if None not in tables:
        tables[None] = _domains(right)
    right_groups: _Groups = tables[None]  # type: ignore[assignment]
    left_groups = _domains(left)
    common = [var for var in left.schema if var in right.schema]
    for left_unbound, left_rows in left_groups:
        for g, (right_unbound, right_rows) in enumerate(right_groups):
            shared = tuple(
                var
                for var in common
                if var not in left_unbound and var not in right_unbound
            )
            if not shared:
                for i in left_rows:
                    sel_l.extend([i] * len(right_rows))
                    sel_r.extend(right_rows)
                continue
            table = tables.get((g, shared))
            if table is None:
                table = tables[g, shared] = _hash_rows(
                    [right.col(var) for var in shared], right_rows
                )
            _probe_rows(
                table,  # type: ignore[arg-type]
                [left.col(var) for var in shared],
                left_rows,
                sel_l,
                sel_r,
            )
    return sel_l, sel_r, len(left_groups) == 1 == len(right_groups)


def left_join_pairs(
    left: Batch,
    right: Batch,
    tables: _Tables,
    condition: Optional[Callable[[Batch], _Mask]] = None,
) -> Tuple[List[int], List[int]]:
    """SPARQL ``LeftJoin`` as index pairs, in left-row order.

    A left row pairs with every compatible right row whose merged
    solution passes ``condition`` (a :func:`compile_mask` mask over the
    merged rows, per the SPARQL translation), in right-side order, and
    with ``-1`` when none does — exactly the nested loop's pairs in the
    nested loop's order, whatever domains the sides mix.
    """
    sel_l, sel_r, row_major = join_pairs(left, right, tables)
    if condition is not None and sel_l:
        verdicts = condition(gather_pairs(left, right, sel_l, sel_r))
        sel_l = [i for i, ok in zip(sel_l, verdicts) if ok]
        sel_r = [j for j, ok in zip(sel_r, verdicts) if ok]
    unmatched = sorted(set(range(left.n)).difference(sel_l))
    if not unmatched and row_major:
        return sel_l, sel_r
    sel_l += unmatched
    sel_r += [-1] * len(unmatched)
    # Two stable sorts on int keys put the pairs in (left row, right
    # row) order; pairs that came in left-row order only need the pads
    # merged in.
    order: Sequence[int] = range(len(sel_l))
    if not row_major:
        order = sorted(order, key=sel_r.__getitem__)
    order = sorted(order, key=sel_l.__getitem__)
    return (
        list(map(sel_l.__getitem__, order)),
        list(map(sel_r.__getitem__, order)),
    )


def gather_pairs(
    left: Batch,
    right: Batch,
    sel_l: Sequence[int],
    sel_r: Sequence[int],
    schema: Optional[Tuple[Variable, ...]] = None,
) -> Batch:
    """Gather the merged rows of index pairs into one batch.

    Row ``k`` merges ``left`` row ``sel_l[k]`` with ``right`` row
    ``sel_r[k]``: each cell comes from the side that binds it (the left
    on a variable both bind, where they agree); a right index of ``-1``
    (an unmatched left-join row) contributes nothing.  Columns are laid
    out under ``schema`` — by default the left columns, then the
    right-only ones.
    """
    if schema is None:
        schema = left.schema + tuple(
            var for var in right.schema if var not in left.schema
        )
    columns: List[List[int]] = []
    for var in schema:
        lcol, rcol = left.col(var), right.col(var)
        if rcol is None or (lcol is not None and UNBOUND not in lcol):
            columns.append(list(map(lcol.__getitem__, sel_l)))
            continue
        rcol = rcol + [UNBOUND]  # what index -1, a pad, reads
        if lcol is None:
            columns.append(list(map(rcol.__getitem__, sel_r)))
        else:
            columns.append(
                [
                    rcol[j] if lcol[i] == UNBOUND else lcol[i]
                    for i, j in zip(sel_l, sel_r)
                ]
            )
    return Batch(schema, columns, len(sel_l))


class BatchJoin(BatchOp):
    """Join two batch sub-plans (cross-group/UNION joins)."""

    def __init__(self, left: BatchOp, right: BatchOp) -> None:
        self.left = left
        self.right = right
        self.variables = left.variables | right.variables
        shared = left.variables & right.variables
        denominator = max(1.0, _BOUND_SELECTIVITY ** len(shared))
        self.cardinality = min(
            left.cardinality * right.cardinality / denominator, 1e18
        )

    def children(self) -> Tuple[BatchOp, ...]:
        return (self.left, self.right)

    def _execute(self) -> Batch:
        left = self.left.execute()
        right = self.right.execute()
        if self.actuals is not None:
            self.actuals["build_rows"] = right.n
            self.actuals["probe_rows"] = left.n
        sel_l, sel_r, _ = join_pairs(left, right, {})
        return gather_pairs(left, right, sel_l, sel_r)

    def _chunks(self) -> Iterator[Batch]:
        right = self.right.execute()
        if self.actuals is not None:
            self.actuals["build_rows"] = right.n
        if right.n == 0:
            return
        tables: _Tables = {}
        for chunk in self.left.chunks():
            sel_l, sel_r, _ = join_pairs(chunk, right, tables)
            yield gather_pairs(chunk, right, sel_l, sel_r)

    def explain(self, depth: int = 0) -> List[str]:
        lines = [
            self._annotate(
                f"{'  ' * depth}BatchJoin est={self.cardinality:.0f}"
            )
        ]
        lines.extend(self.left.explain(depth + 1))
        lines.extend(self.right.explain(depth + 1))
        return lines


class BatchUnion(BatchOp):
    """Concatenate branch batches over the union schema.

    Branches missing a variable contribute ``UNBOUND`` columns.  No
    cross-branch deduplication happens here — batches carry bags and
    the result boundary deduplicates.
    """

    def __init__(self, branches: Sequence[BatchOp]) -> None:
        self.branches = list(branches)
        out: Set[Variable] = set()
        for branch in self.branches:
            out.update(branch.variables)
        self.variables = frozenset(out)
        self.cardinality = sum(b.cardinality for b in self.branches)

    def children(self) -> Tuple[BatchOp, ...]:
        return tuple(self.branches)

    def _execute(self) -> Batch:
        batches = [branch.execute() for branch in self.branches]
        schema: List[Variable] = []
        seen: Set[Variable] = set()
        for batch in batches:
            for var in batch.schema:
                if var not in seen:
                    seen.add(var)
                    schema.append(var)
        cols: List[List[int]] = [[] for _ in schema]
        total = 0
        for batch in batches:
            total += batch.n
            for k, var in enumerate(schema):
                col = batch.col(var)
                if col is None:
                    cols[k].extend([UNBOUND] * batch.n)
                else:
                    cols[k].extend(col)
        return Batch(tuple(schema), cols, total)

    def _chunks(self) -> Iterator[Batch]:
        # A chunk keeps its branch's schema: to every consumer a
        # variable outside the schema reads as an all-UNBOUND column.
        for branch in self.branches:
            yield from branch.chunks()

    def explain(self, depth: int = 0) -> List[str]:
        lines = [
            self._annotate(
                f"{'  ' * depth}BatchUnion est={self.cardinality:.0f}"
            )
        ]
        for branch in self.branches:
            lines.extend(branch.explain(depth + 1))
        return lines


class BatchLeftJoin(BatchOp):
    """``OPTIONAL``: left rows extend with compatible right rows.

    Each left row is extended by every compatible right row whose
    merged solution passes the embedded condition, and passes through
    padded with ``UNBOUND`` when none does — in left-row order
    (:func:`left_join_pairs`).
    """

    def __init__(
        self,
        left: BatchOp,
        right: BatchOp,
        mask: Optional[Callable[[Batch], _Mask]] = None,
    ) -> None:
        self.left = left
        self.right = right
        self.mask = mask
        self.variables = left.variables | right.variables
        denominator = max(
            1.0,
            _BOUND_SELECTIVITY ** len(left.variables & right.variables),
        )
        self.cardinality = max(
            left.cardinality,
            min(left.cardinality * right.cardinality / denominator, 1e18),
        )

    def children(self) -> Tuple[BatchOp, ...]:
        return (self.left, self.right)

    def _execute(self) -> Batch:
        left = self.left.execute()
        return self._extend(left, self._optional_side(), {})

    def _chunks(self) -> Iterator[Batch]:
        right = self._optional_side()
        tables: _Tables = {}
        for chunk in self.left.chunks():
            yield self._extend(chunk, right, tables)

    def _optional_side(self) -> Batch:
        right = self.right.execute()
        if self.actuals is not None:
            self.actuals["build_rows"] = right.n
        return right

    def _extend(self, left: Batch, right: Batch, tables: _Tables) -> Batch:
        """Left-join one batch of left rows with the whole right side."""
        sel_l, sel_r = left_join_pairs(left, right, tables, self.mask)
        return gather_pairs(left, right, sel_l, sel_r)

    def explain(self, depth: int = 0) -> List[str]:
        cond = " cond" if self.mask is not None else ""
        lines = [
            self._annotate(
                f"{'  ' * depth}BatchLeftJoin{cond} "
                f"est={self.cardinality:.0f}"
            )
        ]
        lines.extend(self.left.explain(depth + 1))
        lines.extend(self.right.explain(depth + 1))
        return lines


class BatchFilter(BatchOp):
    """Vectorized FILTER: mask the child batch, gather survivors."""

    def __init__(
        self, child: BatchOp, mask: Callable[[Batch], _Mask]
    ) -> None:
        self.child = child
        self.mask = mask
        self.variables = child.variables
        self.cardinality = child.cardinality / 2.0

    def children(self) -> Tuple[BatchOp, ...]:
        return (self.child,)

    def _execute(self) -> Batch:
        return self._filter(self.child.execute())

    def _chunks(self) -> Iterator[Batch]:
        return map(self._filter, self.child.chunks())

    def _filter(self, batch: Batch) -> Batch:
        if batch.n == 0:
            return batch
        sel = passing_rows(batch, (self.mask,))
        if len(sel) == batch.n:
            return batch
        return batch.gather(sel)

    def explain(self, depth: int = 0) -> List[str]:
        lines = [
            self._annotate(
                f"{'  ' * depth}BatchFilter est={self.cardinality:.0f}"
            )
        ]
        lines.extend(self.child.explain(depth + 1))
        return lines


# ---------------------------------------------------------------------------
# Planner and entry points
# ---------------------------------------------------------------------------


def _flatten_joins(node: AlgebraNode, out: List[AlgebraNode]) -> None:
    if isinstance(node, Join):
        _flatten_joins(node.left, out)
        _flatten_joins(node.right, out)
    else:
        out.append(node)


def _order_operands(operands: List[BatchOp]) -> List[BatchOp]:
    """Greedy cost-based join order over already-built operands.

    Starts from the smallest estimated operand, then repeatedly joins
    the cheapest operand that shares a variable with the bindings so
    far; disconnected operands (cross products) are deferred to the end.
    """
    if len(operands) <= 1:
        return operands
    remaining = list(enumerate(operands))
    remaining.sort(key=lambda pair: (pair[1].cardinality, pair[0]))
    _, first = remaining.pop(0)
    ordered = [first]
    bound: Set[Variable] = set(first.variables)
    while remaining:
        connected = [p for p in remaining if p[1].variables & bound]
        if not connected:
            connected = remaining
        best = min(connected, key=lambda pair: (pair[1].cardinality, pair[0]))
        remaining.remove(best)
        ordered.append(best[1])
        bound.update(best[1].variables)
    return ordered


def build_batch_plan(graph: Graph, node: AlgebraNode) -> BatchOp:
    """Compile a logical algebra tree into a columnar batch plan."""
    sentinels: Dict[Term, int] = {}
    return _build(graph, node, sentinels)


def _build(
    graph: Graph, node: AlgebraNode, sentinels: Dict[Term, int]
) -> BatchOp:
    if isinstance(node, Bgp):
        if not node.patterns:
            return BatchSingleton()
        scan = BatchBgp(graph, node.patterns)
        if scan.compiled is None:
            return BatchEmpty(scan.variables)
        return scan
    if isinstance(node, Join):
        flat: List[AlgebraNode] = []
        _flatten_joins(node, flat)
        operands = [_build(graph, operand, sentinels) for operand in flat]
        ordered = _order_operands(operands)
        plan = ordered[0]
        for operand in ordered[1:]:
            probe, build = (
                (plan, operand)
                if plan.cardinality >= operand.cardinality
                else (operand, plan)
            )
            plan = BatchJoin(probe, build)
        return plan
    if isinstance(node, AlgebraUnion):
        branches: List[BatchOp] = []
        stack: List[AlgebraNode] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, AlgebraUnion):
                stack.append(current.right)
                stack.append(current.left)
            else:
                branches.append(_build(graph, current, sentinels))
        return BatchUnion(branches)
    if isinstance(node, LeftJoin):
        left = _build(graph, node.left, sentinels)
        right = _build(graph, node.right, sentinels)
        mask = (
            compile_mask(graph, node.expr, sentinels)
            if node.expr is not None
            else None
        )
        return BatchLeftJoin(left, right, mask)
    if isinstance(node, Filter):
        child = _build(graph, node.child, sentinels)
        return BatchFilter(child, compile_mask(graph, node.expr, sentinels))
    raise SparqlEvaluationError(f"unknown algebra node {node!r}")


def execute_batch(graph: Graph, node: AlgebraNode) -> Batch:
    """Build and execute the batch plan for a logical tree."""
    return build_batch_plan(graph, node).execute()


def select_id_rows_batch(
    graph: Graph, node: AlgebraNode, variables: Sequence[Variable]
) -> Set[_IDRow]:
    """Distinct projected rows as ID tuples (``None`` = unbound cell)."""
    return execute_batch(graph, node).id_rows(variables)


# ---------------------------------------------------------------------------
# Result ordering on term ranks, and the vectorized solution modifiers
# ---------------------------------------------------------------------------

_RowKeep = Optional[Callable[[_IDRow], bool]]


def pack_ids(
    columns: Sequence[Sequence[int]], n: int, base: int
) -> List[int]:
    """One int identity key per row of ``n``-row parallel ID columns.

    A row's cells are digits in radix ``base``, the first column most
    significant: an ID is its own digit and ``UNBOUND`` the top digit
    ``base - 1``, so every ID must lie below ``base - 1`` (as with
    ``len(dictionary) + 1``).  Over columns of one width, equal keys
    are equal rows; zero columns give ``n`` equal zeros, as ``()`` rows
    are equal.  Unlike :func:`pack_ranks` the key gives identity, not
    order, and needs no rank table, so a growing dictionary triggers no
    rank rebuild.  Ints are not tracked by the garbage collector, so a
    set of keys builds no container per row.
    """
    if not columns:
        return [0] * n
    top = base - 1
    keys: Iterable[int] = ()
    for index, col in enumerate(columns):
        if UNBOUND in col:
            col = [top if c == UNBOUND else c for c in col]
        if index:
            scaled = map(operator.mul, keys, repeat(base))
            keys = map(operator.add, scaled, col)
        else:
            keys = col
    return list(keys)


def pack_ranks(
    ranks: Sequence[int],
    columns: Sequence[Sequence[Optional[int]]],
    descending: Sequence[bool] = (),
) -> List[int]:
    """One int sort key per row of parallel ID columns.

    A row's key holds its cells' ranks
    (:meth:`repro.rdf.dictionary.TermDictionary.rank_tables`) as digits
    in radix ``base = len(ranks) + 1``, the first column most
    significant, so comparing two keys compares the rows in the
    library-wide term order and equal keys are equal rows.  An unbound
    cell (``None`` or ``UNBOUND``) is digit 0, before every term; a
    ``descending`` column's digit is ``base - 1 - rank``, which
    reverses the terms and moves unbound cells last.  Ints are not
    tracked by the garbage collector, so deduplicating and sorting the
    keys builds no container per row.  This is the one ordering
    primitive of the result boundary — the canonical SELECT order, the
    local and federated ORDER BY and the collect baseline all sort on
    these keys, and :func:`unpack_ranks` turns the ascending digits
    back into IDs.
    """
    base = len(ranks) + 1
    keys: List[int] = []
    for index, col in enumerate(columns):
        digits: Iterable[int]
        try:
            digits = list(map(ranks.__getitem__, col))
        except (TypeError, IndexError):  # an unbound cell: digit 0
            digits = [
                0 if c is None or c == UNBOUND else ranks[c] for c in col
            ]
        if index < len(descending) and descending[index]:
            digits = map(operator.sub, repeat(base - 1), digits)
        if index:
            scaled = map(operator.mul, keys, repeat(base))
            keys = list(map(operator.add, scaled, digits))
        else:
            keys = list(digits)
    return keys


def unpack_ranks(
    keys: Sequence[int], width: int, ids_by_rank: Sequence[Optional[int]]
) -> List[List[Optional[int]]]:
    """The ``width`` ID columns of keys packed by :func:`pack_ranks`.

    ``ids_by_rank`` is the inverse table from the same
    :meth:`~repro.rdf.dictionary.TermDictionary.rank_tables` pair, so
    digit 0 comes back as ``None`` (unbound).  Every column must have
    been packed ascending, and a key may hold no digit above its
    ``width`` (:func:`top_k` strips the ORDER BY digits first).
    """
    base = len(ids_by_rank)
    columns: List[List[Optional[int]]] = []
    for _ in range(width - 1):
        digits = map(operator.mod, keys, repeat(base))
        columns.append(list(map(ids_by_rank.__getitem__, digits)))
        keys = list(map(operator.floordiv, keys, repeat(base)))
    if width:
        columns.append(list(map(ids_by_rank.__getitem__, keys)))
    columns.reverse()
    return columns


def top_k(
    keys: Iterable[int],
    modulus: int,
    in_head: bool,
    offset: int = 0,
    limit: Optional[int] = None,
) -> List[int]:
    """ORDER BY + DISTINCT on the head + OFFSET/LIMIT over packed keys.

    Every key packs one solution's ORDER BY digits above its head
    digits, so ``key % modulus`` is its head row.  Solutions sort by
    key — by the ORDER BY conditions, ties broken by the canonical
    order of the head row — and each distinct head row is output at
    its minimal key, so the answer is a pure function of the solution
    *set*.  Returns the output rows as head keys, in output order.

    When every ORDER BY variable is in the head (``in_head``) a head
    row has one key, and with a LIMIT the output is ``heapq.nsmallest``
    of ``offset + limit`` distinct keys, not a full sort.  Otherwise
    a head row can occur under several keys: one sort of the distinct
    keys, then the first of each head row.
    """
    bound = None if limit is None else offset + limit
    if bound == 0:
        return []
    distinct = set(keys)
    if not in_head:
        heads = map(operator.mod, sorted(distinct), repeat(modulus))
        return list(islice(dict.fromkeys(heads), offset, bound))
    if bound is None:
        ranked = sorted(distinct)
    else:
        ranked = heapq.nsmallest(bound, distinct)
    if ranked and ranked[-1] < modulus:  # no ORDER BY digit to strip
        return ranked[offset:]
    return list(map(operator.mod, ranked[offset:], repeat(modulus)))


def batch_slice(
    chunks: Iterable[Batch],
    projected: Sequence[Variable],
    offset: int = 0,
    limit: Optional[int] = None,
    keep: _RowKeep = None,
) -> List[_IDRow]:
    """DISTINCT-project + OFFSET/LIMIT in chunk order (no ORDER BY).

    First-seen deduplication over the deterministic row order of the
    chunk stream — :meth:`BatchOp.chunks` locally, the federated plan
    root's chunks in the federation; which window of the distinct rows
    an un-ordered slice returns is defined by that order.  The stream
    is abandoned once ``offset + limit`` distinct rows are in, and
    ``LIMIT 0`` pulls nothing.
    """
    if limit == 0:
        return []
    bound = None if limit is None else offset + limit
    seen: Dict[_IDRow, None] = {}
    for batch in chunks:
        rows = column_rows(batch.project(projected), batch.n)
        if keep is not None:
            rows = filter(keep, rows)
        # Known rows keep their place, new ones go last: first-seen.
        seen.update(dict.fromkeys(rows))
        if bound is not None and len(seen) >= bound:
            break
    return list(islice(seen, offset, bound))


def batch_top_k(
    dictionary: TermDictionary,
    batch: Batch,
    projected: Sequence[Variable],
    order: Sequence[OrderCondition],
    offset: int = 0,
    limit: Optional[int] = None,
    keep: _RowKeep = None,
) -> Tuple[List[List[Optional[int]]], int]:
    """ORDER BY + DISTINCT-project + OFFSET/LIMIT over one batch.

    The batch's ORDER BY and projected columns are packed into one key
    per solution (:func:`pack_ranks`) on the term ranks of
    ``dictionary`` (the one the batch's IDs encode against) and go
    through :func:`top_k`, so the output is a pure function of the
    solution *set* — identical to the reference evaluator's regardless
    of the engine's internal row order.  With no ORDER BY this is the
    canonical order of the distinct rows.  Returns the output as ID
    columns over ``projected`` (``None`` = unbound) and its row count;
    term rows are built only from these.
    """
    head = tuple(projected)
    width = len(head)
    columns = batch.project(head + tuple(c.variable for c in order))
    n = batch.n
    if keep is not None:
        mask = list(map(keep, column_rows(columns[:width], n)))
        columns = [list(compress(col, mask)) for col in columns]
        n = mask.count(True)
    if not columns:  # no column at all: one distinct, empty row
        bound = None if limit is None else offset + limit
        return [], len(range(min(n, 1))[offset:bound])
    ranks, ids_by_rank = dictionary.rank_tables()
    keys = pack_ranks(
        ranks,
        columns[width:] + columns[:width],
        [condition.descending for condition in order],
    )
    heads = top_k(
        keys,
        len(ids_by_rank) ** width,
        all(condition.variable in head for condition in order),
        offset,
        limit,
    )
    return unpack_ranks(heads, width, ids_by_rank), len(heads)
