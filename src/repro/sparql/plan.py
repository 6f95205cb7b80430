"""ID-native physical plans for the SPARQL algebra.

:mod:`repro.sparql.algebra` defines the logical operators and a naive
term-level evaluator that materialises full sets of
:class:`~repro.gpq.bindings.SolutionMapping` at every node.  This module
is the production execution path: the logical tree is compiled into a
tree of *streaming* physical operators whose solutions are plain
``{Variable: int}`` dictionaries over the graph's term-dictionary IDs.
Only the final projected rows are decoded back into terms.

Physical operators:

* :class:`BgpScan` — index-nested-loop join over one basic graph
  pattern, with cost-based conjunct ordering driven by the per-index
  counts of :meth:`repro.rdf.graph.Graph.count_ids`;
* :class:`HashJoin` — builds a hash table on the lower-cardinality
  side keyed by the shared variables and streams the other side
  (falling back to a nested loop when UNION branches make binding
  domains heterogeneous);
* :class:`UnionScan` — streams each branch, deduplicating on the fly;
* :class:`LeftJoinOp` — the ``OPTIONAL`` construct: left rows extend
  with compatible right rows where any pass the embedded condition and
  stream through unchanged where none do;
* :class:`FilterScan` — evaluates FILTER expressions entirely on IDs
  (ground comparison terms are resolved to IDs at compile time;
  constants absent from the dictionary get fresh sentinel IDs that can
  never collide with data).

The planner (:func:`build_plan`) additionally reorders *join operands*
— flattening left-deep ``Join`` chains and greedily joining the
cheapest connected operand next — so cross products are only formed
when the query itself is disconnected.

Every plan produces exactly the solution set of the reference
evaluator (:func:`repro.sparql.algebra.evaluate_algebra`); the test
suite asserts this equivalence on randomized workloads.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import SparqlEvaluationError
from repro.gpq.evaluation import compile_conjunct, extend_id_bindings
from repro.obs.analyze import format_actuals
from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.algebra import AlgebraNode, Bgp, Filter, Join, LeftJoin
from repro.sparql.algebra import Union as AlgebraUnion
from repro.sparql.ast import (
    BooleanExpr,
    Comparison,
    FilterExpr,
)

__all__ = [
    "PhysicalOp",
    "BgpScan",
    "HashJoin",
    "UnionScan",
    "LeftJoinOp",
    "FilterScan",
    "EmptyScan",
    "SingletonScan",
    "SliceOp",
    "compile_filter",
    "plan_bgp",
    "build_plan",
    "explain_plan",
    "evaluate_plan",
    "select_id_rows",
    "select_rows",
]

#: A compiled conjunct position: an integer ID or a still-free Variable.
_Slot = Union[int, Variable]

#: A streaming solution: variable -> integer term ID.
_IDBinding = Dict[Variable, int]

#: A BGP's compiled conjuncts, or None when one is unsatisfiable.
_CompiledBgp = Optional[List[Tuple[_Slot, _Slot, _Slot]]]

#: Selectivity credit for a variable position that will be bound (to an
#: unknown value) by the time a conjunct runs: its index count is divided
#: by this per bound position.  Any constant > 1 gives the right *shape*
#: of preference; 8 keeps estimates integral-ish without overflow games.
_BOUND_SELECTIVITY = 8.0


class PhysicalOp:
    """Base class: a streaming operator over ID bindings.

    Attributes:
        variables: the variables this operator *may* bind.
        binds_all: True when every produced binding is total on
            ``variables`` (lets joins use the pure hash path).
        cardinality: planner's rough output-size estimate.
        actuals: EXPLAIN ANALYZE counters, attached per node by
            :func:`repro.obs.analyze.attach_actuals`; the class-level
            ``None`` means analysis is off and ``execute`` forwards to
            the operator's ``_execute`` with zero per-row overhead.
    """

    variables: FrozenSet[Variable] = frozenset()
    binds_all: bool = True
    cardinality: float = 1.0
    actuals: Optional[Dict[str, int]] = None

    def children(self) -> Tuple["PhysicalOp", ...]:
        return ()

    def _execute(self) -> Iterator[_IDBinding]:
        raise NotImplementedError

    def execute(self) -> Iterator[_IDBinding]:
        if self.actuals is None:
            return self._execute()
        return self._counted()

    def _counted(self) -> Iterator[_IDBinding]:
        """The analyzed path: stream ``_execute`` counting rows out."""
        actuals = self.actuals
        actuals["calls"] = actuals.get("calls", 0) + 1
        produced = actuals.get("rows_out", 0)
        actuals["rows_out"] = produced
        for binding in self._execute():
            produced += 1
            actuals["rows_out"] = produced
            yield binding

    def _annotate(self, line: str) -> str:
        """Append the actuals note to one explain line (analyze mode)."""
        return f"{line}{format_actuals(self.actuals)}"

    def explain(self, depth: int = 0) -> List[str]:
        raise NotImplementedError


class EmptyScan(PhysicalOp):
    """Produces nothing — a pattern that provably cannot match."""

    def __init__(
        self, variables: FrozenSet[Variable], reason: str = ""
    ) -> None:
        self.variables = variables
        self.cardinality = 0.0
        self.reason = reason

    def _execute(self) -> Iterator[_IDBinding]:
        return iter(())

    def explain(self, depth: int = 0) -> List[str]:
        note = f" ({self.reason})" if self.reason else ""
        return [self._annotate(f"{'  ' * depth}Empty{note}")]


class SingletonScan(PhysicalOp):
    """Produces the single empty binding — an empty group pattern."""

    def _execute(self) -> Iterator[_IDBinding]:
        yield {}

    def explain(self, depth: int = 0) -> List[str]:
        return [self._annotate(f"{'  ' * depth}Singleton")]


class BgpScan(PhysicalOp):
    """Index-nested-loop join over one BGP's conjuncts.

    Conjuncts are ordered greedily at build time: the next conjunct is
    the one with the smallest estimated extension count given the
    variables bound so far, where the estimate is the exact per-index
    count of the conjunct's ground positions discounted for
    already-bound variable positions.
    """

    def __init__(
        self, graph: Graph, patterns: Sequence[TriplePattern]
    ) -> None:
        self.graph = graph
        out: Set[Variable] = set()
        for tp in patterns:
            out.update(tp.variables())
        self.variables = frozenset(out)
        self.ordered, self.compiled, self.cardinality = self._plan(
            graph, list(patterns)
        )

    @staticmethod
    def _estimate(
        graph: Graph, slots: Tuple[_Slot, _Slot, _Slot], bound: Set[Variable]
    ) -> Tuple[float, int]:
        """(estimated extensions, free-variable count) for one conjunct."""
        args: List[Optional[int]] = [None, None, None]
        discount = 1.0
        free = 0
        for pos, slot in enumerate(slots):
            if isinstance(slot, int):
                args[pos] = slot
            elif slot in bound:
                discount *= _BOUND_SELECTIVITY
            else:
                free += 1
        count = graph.count_ids(args[0], args[1], args[2])
        return (count / discount, free)

    @classmethod
    def _plan(
        cls, graph: Graph, patterns: List[TriplePattern]
    ) -> Tuple[List[TriplePattern], "_CompiledBgp", float]:
        compiled: List[Optional[Tuple[_Slot, _Slot, _Slot]]] = []
        for tp in patterns:
            compiled.append(compile_conjunct(graph, tp))
        if any(slots is None for slots in compiled):
            return (patterns, None, 0.0)
        remaining = list(range(len(patterns)))
        order: List[int] = []
        bound: Set[Variable] = set()
        total = 1.0
        while remaining:
            best = min(
                remaining,
                key=lambda i: cls._estimate(graph, compiled[i], bound) + (i,),
            )
            remaining.remove(best)
            order.append(best)
            estimate, _ = cls._estimate(graph, compiled[best], bound)
            total = min(total * max(estimate, 1.0), 1e18)
            bound.update(patterns[best].variables())
        ordered = [patterns[i] for i in order]
        slots = [compiled[i] for i in order]
        return (ordered, slots, total)  # type: ignore[return-value]

    def _execute(self) -> Iterator[_IDBinding]:
        if self.compiled is None:
            return iter(())
        return self._scan(0, {})

    def _scan(self, index: int, partial: _IDBinding) -> Iterator[_IDBinding]:
        if index == len(self.compiled):  # type: ignore[arg-type]
            yield partial
            return
        slots = self.compiled[index]  # type: ignore[index]
        for extended in extend_id_bindings(self.graph, slots, partial):
            yield from self._scan(index + 1, extended)

    def explain(self, depth: int = 0) -> List[str]:
        pad = "  " * depth
        if self.compiled is None:
            return [
                self._annotate(
                    f"{pad}BgpScan [unsatisfiable: uninterned ground term]"
                )
            ]
        lines = [self._annotate(f"{pad}BgpScan est={self.cardinality:.0f}")]
        for tp in self.ordered:
            lines.append(f"{pad}  . {tp.n3()}")
        return lines


class HashJoin(PhysicalOp):
    """Join two sub-plans on their shared variables.

    The build side is materialised into buckets keyed by the shared
    variables; the probe side streams.  The planner always places the
    lower-estimate side as the build side.  When either side may produce
    bindings that are partial on the shared variables (possible only
    under UNION branches with unequal domains), the operator falls back
    to a nested loop with explicit compatibility checks, mirroring the
    reference ``omega_join``.
    """

    def __init__(self, probe: PhysicalOp, build: PhysicalOp) -> None:
        self.probe = probe
        self.build = build
        self.variables = probe.variables | build.variables
        self.shared: Tuple[Variable, ...] = tuple(
            sorted(probe.variables & build.variables, key=lambda v: v.name)
        )
        self.binds_all = probe.binds_all and build.binds_all
        denominator = max(1.0, _BOUND_SELECTIVITY ** len(self.shared))
        self.cardinality = min(
            probe.cardinality * build.cardinality / denominator, 1e18
        )

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.probe, self.build)

    def _execute(self) -> Iterator[_IDBinding]:
        built = list(self.build.execute())
        if self.actuals is not None:
            self.actuals["build_rows"] = len(built)
        if not built:
            return
        if self.binds_all and self.shared:
            buckets: Dict[Tuple[int, ...], List[_IDBinding]] = {}
            for binding in built:
                key = tuple(binding[v] for v in self.shared)
                buckets.setdefault(key, []).append(binding)
            for probe in self.probe.execute():
                key = tuple(probe[v] for v in self.shared)
                for match in buckets.get(key, ()):
                    yield {**probe, **match}
            return
        # Heterogeneous domains (UNION branches) or no shared variables.
        # Bucket on the shared variables every *built* binding does bind;
        # a probe binding that also binds them probes its bucket, anything
        # else falls back to scanning all built bindings.  Merges keep the
        # explicit compatibility check for the remaining variables.
        key_vars = tuple(v for v in self.shared if all(v in b for b in built))
        if key_vars:
            loose: Dict[Tuple[int, ...], List[_IDBinding]] = {}
            for binding in built:
                key = tuple(binding[v] for v in key_vars)
                loose.setdefault(key, []).append(binding)
            for probe in self.probe.execute():
                if all(v in probe for v in key_vars):
                    key = tuple(probe[v] for v in key_vars)
                    candidates = loose.get(key, ())
                else:
                    candidates = built
                for binding in candidates:
                    merged = self._merge(probe, binding)
                    if merged is not None:
                        yield merged
            return
        for probe in self.probe.execute():
            for binding in built:
                merged = self._merge(probe, binding)
                if merged is not None:
                    yield merged

    @staticmethod
    def _merge(left: _IDBinding, right: _IDBinding) -> Optional[_IDBinding]:
        for var, tid in right.items():
            bound = left.get(var)
            if bound is not None and bound != tid:
                return None
        return {**left, **right}

    def explain(self, depth: int = 0) -> List[str]:
        pad = "  " * depth
        mode = "hash" if (self.binds_all and self.shared) else "loop"
        on = ", ".join(f"?{v.name}" for v in self.shared) or "-"
        lines = [
            self._annotate(
                f"{pad}HashJoin[{mode}] on={on} est={self.cardinality:.0f}"
            )
        ]
        lines.extend(self.probe.explain(depth + 1))
        lines.extend(self.build.explain(depth + 1))
        return lines


class LeftJoinOp(PhysicalOp):
    """``OPTIONAL``: left rows extend with compatible right rows.

    The right (optional) side is materialised; every left row streams
    through extended by each compatible right row that passes the
    embedded condition (evaluated on the merged row, per the SPARQL
    translation), or unchanged when none does.  Optional variables may
    stay unbound, so the operator never claims ``binds_all``.
    """

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        expr: Optional[FilterExpr] = None,
        predicate: Optional[Callable[[_IDBinding], bool]] = None,
    ) -> None:
        self.left = left
        self.right = right
        self.expr = expr
        self.predicate = predicate
        self.variables = left.variables | right.variables
        self.binds_all = False
        denominator = max(
            1.0,
            _BOUND_SELECTIVITY ** len(left.variables & right.variables),
        )
        self.cardinality = max(
            left.cardinality,
            min(left.cardinality * right.cardinality / denominator, 1e18),
        )

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def _execute(self) -> Iterator[_IDBinding]:
        built = list(self.right.execute())
        if self.actuals is not None:
            self.actuals["build_rows"] = len(built)
        predicate = self.predicate
        for probe in self.left.execute():
            extended: List[_IDBinding] = []
            for binding in built:
                merged = HashJoin._merge(probe, binding)
                if merged is None:
                    continue
                if predicate is not None and not predicate(merged):
                    continue
                extended.append(merged)
            if extended:
                yield from extended
            else:
                yield probe

    def explain(self, depth: int = 0) -> List[str]:
        pad = "  " * depth
        cond = " cond" if self.predicate is not None else ""
        lines = [
            self._annotate(f"{pad}LeftJoin{cond} est={self.cardinality:.0f}")
        ]
        lines.extend(self.left.explain(depth + 1))
        lines.extend(self.right.explain(depth + 1))
        return lines


class UnionScan(PhysicalOp):
    """Stream the branches of a UNION, deduplicating across branches."""

    def __init__(self, branches: Sequence[PhysicalOp]) -> None:
        self.branches = list(branches)
        out: Set[Variable] = set()
        for branch in self.branches:
            out.update(branch.variables)
        self.variables = frozenset(out)
        self.binds_all = all(
            b.binds_all and b.variables == self.variables
            for b in self.branches
        )
        self.cardinality = sum(b.cardinality for b in self.branches)

    def children(self) -> Tuple[PhysicalOp, ...]:
        return tuple(self.branches)

    def _execute(self) -> Iterator[_IDBinding]:
        seen: Set[FrozenSet[Tuple[str, int]]] = set()
        for branch in self.branches:
            for binding in branch.execute():
                key = frozenset((v.name, tid) for v, tid in binding.items())
                if key not in seen:
                    seen.add(key)
                    yield binding

    def explain(self, depth: int = 0) -> List[str]:
        lines = [
            self._annotate(f"{'  ' * depth}Union est={self.cardinality:.0f}")
        ]
        for branch in self.branches:
            lines.extend(branch.explain(depth + 1))
        return lines


class FilterScan(PhysicalOp):
    """Apply a compiled FILTER predicate to a child's stream."""

    def __init__(
        self,
        child: PhysicalOp,
        expr: FilterExpr,
        predicate: Callable[[_IDBinding], bool],
    ) -> None:
        self.child = child
        self.expr = expr
        self.predicate = predicate
        self.variables = child.variables
        self.binds_all = child.binds_all
        self.cardinality = child.cardinality / 2.0

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def _execute(self) -> Iterator[_IDBinding]:
        predicate = self.predicate
        return (b for b in self.child.execute() if predicate(b))

    def explain(self, depth: int = 0) -> List[str]:
        lines = [
            self._annotate(f"{'  ' * depth}Filter est={self.cardinality:.0f}")
        ]
        lines.extend(self.child.explain(depth + 1))
        return lines


# ---------------------------------------------------------------------------
# Solution modifier: the streaming slice over a plan's stream
# ---------------------------------------------------------------------------

#: A projected ID row (``None`` = unbound cell).
_IDRow = Tuple[Optional[int], ...]

#: An optional row-level predicate (e.g. blank-node filtering).
_RowKeep = Optional[Callable[[_IDRow], bool]]


class SliceOp(PhysicalOp):
    """Streaming DISTINCT-project + OFFSET/LIMIT, no ORDER BY.

    Rows keep the child's (deterministic) stream order; the first
    ``offset`` distinct projected rows are skipped and at most ``limit``
    emitted.  The child iterator is abandoned as soon as the slice is
    full — a ``LIMIT k`` query never materialises the full result.
    """

    kind = "Slice"

    def __init__(
        self,
        child: PhysicalOp,
        projected: Sequence[Variable],
        offset: int = 0,
        limit: Optional[int] = None,
        keep: _RowKeep = None,
    ) -> None:
        self.child = child
        self.projected = tuple(projected)
        self.offset = offset
        self.limit = limit
        self.keep = keep
        self.variables = frozenset(self.projected)
        self.cardinality = (
            child.cardinality if limit is None else float(limit)
        )

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.child,)

    def rows(self) -> List[_IDRow]:
        """The sliced distinct projected rows, in stream order."""
        out = self._rows()
        if self.actuals is not None:
            actuals = self.actuals
            actuals["calls"] = actuals.get("calls", 0) + 1
            actuals["rows_out"] = actuals.get("rows_out", 0) + len(out)
        return out

    def _rows(self) -> List[_IDRow]:
        if self.limit == 0:
            return []
        out: List[_IDRow] = []
        seen: Set[_IDRow] = set()
        skipped = 0
        keep = self.keep
        for binding in self.child.execute():
            row = tuple(binding.get(v) for v in self.projected)
            if keep is not None and not keep(row):
                continue
            if row in seen:
                continue
            seen.add(row)
            if skipped < self.offset:
                skipped += 1
                continue
            out.append(row)
            if self.limit is not None and len(out) >= self.limit:
                break
        return out

    def execute(self) -> Iterator[_IDBinding]:
        # rows() records the actuals itself; skip the generic wrapper
        # so an analyzed execute() does not double-count.
        return self._execute()

    def _execute(self) -> Iterator[_IDBinding]:
        for row in self.rows():
            yield {
                v: tid
                for v, tid in zip(self.projected, row)
                if tid is not None
            }

    def explain(self, depth: int = 0) -> List[str]:
        note = f" offset={self.offset}" if self.offset else ""
        if self.limit is not None:
            note += f" limit={self.limit}"
        lines = [self._annotate(f"{'  ' * depth}Slice{note}")]
        lines.extend(self.child.explain(depth + 1))
        return lines


def plan_bgp(
    graph: Graph, patterns: Sequence[TriplePattern]
) -> Tuple[List[TriplePattern], _CompiledBgp, float]:
    """Cost-order a BGP's conjuncts without building an operator.

    Returns ``(ordered patterns, compiled slots or None, estimate)`` —
    the same greedy ordering :class:`BgpScan` uses, exposed so the
    columnar batch engine (:mod:`repro.sparql.batch`) shares one
    planner and the two engines always agree on join order.
    """
    return BgpScan._plan(graph, list(patterns))


# ---------------------------------------------------------------------------
# FILTER compilation
# ---------------------------------------------------------------------------


def _compile_filter(
    graph: Graph, expr: FilterExpr, sentinels: Dict[Term, int]
) -> Callable[[_IDBinding], bool]:
    """Compile a FILTER expression into an ID-level predicate.

    Ground terms resolve to their dictionary ID once, at compile time.
    A ground term the dictionary has never seen cannot equal any data
    term, so it receives a fresh *negative* sentinel ID (distinct per
    term) — ``=`` against it is always false and ``!=`` always true,
    exactly matching the term-level semantics.  Ground-vs-ground
    comparisons are constant-folded on the terms themselves.  An unbound
    variable makes any comparison false (SPARQL error semantics collapse
    to false in this fragment).
    """
    if isinstance(expr, BooleanExpr):
        left = _compile_filter(graph, expr.left, sentinels)
        right = _compile_filter(graph, expr.right, sentinels)
        if expr.op == "&&":
            return lambda b: left(b) and right(b)
        return lambda b: left(b) or right(b)
    if not isinstance(expr, Comparison):  # pragma: no cover - parser invariant
        raise SparqlEvaluationError(f"unknown filter expression {expr!r}")
    equals = expr.op == "="
    if not isinstance(expr.left, Variable) and not isinstance(
        expr.right, Variable
    ):
        verdict = (expr.left == expr.right) is equals
        return lambda b: verdict

    def resolve_ground(term: Term) -> int:
        tid = graph.term_id(term)
        if tid is None:
            tid = sentinels.setdefault(term, -1 - len(sentinels))
        return tid

    if isinstance(expr.left, Variable) and isinstance(expr.right, Variable):
        lvar, rvar = expr.left, expr.right

        def compare_vars(binding: _IDBinding) -> bool:
            left_id = binding.get(lvar)
            right_id = binding.get(rvar)
            if left_id is None or right_id is None:
                return False
            return (left_id == right_id) is equals

        return compare_vars

    if isinstance(expr.left, Variable):
        var, ground_id = expr.left, resolve_ground(expr.right)
    else:
        var, ground_id = expr.right, resolve_ground(expr.left)

    def compare_ground(binding: _IDBinding) -> bool:
        bound = binding.get(var)
        if bound is None:
            return False
        return (bound == ground_id) is equals

    return compare_ground


def compile_filter(
    graph: Graph,
    expr: FilterExpr,
    sentinels: Optional[Dict[Term, int]] = None,
) -> Callable[[_IDBinding], bool]:
    """Public entry to the FILTER compiler.

    ``graph`` only supplies the term dictionary (ground terms resolve to
    IDs through it), so any graph sharing the dictionary of the bindings
    the predicate will see works — the federated executor compiles
    filters once against a peer graph and pushes them into per-endpoint
    sub-queries.  ``sentinels`` may be shared across several filters of
    one query so uninterned constants keep stable sentinel IDs.
    """
    return _compile_filter(
        graph, expr, sentinels if sentinels is not None else {}
    )


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


def _flatten_joins(node: AlgebraNode, out: List[AlgebraNode]) -> None:
    if isinstance(node, Join):
        _flatten_joins(node.left, out)
        _flatten_joins(node.right, out)
    else:
        out.append(node)


def _order_operands(operands: List[PhysicalOp]) -> List[PhysicalOp]:
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


def build_plan(graph: Graph, node: AlgebraNode) -> PhysicalOp:
    """Compile a logical algebra tree into a physical plan."""
    sentinels: Dict[Term, int] = {}
    return _build(graph, node, sentinels)


def _build(
    graph: Graph, node: AlgebraNode, sentinels: Dict[Term, int]
) -> PhysicalOp:
    if isinstance(node, Bgp):
        if not node.patterns:
            return SingletonScan()
        scan = BgpScan(graph, node.patterns)
        if scan.compiled is None:
            return EmptyScan(scan.variables, "uninterned ground term")
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
            plan = HashJoin(probe, build)
        return plan
    if isinstance(node, AlgebraUnion):
        branches: List[PhysicalOp] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, AlgebraUnion):
                stack.append(current.right)
                stack.append(current.left)
            else:
                branches.append(_build(graph, current, sentinels))
        return UnionScan(branches)
    if isinstance(node, LeftJoin):
        left = _build(graph, node.left, sentinels)
        right = _build(graph, node.right, sentinels)
        if node.expr is not None:
            predicate = _compile_filter(graph, node.expr, sentinels)
        else:
            predicate = None
        return LeftJoinOp(left, right, node.expr, predicate)
    if isinstance(node, Filter):
        child = _build(graph, node.child, sentinels)
        predicate = _compile_filter(graph, node.expr, sentinels)
        return FilterScan(child, node.expr, predicate)
    raise SparqlEvaluationError(f"unknown algebra node {node!r}")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def evaluate_plan(graph: Graph, node: AlgebraNode) -> Iterator[_IDBinding]:
    """Build and execute the physical plan for a logical tree."""
    return build_plan(graph, node).execute()


def select_id_rows(
    graph: Graph, node: AlgebraNode, variables: Sequence[Variable]
) -> Set[Tuple[Optional[int], ...]]:
    """Distinct projected rows as ID tuples (``None`` = unbound cell).

    Deduplication happens here, on integer tuples, so the decode below
    touches each distinct row once — this is the point of the ID-native
    executor.
    """
    return {
        tuple(binding.get(v) for v in variables)
        for binding in evaluate_plan(graph, node)
    }


def select_rows(
    graph: Graph, node: AlgebraNode, variables: Sequence[Variable]
) -> Set[Tuple[Optional[Term], ...]]:
    """Distinct projected rows, decoded to terms."""
    decode = graph.decode_id
    return {
        tuple(None if tid is None else decode(tid) for tid in row)
        for row in select_id_rows(graph, node, variables)
    }


def explain_plan(graph: Graph, node: AlgebraNode) -> str:
    """Human-readable physical plan (for debugging and tests)."""
    return "\n".join(build_plan(graph, node).explain())
