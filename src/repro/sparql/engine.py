"""Top-level SPARQL execution: parse, translate, plan, evaluate, modify.

:func:`execute` is the single entry point used throughout the library —
it accepts a query string or a pre-parsed AST and returns a
:class:`~repro.sparql.results.SelectResult` or
:class:`~repro.sparql.results.AskResult`.

Evaluation picks a physical engine per query shape:

* **columnar batch engine** (:mod:`repro.sparql.batch`) for SELECT
  queries that are unmodified or carry ORDER BY — their results are a
  pure function of the solution *set*, so the batch engine's bulk
  execution order cannot show through;
* **row engine** (:mod:`repro.sparql.plan`) for LIMIT/OFFSET without
  ORDER BY — which slice of the distinct rows comes back depends on
  the stream order, and the streaming ``SliceOp`` abandons the plan
  the moment the window fills — and for ASK, which wants the first
  row only.

Text queries are served through the cross-query
:data:`~repro.sparql.cache.default_plan_cache`: a hit skips parsing,
algebra translation and physical planning entirely, keyed on
``(graph.serial, graph.epoch, text, namespace fingerprint,
include_blanks)`` so any graph mutation invalidates by key change.
The term-level evaluator in :mod:`repro.sparql.algebra` remains
available as the reference oracle for tests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import SparqlEvaluationError
from repro.obs.analyze import attach_actuals
from repro.obs.trace import NULL_TRACER
from repro.rdf.graph import Graph
from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import BlankNode, Term
from repro.sparql.algebra import translate_group
from repro.sparql.ast import AskQuery, Query, SelectQuery
from repro.sparql.batch import (
    BatchOp,
    batch_top_k,
    build_batch_plan,
    column_rows,
    rank_keys,
)
from repro.sparql.cache import default_plan_cache, nsm_fingerprint
from repro.sparql.parser import parse_query
from repro.sparql.plan import PhysicalOp, SliceOp, build_plan
from repro.sparql.results import AskResult, SelectResult

__all__ = ["execute", "explain", "select", "ask_text", "plan_cache_stats"]


class _PreparedLocal:
    """A fully planned query, ready to execute without parse or plan.

    ``batch_op`` is set for the columnar paths, ``row_plan`` for the
    streaming paths (bare LIMIT/OFFSET, ASK); both are re-executable,
    so one cache entry serves any number of executions against the
    same graph epoch.
    """

    __slots__ = ("ast", "variables", "batch_op", "row_plan")

    def __init__(
        self,
        ast: Query,
        variables: Tuple,
        batch_op: Optional[BatchOp],
        row_plan: Optional[PhysicalOp],
    ) -> None:
        self.ast = ast
        self.variables = variables
        self.batch_op = batch_op
        self.row_plan = row_plan


def _uses_batch_engine(ast: Query) -> bool:
    """Whether the columnar engine may serve this query.

    True for SELECTs whose output is a pure function of the solution
    set: unmodified queries (canonical sort) and ORDER BY queries
    (total order with canonical tiebreak).  A bare LIMIT/OFFSET keeps
    the row engine, whose documented slice semantics follow its own
    deterministic stream order.
    """
    if not isinstance(ast, SelectQuery):
        return False
    if ast.order:
        return True
    return ast.limit is None and ast.offset is None


def _prepare(graph: Graph, ast: Query, tracer=NULL_TRACER) -> _PreparedLocal:
    """Translate and physically plan a parsed query."""
    with tracer.span("normalise"):
        node = translate_group(ast.where)
    with tracer.span("plan"):
        if isinstance(ast, SelectQuery):
            variables = tuple(ast.projected())
            if _uses_batch_engine(ast):
                return _PreparedLocal(
                    ast, variables, build_batch_plan(graph, node), None
                )
            return _PreparedLocal(
                ast, variables, None, build_plan(graph, node)
            )
        if isinstance(ast, AskQuery):
            return _PreparedLocal(ast, (), None, build_plan(graph, node))
    raise SparqlEvaluationError(f"unsupported query type {type(ast).__name__}")


def execute(
    graph: Graph,
    query: Union[str, Query],
    nsm: Optional[NamespaceManager] = None,
    include_blanks: bool = True,
    tracer=NULL_TRACER,
) -> Union[SelectResult, AskResult]:
    """Run a SPARQL query over a graph.

    Args:
        graph: the RDF database.
        query: query text or a pre-parsed AST.  Text goes through the
            cross-query plan cache; a hit skips parse and plan.
        nsm: namespace manager for resolving prefixed names in the text.
        include_blanks: when False, rows containing blank nodes are
            dropped — this implements the paper's ``Q_D`` semantics, used
            when the graph is a universal solution and blank nodes are
            labelled nulls rather than data.
        tracer: a :class:`~repro.obs.trace.Tracer` collecting wall
            spans around the parse → normalise → plan → execute phases;
            defaults to the shared no-op tracer.

    Returns:
        SelectResult for SELECT, AskResult for ASK.
    """
    if isinstance(query, str):
        key = (
            graph.serial,
            graph.epoch,
            query,
            nsm_fingerprint(nsm),
            include_blanks,
        )
        prepared = default_plan_cache.get(key)
        if prepared is None:
            with tracer.span("parse"):
                ast = parse_query(query, nsm)
            prepared = _prepare(graph, ast, tracer)
            default_plan_cache.put(key, prepared)
    else:
        prepared = _prepare(graph, query, tracer)
    with tracer.span("execute"):
        return _execute_prepared(graph, prepared, include_blanks)


def plan_cache_stats() -> dict:
    """Hit/miss/size counters of the local engine's plan cache."""
    return default_plan_cache.stats()


def explain(
    graph: Graph,
    query: Union[str, Query],
    nsm: Optional[NamespaceManager] = None,
    include_blanks: bool = True,
    analyze: bool = False,
) -> str:
    """Render the local physical plan, optionally with executed actuals.

    Plans the query fresh — never through (or into) the shared plan
    cache — so an analyzed execution's counters cannot leak into
    operators a later :func:`execute` call would reuse.  With
    ``analyze=True`` the plan is executed first and every operator
    line carries its ``(actual ...)`` counters next to the planner's
    estimates; the counters are plain integers over a deterministic
    execution, so repeated calls render byte-identical text.
    """
    ast = parse_query(query, nsm) if isinstance(query, str) else query
    prepared = _prepare(graph, ast)
    if prepared.batch_op is not None:
        engine = "batch"
        root = prepared.batch_op
    else:
        engine = "row"
        root = prepared.row_plan
        if isinstance(ast, SelectQuery):
            # Mirror _execute_prepared: the streaming slice is part of
            # the executed tree, so it must show (and count) here too.
            keep = (
                _blank_row_filter(graph.dictionary.terms())
                if not include_blanks
                else None
            )
            root = SliceOp(
                prepared.row_plan,
                prepared.variables,
                ast.offset or 0,
                ast.limit,
                keep,
            )
    if analyze:
        attach_actuals(root)
        if prepared.batch_op is not None:
            _execute_prepared(graph, prepared, include_blanks)
        elif isinstance(ast, AskQuery):
            any(True for _ in root.execute())
        else:
            root.rows()
    lines: List[str] = [f"{engine} engine"]
    lines.extend(root.explain())
    return "\n".join(lines)


def _execute_prepared(
    graph: Graph, prepared: _PreparedLocal, include_blanks: bool
) -> Union[SelectResult, AskResult]:
    ast = prepared.ast
    if isinstance(ast, AskQuery):
        return AskResult(any(True for _ in prepared.row_plan.execute()))
    variables = prepared.variables
    dictionary = graph.dictionary
    terms = dictionary.terms()
    keep = _blank_row_filter(terms) if not include_blanks else None
    if prepared.batch_op is None:
        # Bare LIMIT/OFFSET: the streaming row engine slices its own
        # deterministic stream order and stops pulling once full.
        id_rows = SliceOp(
            prepared.row_plan, variables, ast.offset or 0, ast.limit, keep
        ).rows()
        columns, n = list(zip(*id_rows)), len(id_rows)
    else:
        batch = prepared.batch_op.execute()
        if not batch.n:  # most anchored lookups: nothing to finish
            return SelectResult(variables, [])
        if ast.order:
            id_rows = batch_top_k(
                graph,
                batch,
                variables,
                ast.order,
                ast.offset or 0,
                ast.limit,
                keep,
            )
            columns, n = list(zip(*id_rows)), len(id_rows)
        else:
            # The distinct rows in the canonical term order: sorted on
            # rank tuples, a column at a time.
            columns = batch.project(variables)
            distinct = set(column_rows(columns, batch.n))
            if keep is not None:
                distinct = set(filter(keep, distinct))
            n = len(distinct)
            if n != batch.n:
                columns = list(zip(*distinct))
            keys = rank_keys(dictionary.ranks(), columns)
            order = sorted(range(len(keys)), key=keys.__getitem__)
            columns = [list(map(col.__getitem__, order)) for col in columns]
    decoded = [
        [None if tid is None else terms[tid] for tid in col]
        if None in col
        else list(map(terms.__getitem__, col))
        for col in columns
    ]
    return SelectResult(variables, list(column_rows(decoded, n)))


def _blank_row_filter(
    terms: List[Term],
) -> Callable[[Tuple[Optional[int], ...]], bool]:
    """The ``include_blanks=False`` row predicate (the paper's ``Q_D``).

    Whether an ID names a blank node is looked up in the dictionary
    once per distinct ID; rows then test their cells against the memo.
    """
    blank: Dict[Optional[int], bool] = {None: False}

    def keep(row: Tuple[Optional[int], ...]) -> bool:
        for tid in row:
            flag = blank.get(tid)
            if flag is None:
                flag = blank[tid] = isinstance(terms[tid], BlankNode)
            if flag:
                return False
        return True

    return keep


def select(
    graph: Graph,
    query: str,
    nsm: Optional[NamespaceManager] = None,
    include_blanks: bool = True,
) -> SelectResult:
    """Typed convenience wrapper: run a SELECT query.

    Raises:
        SparqlEvaluationError: if the text is not a SELECT query.
    """
    result = execute(graph, query, nsm, include_blanks)
    if not isinstance(result, SelectResult):
        raise SparqlEvaluationError("expected a SELECT query")
    return result


def ask_text(
    graph: Graph, query: str, nsm: Optional[NamespaceManager] = None
) -> bool:
    """Typed convenience wrapper: run an ASK query, returning a bool.

    Raises:
        SparqlEvaluationError: if the text is not an ASK query.
    """
    result = execute(graph, query, nsm)
    if not isinstance(result, AskResult):
        raise SparqlEvaluationError("expected an ASK query")
    return bool(result)
