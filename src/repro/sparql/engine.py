"""Top-level SPARQL execution: parse, translate, plan, evaluate, modify.

:func:`execute` is the single entry point used throughout the library —
it accepts a query string or a pre-parsed AST and returns a
:class:`~repro.sparql.results.SelectResult` or
:class:`~repro.sparql.results.AskResult`.

Every query runs on the columnar batch engine
(:mod:`repro.sparql.batch`); what the query needs, read off the AST,
decides how its plan is read:

* **whole batch** (``BatchOp.execute``) for SELECT queries that are
  unmodified or carry ORDER BY — the answer needs every solution, and
  is a pure function of the solution *set*, so the engine's bulk
  execution order cannot show through.  Both finish through
  :func:`~repro.sparql.batch.batch_top_k`: one packed rank int per
  solution, deduplicated and sorted as ints, unpacked into ID columns
  and decoded a column at a time for the output rows only;
* **chunks on demand** (``BatchOp.chunks``) for ASK, which wants to
  know whether there is a first chunk, and for LIMIT/OFFSET without
  ORDER BY, which stops pulling the moment ``offset + limit`` distinct
  rows are in — which window of the distinct rows comes back is
  defined by the plan's deterministic chunk order.

Text queries are served through the cross-query
:data:`~repro.sparql.cache.default_plan_cache`: a hit skips parsing,
algebra translation and physical planning entirely, keyed on
``(graph.serial, graph.epoch, text, namespace fingerprint)`` so any
graph mutation invalidates by key change.  The term-level evaluator in
:mod:`repro.sparql.algebra` is the reference oracle for tests.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import SparqlEvaluationError
from repro.obs.analyze import attach_actuals
from repro.obs.trace import NULL_TRACER
from repro.rdf.graph import Graph
from repro.rdf.namespaces import NamespaceManager
from repro.sparql.algebra import translate_group
from repro.sparql.ast import AskQuery, Query, SelectQuery
from repro.sparql.batch import (
    BatchOp,
    batch_slice,
    batch_top_k,
    build_batch_plan,
    term_rows,
)
from repro.sparql.cache import default_plan_cache, nsm_fingerprint
from repro.sparql.parser import parse_query
from repro.sparql.results import AskResult, SelectResult

__all__ = ["execute", "explain", "plan_cache_stats"]


class _PreparedLocal:
    """A fully planned query, ready to execute without parse or plan.

    The batch plan is re-executable, whole or in chunks, so one cache
    entry serves any number of executions against the same graph
    epoch.
    """

    __slots__ = ("ast", "variables", "batch_op")

    def __init__(
        self, ast: Query, variables: Tuple, batch_op: BatchOp
    ) -> None:
        self.ast = ast
        self.variables = variables
        self.batch_op = batch_op


def _prepare(graph: Graph, ast: Query, tracer=NULL_TRACER) -> _PreparedLocal:
    """Translate and physically plan a parsed query."""
    with tracer.span("normalise"):
        node = translate_group(ast.where)
    with tracer.span("plan"):
        if isinstance(ast, SelectQuery):
            variables = tuple(ast.projected())
        elif isinstance(ast, AskQuery):
            variables = ()
        else:
            raise SparqlEvaluationError(
                f"unsupported query type {type(ast).__name__}"
            )
        return _PreparedLocal(ast, variables, build_batch_plan(graph, node))


def execute(
    graph: Graph,
    query: Union[str, Query],
    nsm: Optional[NamespaceManager] = None,
    tracer=NULL_TRACER,
) -> Union[SelectResult, AskResult]:
    """Run a SPARQL query over a graph.

    Args:
        graph: the RDF database.
        query: query text or a pre-parsed AST.  Text goes through the
            cross-query plan cache; a hit skips parse and plan.
        nsm: namespace manager for resolving prefixed names in the text.
        tracer: a :class:`~repro.obs.trace.Tracer` collecting wall
            spans around the parse → normalise → plan → execute phases;
            defaults to the shared no-op tracer.

    Returns:
        SelectResult for SELECT, AskResult for ASK.
    """
    if isinstance(query, str):
        key = (graph.serial, graph.epoch, query, nsm_fingerprint(nsm))
        prepared = default_plan_cache.get(key)
        if prepared is None:
            with tracer.span("parse"):
                ast = parse_query(query, nsm)
            prepared = _prepare(graph, ast, tracer)
            default_plan_cache.put(key, prepared)
    else:
        prepared = _prepare(graph, query, tracer)
    with tracer.span("execute"):
        return _execute_prepared(graph, prepared)


def plan_cache_stats() -> dict:
    """Hit/miss/size counters of the local engine's plan cache."""
    return default_plan_cache.stats()


def explain(
    graph: Graph,
    query: Union[str, Query],
    nsm: Optional[NamespaceManager] = None,
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
    root = prepared.batch_op
    if analyze:
        attach_actuals(root)
        _execute_prepared(graph, prepared)
    lines: List[str] = ["batch engine"]
    lines.extend(root.explain())
    return "\n".join(lines)


def _execute_prepared(
    graph: Graph, prepared: _PreparedLocal
) -> Union[SelectResult, AskResult]:
    ast = prepared.ast
    plan = prepared.batch_op
    if isinstance(ast, AskQuery):
        return AskResult(next(plan.chunks(), None) is not None)
    variables = prepared.variables
    dictionary = graph.dictionary
    if not ast.order and (ast.limit is not None or ast.offset is not None):
        # Un-ordered LIMIT/OFFSET: a window of the plan's deterministic
        # chunk order; the plan is abandoned once the window is full.
        id_rows = batch_slice(
            plan.chunks(), variables, ast.offset or 0, ast.limit
        )
        columns, n = list(zip(*id_rows)), len(id_rows)
    else:
        batch = plan.execute()
        if not batch.n:  # most anchored lookups: nothing to finish
            return SelectResult(variables, [])
        # ORDER BY, or the canonical term order of the distinct rows.
        columns, n = batch_top_k(
            dictionary,
            batch,
            variables,
            ast.order,
            ast.offset or 0,
            ast.limit,
        )
    return SelectResult(variables, list(term_rows(dictionary, columns, n)))
