"""Federated physical-operator layer: one plan, one interpreter.

PR 4 left the federation engine with four near-duplicate strategy
monoliths inside the executor.  This module replaces them with a proper
planner/operator split, mirroring the ID-native design of
:mod:`repro.sparql.batch`:

* **Operators** — small declarative nodes over the local engine's
  currency.  Every node has a name-sorted ``schema``; a chunk of its
  output is a :class:`~repro.sparql.batch.Batch` under that schema
  (``UNBOUND`` for a cell a row does not bind) with a parallel *origin*
  list (see :mod:`repro.federation.bindings`).  Only source access is
  federated; everything above it joins, left-joins and filters with
  the kernels of :mod:`repro.sparql.batch` and merges origins from the
  same selection vectors:
  :class:`RemoteScan` (unbound sub-query fan-out),
  :class:`ExclusiveGroupScan` (a FedX exclusive group fused into one
  endpoint-side sub-query), :class:`BoundJoinStream` (batched bound
  joins, *pipelined* unless the tenant is serial),
  :class:`PullScan` (a charged source-relation transfer, recorded in the
  execution's relation cache, then a local extension that reads the
  pulled peer graphs in place), :class:`LocalHashJoin`,
  :class:`LeftJoinNode` (federated ``OPTIONAL``, a hash left join),
  :class:`FilterNode` and :class:`UnionNode`.  A plan produces
  solutions only: projection, DISTINCT, ORDER BY, LIMIT/OFFSET and ASK
  are the local engine's :func:`~repro.sparql.batch.batch_slice` and
  :func:`~repro.sparql.batch.batch_top_k`, which the executor runs over
  the plan root.

* **Planner** (:class:`FederatedPlanner`) — builds operator trees from
  the cost model's decisions.  ``naive`` and ``bound`` are static
  plan shapes; ``adaptive`` and ``parallel`` share one loop
  (:meth:`FederatedPlanner.run_incremental`) that builds the tree
  *incrementally*, one cost-model decision at a time, feeding each
  operator's actual output cardinality back into the next decision
  (the executor's cardinality feedback, expressed as plan
  construction).  The loop has two pricing axes: ``adaptive`` keeps
  every conjunct its own unit and prices in busy seconds,
  ``parallel`` fuses FedX exclusive groups and prices in makespan
  seconds.

* **Interpreter** (:class:`PlanInterpreter`) — one memoised walker.
  Every request is priced by the network model and recorded onto a
  tenant of a :class:`~repro.runtime.scheduler.QueryScheduler` (one
  tenant for a solo query), whose replay turns the dependency DAG into
  the makespan.  Under ``parallel`` and every concurrent tenant,
  independent fan-outs, batch waves and UNION branches overlap.
  ``adaptive`` and the fixed baselines record on a *serial* tenant:
  one request at a time, so the makespan is the serial sum.  The
  tenant's ``serial`` flag is also plan-execution policy
  (:attr:`ExecContext.serial`): rows carry no origin, and
  :class:`PullScan` reads its child lazily.

**Pipelined bound joins.**  Every produced row carries its *origin* —
the recorded request that returned it — in the batch's origin column
(empty on a serial tenant).  A :class:`BoundJoinStream` pulls its
child one batch at a time and slices the rows in arrival order, and
each batch's sub-query depends only on the origins of the rows it
carries — the batch is *sent as soon as it fills*, overlapping the
still-outstanding remainder of the upstream step within the channel's
``max_in_flight`` window.  The *choice* of operator is still made from
the cost model's cardinality feedback at plan-construction time — like
FedX, the plan is fixed before rows stream through it; the
simulation's planning oracle sees counts the pipelined timeline only
later "earns".

**Demand propagation (PR 6, chunked since PR 12).**  Operators produce
rows through generators that yield one *chunk* — a batch plus its
origin list — per endpoint response or per local operator chunk;
the interpreter wraps each node in a memoised :class:`_Stream` cursor
that appends whole chunks to a materialised prefix, so a consumer asks
for chunks only until it has the rows it needs and the cursor is
resumable — a later consumer (or a later pull with higher demand)
continues where the last one stopped, never re-charging the network
for rows already materialised.  A request is issued exactly when a
consumer needs more rows than the responses so far supplied, which is
the condition a row-at-a-time cursor issues it under.  A ``LIMIT k``
query runs its plan under ``demand = offset + k``, and the only demand
sink is the result boundary: :func:`~repro.sparql.batch.batch_slice`
reads the root through :meth:`PlanInterpreter.chunks` and stops asking
once ``offset + k`` distinct rows are in, which ripples *against* the
dataflow — :class:`BoundJoinStream` stops filling batches (unsent
batches are never charged), :class:`RemoteScan` stops contacting later
endpoints — while the memoised prefix keeps already-paid rows
available to every consumer.  Federated ``ASK`` is the same slice with
``limit=1`` over an empty head: the first surviving row
short-circuits the whole pipeline.  Operators that need their input's
*cardinality* or wave (:class:`LocalHashJoin` build sides,
:class:`LeftJoinNode`, the ``after`` step of a :class:`RemoteScan`)
drain their children fully, and so does federated ``ORDER BY``
(:func:`~repro.sparql.batch.batch_top_k` over the drained root).  A
capped and an uncapped execution of one plan read the same chunk
streams, the uncapped one only to the end: their bound joins send
the same batches in the same order, so an open-ended ``OFFSET``
continues the capped pages before it.

**Fault tolerance (PR 7).**  Every endpoint contact funnels through
:func:`issue_request`.  Without a fault model attached the function is
a pass-through — evaluate, charge, submit, byte-identical to the
fault-free engine.  With one
(:class:`~repro.federation.faults.FaultSession` on the context) each
attempt first draws an outcome: failures and timeouts are charged like
real traffic (:meth:`~repro.federation.network.NetworkModel.
charge_fault`), retried up to the :class:`~repro.federation.faults.
RetryPolicy`'s budget with exponential backoff (waiting, not wire
work: the runtime delays the retry's arrival on the event kernel), and
failed over to the endpoint's replicas once the primary's budget is
spent.  When every candidate is
exhausted the request raises
:class:`~repro.errors.EndpointUnavailableError`; operators catch it,
record the dropped contribution on ``ctx.unreachable`` and continue
with the remaining endpoints — the execution degrades to a flagged
partial answer instead of failing.  The planner routes around
endpoints already marked down (zero further charges), recording them
too, so a partial answer's provenance names every dropped
contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import EndpointUnavailableError
from repro.federation.bindings import (
    CHUNK_ROWS,
    CompiledFilter,
    Schema,
    fresh_rows,
    relayout,
    schema_of,
    split_filters,
)
from repro.federation.cost import (
    Decision,
    EndpointStats,
    bound_variable_positions,
    group_bound_positions,
)
from repro.federation.endpoint import PeerEndpoint
from repro.federation.faults import FaultSession, RetryPolicy, Unreachable
from repro.obs.analyze import format_actuals
from repro.rdf.graph import Graph
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.batch import (
    Batch,
    extend_bindings_batch,
    gather_pairs,
    join_pairs,
    left_join_pairs,
    passing_rows,
)
from repro.gpq.evaluation import compile_conjunct
from repro.runtime.scheduler import RequestHandle, peak_overlap

__all__ = [
    "BoundJoinStream",
    "ExclusiveGroupScan",
    "ExecContext",
    "FederatedPlanner",
    "FedOp",
    "FilterNode",
    "InputNode",
    "LeftJoinNode",
    "LocalHashJoin",
    "PlanInterpreter",
    "PullScan",
    "RelationCache",
    "RemoteScan",
    "UnionNode",
    "explain_fed_plan",
    "issue_request",
]

_Origin = Tuple[RequestHandle, ...]


class RelationCache:
    """Source relations pulled so far, shared across one execution.

    ``(endpoint, relation)`` keys remember what has been paid for, so
    repeated conjuncts over the same relation (and later branches of a
    UNION) answer locally for free.  A full dump (``None`` key)
    subsumes every relation of that endpoint.  Nothing is copied: the
    network model charges the transfer, and the coordinator then reads
    the relation through the peer graph's own indexes, which hold the
    same triples under the same term dictionary.
    """

    def __init__(self, dictionary) -> None:
        self.dictionary = dictionary
        self._pulled: Dict[str, Set[Optional[int]]] = {}
        self._pulls: List[Tuple[str, Optional[int], Graph]] = []

    def has(self, endpoint: str, key: Optional[int]) -> bool:
        keys = self._pulled.get(endpoint)
        if not keys:
            return False
        return key in keys or None in keys

    def add(self, endpoint: str, key: Optional[int], graph: Graph) -> None:
        """Record a paid pull of ``endpoint``'s relation ``key``.

        Raises:
            ValueError: if ``graph`` encodes against another dictionary
                (its IDs would be meaningless to the coordinator).
        """
        if graph.dictionary is not self.dictionary:
            raise ValueError(
                "a pulled relation must share the executor's dictionary; "
                "IDs from a foreign dictionary are meaningless here"
            )
        self._pulled.setdefault(endpoint, set()).add(key)
        self._pulls.append((endpoint, key, graph))

    def term_id(self, term) -> Optional[int]:
        """The execution dictionary's ID of ``term`` (``None`` if never
        interned) — what :func:`~repro.gpq.evaluation.compile_conjunct`
        reads, so a conjunct compiles before anything is pulled."""
        return self.dictionary.lookup(term)

    def sources(
        self, key: Optional[int]
    ) -> List[Tuple[Graph, Optional[Set[int]]]]:
        """The graphs holding relation ``key``, in pull order.

        An endpoint sits where its first pull covering ``key`` landed.
        A variable-predicate read (``key`` ``None``) sees every pulled
        endpoint; one never dumped whole comes with the predicate IDs of
        the relations pulled from it, the rows the read may keep.
        """
        out: List[Tuple[Graph, Optional[Set[int]]]] = []
        placed: Set[str] = set()
        for endpoint, pulled, graph in self._pulls:
            if endpoint in placed:
                continue
            if key is None:
                keys = self._pulled[endpoint]
                out.append((graph, None if None in keys else keys))
            elif pulled == key or pulled is None:
                out.append((graph, None))
            else:
                continue
            placed.add(endpoint)
        return out


class ExecContext:
    """Everything one plan execution needs besides the plan itself.

    Args:
        network: the cost model charging every simulated exchange.
        stats: the execution's accumulated statistics.
        cache: the execution-wide relation cache (shared across UNION
            branches and optional blocks).
        scheduler: the execution's tenant recorder on a
            :class:`~repro.runtime.scheduler.QueryScheduler`: every
            request is recorded there and the replay settles elapsed
            time.  A serial tenant (every strategy but ``parallel``)
            is also plan-execution policy, read as :attr:`serial`.
        faults: the execution's :class:`~repro.federation.faults.
            FaultSession`, or ``None`` for a fault-free run (the
            request path is then byte-identical to the pre-fault
            engine).
        retry: the :class:`~repro.federation.faults.RetryPolicy`
            governing attempts, backoff and per-request timeouts.
        analyze: when True the interpreter attaches an actual-counter
            dict to every operator it starts (EXPLAIN ANALYZE).
        batch_size: per-execution bound-join batch override.  The
            planner stamps every :class:`BoundJoinStream` with the
            executor's constructor knob; a non-``None`` value here
            replaces it at execution time — the adaptive concurrency
            controller's re-planning hook
            (:meth:`~repro.runtime.control.AimdController.
            recommend_batch`).

    Attributes:
        base: the radix :func:`~repro.federation.bindings.fresh_rows`
            packs row keys in, ``len(dictionary) + 1`` of the cache's
            dictionary.  Every peer graph shares that dictionary and
            nothing is interned during an execution, so every ID in
            every chunk lies below ``base - 1``.
        unreachable: dropped contributions, in drop order and deduped
            by ``(endpoint, operation)`` — the provenance a
            :class:`~repro.federation.faults.PartialAnswer` is built
            from.
    """

    def __init__(
        self,
        network,
        stats,
        cache: RelationCache,
        scheduler,
        faults: Optional[FaultSession] = None,
        retry: Optional[RetryPolicy] = None,
        analyze: bool = False,
        batch_size: Optional[int] = None,
    ) -> None:
        self.network = network
        self.stats = stats
        self.cache = cache
        self.scheduler = scheduler
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.analyze = analyze
        self.batch_size = batch_size
        self.base = len(cache.dictionary) + 1
        self.unreachable: List[Unreachable] = []
        self._unreachable_seen: Set[Tuple[str, str]] = set()

    @property
    def serial(self) -> bool:
        """One request at a time: :class:`PullScan` then reads its child
        lazily, rows carry no origin, and bound joins say
        ``mode=serial``."""
        return self.scheduler.serial

    def record_unreachable(self, endpoint: str, operation: str) -> None:
        """Record one dropped contribution (idempotent per pair)."""
        key = (endpoint, operation)
        if key in self._unreachable_seen:
            return
        self._unreachable_seen.add(key)
        self.unreachable.append(Unreachable(endpoint, operation))


def issue_request(
    ctx: ExecContext,
    endpoint: PeerEndpoint,
    evaluate: Callable[[PeerEndpoint], Any],
    charge: Callable[[PeerEndpoint, Any], float],
    deps: _Origin = (),
    label: str = "",
) -> Tuple[Any, RequestHandle]:
    """Contact one logical endpoint through the fault/recovery machinery.

    The single funnel for every simulated request.  ``evaluate`` runs
    the sub-query against a concrete endpoint instance (primary or
    replica) and ``charge`` prices + accounts it, returning the wire
    seconds; the helper returns ``(payload, handle)`` where ``handle``
    is the request recorded on ``ctx.scheduler``.

    Without a fault session the path is evaluate → charge → submit,
    byte-identical to the fault-free engine.  With one, each candidate
    instance — the primary, then its replicas in order — gets
    ``1 + max_retries`` attempts.  Failed and timed-out attempts are
    charged like real traffic and recorded as ``failed`` requests that
    the retry depends on; a backoff wait is carried as the retry's
    arrival ``delay``.  A candidate that exhausts its budget is marked
    down for the rest of the execution (later contacts fail fast, free
    of charge); when every candidate is down the request raises
    :class:`~repro.errors.EndpointUnavailableError`.
    """
    session = ctx.faults
    scheduler = ctx.scheduler
    if session is None:
        payload = evaluate(endpoint)
        seconds = charge(endpoint, payload)
        handle = scheduler.submit(
            endpoint.name, seconds, after=deps, label=label
        )
        return payload, handle

    policy = ctx.retry
    last_deps: _Origin = tuple(deps)
    pending_delay = 0.0
    attempts_total = 0
    for candidate in (endpoint,) + endpoint.replicas:
        if session.is_down(candidate.name):
            continue
        for attempt in range(policy.max_retries + 1):
            outcome = session.outcome(candidate.name, ctx.stats.busy_seconds)
            attempts_total += 1
            if outcome == "ok":
                payload = evaluate(candidate)
                seconds = charge(candidate, payload)
                handle = scheduler.submit(
                    candidate.name,
                    seconds,
                    after=last_deps,
                    label=label,
                    delay=pending_delay,
                )
                if candidate is not endpoint:
                    ctx.stats.failovers += 1
                return payload, handle
            seconds = ctx.network.charge_fault(
                ctx.stats,
                candidate.name,
                outcome,
                timeout_seconds=policy.timeout_seconds,
            )
            failed = scheduler.submit(
                candidate.name,
                seconds,
                after=last_deps,
                label=f"{label} !{outcome}".strip(),
                delay=pending_delay,
                failed=True,
            )
            last_deps = (failed,)
            pending_delay = 0.0
            if attempt < policy.max_retries:
                pending_delay = ctx.network.charge_backoff(
                    ctx.stats, policy.backoff(attempt)
                )
                ctx.stats.retries += 1
        session.mark_down(candidate.name)
    raise EndpointUnavailableError(
        f"endpoint {endpoint.name!r} unreachable after "
        f"{attempts_total} attempt(s), replicas included",
        endpoint=endpoint.name,
        attempts=attempts_total,
    )


def _merge_origins(left: _Origin, right: _Origin) -> _Origin:
    if not left:
        return right
    if not right:
        return left
    merged = {handle.index: handle for handle in left}
    for handle in right:
        merged.setdefault(handle.index, handle)
    return tuple(merged.values())


def _origin_merger(
    left: Sequence[_Origin], right: Sequence[_Origin]
) -> Callable[[Sequence[int], Sequence[int]], List[_Origin]]:
    """``(left indexes, right indexes) -> merged origin column``.

    Row ``k`` of the result unions ``left[left_sel[k]]`` and
    ``right[right_sel[k]]``; a right index of ``-1`` (an unmatched
    left-join row) contributes nothing.  Rows sharing both parents'
    origin objects share the merged tuple too, which keeps the column's
    distinct objects few.  Built once per operator: with no request
    behind either side (a serial tenant, local rows) every chunk is
    just empty origins.
    """
    if not any(left) and not any(right):
        return lambda left_sel, right_sel: [()] * len(left_sel)
    memo: Dict[Tuple[int, int], _Origin] = {}

    def merged_origins(
        left_sel: Sequence[int], right_sel: Sequence[int]
    ) -> List[_Origin]:
        out: List[_Origin] = []
        for i, j in zip(left_sel, right_sel):
            mine = left[i]
            theirs = right[j] if j >= 0 else ()
            key = (id(mine), id(theirs))
            merged = memo.get(key)
            if merged is None:
                merged = memo[key] = _merge_origins(mine, theirs)
            out.append(merged)
        return out

    return merged_origins


def _batch_dependencies(origins: Sequence[_Origin]) -> _Origin:
    """Deterministic union of the origins of one batch's rows."""
    merged: Dict[int, RequestHandle] = {}
    for origin in origins:
        for handle in origin:
            merged.setdefault(handle.index, handle)
    return tuple(handle for _, handle in sorted(merged.items()))


#: One chunk of an operator's output: a batch under the node's schema
#: and the parallel origin list.
_Chunk = Tuple[Batch, List[_Origin]]

#: An operator's row generator: yields chunks (one per endpoint
#: response or local operator chunk) and returns the step's wave (every
#: recorded request handle) on exhaustion.
_RowGen = Generator[_Chunk, None, _Origin]


class _Stream:
    """A memoised, resumable cursor over one operator's chunk generator.

    ``pull(demand)`` asks the operator for chunks until the
    materialised prefix holds ``demand`` rows (or drains on ``None``);
    already-produced rows stay indexable, so multiple consumers — and
    repeated interpretations of a growing plan — read the same prefix
    without re-executing the operator.  Chunks land whole, so the
    prefix may run past ``demand``.  ``wave`` is only meaningful once
    ``exhausted`` is set: wave consumers drain their child fully before
    reading it.

    Attributes:
        batch: the produced rows so far, as one batch under the node's
            schema whose columns grow chunk by chunk (order is
            deterministic).
        origins: per-row provenance, aligned with ``batch`` — the
            recorded request(s) whose completion makes the row
            available.  Empty tuples for locally produced rows and on a
            serial tenant.
        wave: every request handle of the producing step: what a
            consumer that depends on the whole step (a
            :class:`RemoteScan`'s ``after``) must wait for.
    """

    __slots__ = ("_gen", "batch", "origins", "exhausted", "wave")

    def __init__(self, gen: _RowGen, schema: Schema) -> None:
        self._gen = gen
        self.batch = Batch.empty(schema)
        self.origins: List[_Origin] = []
        self.exhausted = False
        self.wave: _Origin = ()

    def __len__(self) -> int:
        return self.batch.n

    def pull(self, demand: Optional[int] = None) -> None:
        batch = self.batch
        while not self.exhausted and (demand is None or batch.n < demand):
            try:
                chunk, origins = next(self._gen)
            except StopIteration as stop:
                self.exhausted = True
                self.wave = stop.value or ()
            else:
                for column, more in zip(batch.columns, chunk.columns):
                    column.extend(more)
                batch.n += chunk.n
                self.origins.extend(origins)


def _observed(node: FedOp, gen: _RowGen) -> _RowGen:
    """Count the rows out of one node (EXPLAIN ANALYZE).

    Wraps a node's chunk generator without disturbing its protocol:
    yielded chunks pass through with ``rows_out`` kept current, and the
    generator's return value — the step's wave — is re-returned so
    :class:`_Stream` still sees it.
    """
    actuals = node.actuals
    rows = 0
    while True:
        try:
            chunk = next(gen)
        except StopIteration as stop:
            return stop.value or ()
        if chunk[0].n:
            rows += chunk[0].n
            actuals["rows_out"] = rows
        yield chunk


def _chunks_of(stream: _Stream) -> Iterator[_Chunk]:
    """Iterate a stream chunk by chunk, asking for one more row (hence
    one more chunk) only when everything materialised is consumed."""
    pos = 0
    while True:
        stream.pull(pos + 1)
        end = len(stream)
        if pos >= end:
            return
        yield stream.batch.slice(pos, end), stream.origins[pos:end]
        pos = end


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class FedOp:
    """Base class of the federated physical operators.

    Operators are declarative: they hold what to contact and which
    filters ride along; the interpreter decides how charges map onto
    the simulated timeline.  Every operator produces solutions; none
    projects, slices or sorts them (the executor's result boundary
    does).  After execution a node carries its recorded request handles
    for explain traces.
    """

    kind = "FedOp"
    #: The name-sorted variables naming the columns of every chunk the
    #: node produces.
    schema: Schema = ()
    decision: Optional[Decision] = None
    handles: Tuple[RequestHandle, ...] = ()
    #: EXPLAIN ANALYZE counters — ``None`` (analysis off, one attribute
    #: read on the hot path) or a per-node dict the interpreter attaches.
    actuals: Optional[Dict[str, int]] = None

    def children(self) -> Tuple["FedOp", ...]:
        return ()

    def _stream(self, ctx: ExecContext, interp: "PlanInterpreter") -> _RowGen:
        raise NotImplementedError

    def describe(self) -> str:
        """One explain line (children are rendered by the walker)."""
        return self.kind

    def explain(self, depth: int = 0) -> List[str]:
        line = f"{'  ' * depth}{self.describe()}"
        lines = [f"{line}{format_actuals(self.actuals)}"]
        for child in self.children():
            lines.extend(child.explain(depth + 1))
        return lines


def _pattern_schema(
    base: Schema, patterns: Sequence[TriplePattern]
) -> Schema:
    """``base`` extended by the variables of ``patterns``."""
    variables = set(base)
    for tp in patterns:
        variables.update(tp.variables())
    return schema_of(variables)


def _count_request(node: FedOp) -> None:
    if node.actuals is not None:
        node.actuals["requests"] = node.actuals.get("requests", 0) + 1


def _fan_out(
    node: FedOp,
    ctx: ExecContext,
    batch: Batch,
    deps: _Origin,
    handles: List[RequestHandle],
    seen: Optional[Set[int]],
) -> Iterator[_Chunk]:
    """Send ``node``'s sub-query, bound by ``batch``, to each of its
    endpoints in order; one chunk per response.

    An unreachable endpoint is recorded as a dropped contribution and
    skipped.  Recorded requests are appended to ``handles`` (and
    mirrored on ``node.handles`` for explain); each response's rows
    carry its request as their origin, except on a serial tenant.  Rows
    already in ``seen`` are dropped keep-first, unless ``seen`` is
    ``None``.
    """
    serial = ctx.serial
    for endpoint in node.endpoints:
        try:
            found, handle = issue_request(
                ctx,
                endpoint,
                lambda ep: ep.solutions(node.patterns, batch, node.pushed),
                lambda ep, found: ctx.network.charge_query(
                    ctx.stats, ep.name, found.n
                ),
                deps=deps,
                label=node.label,
            )
        except EndpointUnavailableError as exc:
            ctx.record_unreachable(
                exc.endpoint, " ".join(tp.n3() for tp in node.patterns)
            )
            continue
        _count_request(node)
        handles.append(handle)
        node.handles = tuple(handles)
        origin: _Origin = () if serial else (handle,)
        found, origins = relayout(found, node.schema), [origin] * found.n
        if seen is not None:
            found, origins = fresh_rows(found, origins, seen, ctx.base)
        yield found, origins


class InputNode(FedOp):
    """The singleton seed: one empty row (a branch's starting Ω)."""

    kind = "Input"

    def _stream(self, ctx: ExecContext, interp: "PlanInterpreter") -> _RowGen:
        yield Batch.singleton(), [()]
        return ()


class RemoteScan(FedOp):
    """Unbound sub-query fan-out: one pattern shipped to its endpoints.

    Every relevant endpoint answers on its own channel; solutions are
    concatenated in endpoint order and deduplicated keep-first.  Each
    request depends on the wave of ``after`` (the plan step whose
    results triggered this decision) — the coordinator cannot *decide*
    to ship before seeing them.  The planner only builds a scan with
    ``after`` as the right side of a :class:`LocalHashJoin` whose left
    side is that step, so the step is already drained when it is read.

    The fan-out is demand-aware: endpoints are contacted one at a time
    and each response is one chunk, so a consumer that stops asking (a
    full LIMIT window, a satisfied ASK) never charges the remaining
    endpoints.
    """

    kind = "RemoteScan"

    def __init__(
        self,
        patterns: Tuple[TriplePattern, ...],
        endpoints: Tuple[PeerEndpoint, ...],
        pushed: Tuple[CompiledFilter, ...] = (),
        decision: Optional[Decision] = None,
        after: Optional[FedOp] = None,
        label: str = "",
    ) -> None:
        self.patterns = patterns
        self.endpoints = endpoints
        self.pushed = pushed
        self.decision = decision
        self.after = after
        self.label = label
        self.schema = _pattern_schema((), patterns)

    def _stream(self, ctx: ExecContext, interp: "PlanInterpreter") -> _RowGen:
        deps: _Origin = ()
        if self.after is not None:
            # Waves require exhaustion: drain the triggering step fully.
            deps = interp.run(self.after).wave
        handles: List[RequestHandle] = []
        # One answer is a set already; two may overlap.
        seen: Optional[Set[int]] = set() if len(self.endpoints) > 1 else None
        yield from _fan_out(self, ctx, Batch.singleton(), deps, handles, seen)
        return tuple(handles)

    def describe(self) -> str:
        shape = " ".join(tp.n3() for tp in self.patterns)
        targets = ",".join(ep.name for ep in self.endpoints) or "-"
        note = f" +{len(self.pushed)}f" if self.pushed else ""
        return f"{self.kind} {shape} -> {targets}{note}"


class ExclusiveGroupScan(RemoteScan):
    """A FedX exclusive group: the owning endpoint joins the conjuncts
    locally and only joined solutions travel — one round trip for the
    whole group."""

    kind = "ExclusiveGroupScan"


class BoundJoinStream(FedOp):
    """FedX-style bound join, batched and pipelined.

    The child's rows are shipped in batches of ``batch_size`` as
    bindings for the pattern(s) — several patterns are an exclusive
    group joined endpoint-side; endpoints return only extensions, one
    chunk per response.  The operator pulls its child lazily and
    fills batches in arrival order, as FedX does, sending each batch
    before asking for the rows of the next: every batch but the last
    holds ``batch_size`` rows, and the batches concatenate to the
    child's rows in order, whatever their term IDs.  Pipelined (rows
    carry origins), each batch depends only on the requests that
    produced its own rows — successive batches overlap the upstream
    step instead of waiting for all of it.  Downstream demand that
    dries up (a full LIMIT window, a satisfied ASK) leaves the
    remaining batches unsent and the upstream sub-queries that would
    have fed them unissued.
    """

    kind = "BoundJoinStream"

    def __init__(
        self,
        child: FedOp,
        patterns: Tuple[TriplePattern, ...],
        endpoints: Tuple[PeerEndpoint, ...],
        batch_size: int = 64,
        pushed: Tuple[CompiledFilter, ...] = (),
        decision: Optional[Decision] = None,
        label: str = "",
    ) -> None:
        self.child = child
        self.patterns = patterns
        self.endpoints = endpoints
        self.batch_size = batch_size
        self.pushed = pushed
        self.decision = decision
        self.label = label
        self.schema = _pattern_schema(child.schema, patterns)
        self.n_batches = 0
        self.mode = "serial"

    def children(self) -> Tuple[FedOp, ...]:
        return (self.child,)

    def _chunks(self, interp: "PlanInterpreter") -> Iterator[_Chunk]:
        """Pull the child one batch at a time, in arrival order."""
        child = interp.stream(self.child)
        pos = 0
        while True:
            child.pull(pos + self.batch_size)
            end = min(pos + self.batch_size, len(child))
            if pos >= end:
                return
            yield child.batch.slice(pos, end), child.origins[pos:end]
            pos = end

    def _stream(self, ctx: ExecContext, interp: "PlanInterpreter") -> _RowGen:
        if ctx.batch_size is not None:
            # Adaptive re-planning: the execution context's batch size
            # overrides the constructor knob the planner stamped in.
            self.batch_size = ctx.batch_size
        self.mode = "serial" if ctx.serial else "pipelined"
        handles: List[RequestHandle] = []
        seen: Set[int] = set()
        for batch, batch_origins in self._chunks(interp):
            self.n_batches += 1
            if self.actuals is not None:
                self.actuals["batches"] = self.n_batches
            deps = _batch_dependencies(batch_origins)
            yield from _fan_out(self, ctx, batch, deps, handles, seen)
        return tuple(handles)

    def describe(self) -> str:
        shape = " ".join(tp.n3() for tp in self.patterns)
        targets = ",".join(ep.name for ep in self.endpoints) or "-"
        n = len(self.patterns)
        group = f"[group {n}] " if n > 1 else ""  # an exclusive group
        note = f" +{len(self.pushed)}f" if self.pushed else ""
        line = (
            f"{self.kind} {group}{shape} -> {targets}"
            f" batch={self.batch_size}{note}"
        )
        if self.n_batches:
            line += f" batches={self.n_batches} mode={self.mode}"
            if self.handles and self.mode == "pipelined":
                line += f" in_flight={peak_overlap(self.handles)}"
        return line


class PullScan(FedOp):
    """Pull the pattern's source relation(s), then extend locally.

    Uncached relevant endpoints dump the relation once, recorded in the
    shared :class:`RelationCache`; the child's rows then extend, for
    free, against every pulled graph holding the relation, read in
    place.  Per input row, the first source's matches come first and a
    later source's follow, each in its graph's index order, and a row
    already emitted is dropped.  With every relation already cached
    this is the cost model's ``local`` action (zero network).
    """

    kind = "PullScan"

    def __init__(
        self,
        child: FedOp,
        pattern: TriplePattern,
        endpoints: Tuple[PeerEndpoint, ...],
        decision: Optional[Decision] = None,
        label: str = "",
    ) -> None:
        self.child = child
        self.pattern = pattern
        self.endpoints = endpoints
        self.decision = decision
        self.label = label
        self.schema = _pattern_schema(child.schema, (pattern,))
        self.pulled: Tuple[str, ...] = ()

    def children(self) -> Tuple[FedOp, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext, interp: "PlanInterpreter") -> _RowGen:
        child = interp.stream(self.child)
        deps: _Origin = ()
        if not ctx.serial:
            # Pipelined, the dump waits for the child's whole wave.  On
            # a serial tenant it is charged up front and the child
            # extends lazily, chunk by chunk, so a satisfied LIMIT stops
            # pulling upstream rows.
            child.pull()
            deps = child.wave
        handles: List[RequestHandle] = []
        pulled: List[str] = []
        for endpoint in self.endpoints:
            key = endpoint.relation_key(self.pattern)
            if ctx.cache.has(endpoint.name, key):
                continue
            count = endpoint.count_relation(self.pattern)
            if not count:
                continue
            try:
                # Replicas share the primary's graph, so every candidate
                # serves the same dump; the charge lands on whichever
                # instance served it.
                graph, handle = issue_request(
                    ctx,
                    endpoint,
                    lambda ep: ep.graph,
                    lambda ep, graph, count=count: ctx.network.charge_dump(
                        ctx.stats, ep.name, count
                    ),
                    deps=deps,
                    label=self.label,
                )
            except EndpointUnavailableError as exc:
                ctx.record_unreachable(
                    exc.endpoint, f"pull {self.pattern.n3()}"
                )
                continue
            handles.append(handle)
            _count_request(self)
            pulled.append(endpoint.name)
            ctx.cache.add(endpoint.name, key, graph)
        self.handles = tuple(handles)
        self.pulled = tuple(pulled)
        slots = compile_conjunct(ctx.cache, self.pattern)
        if slots is not None:
            # The local join runs columnar: one selection-vector probe
            # per chunk and source (the whole drained child in runtime
            # mode), order-identical to a per-row loop over the sources
            # (downstream batching and dedupe are stream-order-sensitive
            # and message counts are gated).  Sources are looked up per
            # chunk, so a pull made meanwhile by another node is read.
            key = slots[1] if isinstance(slots[1], int) else None
            pulls = () if ctx.serial else self.handles
            seen: Set[int] = set()
            for batch, origins in _chunks_of(child):
                found, sel = self._extend(ctx.cache.sources(key), batch, slots)
                origins = _origin_merger(origins, [pulls])(sel, [0] * len(sel))
                yield fresh_rows(found, origins, seen, ctx.base)
        if self.handles:
            return self.handles
        return child.wave

    def _extend(
        self,
        sources: List[Tuple[Graph, Optional[Set[int]]]],
        batch: Batch,
        slots,
    ) -> Tuple[Batch, List[int]]:
        """``batch`` extended against every source, input-row major.

        Returns the rows under the node's schema and the input row of
        each.  A source with a predicate mask keeps only the rows of the
        relations pulled from it.
        """
        parts: List[Tuple[Batch, List[int]]] = []
        for graph, keep in sources:
            found, sel = extend_bindings_batch(graph, batch, slots)
            found = relayout(found, self.schema)
            if keep is not None:
                predicates = found.col(slots[1])
                rows = [i for i, pid in enumerate(predicates) if pid in keep]
                found, sel = found.gather(rows), [sel[i] for i in rows]
            if found.n:
                parts.append((found, sel))
        if not parts:
            return Batch.empty(self.schema), []
        if len(parts) == 1:
            return parts[0]
        # A stable sort by input row keeps, within each row, the sources
        # in pull order and each source's matches in index order.
        sel = [i for _, part in parts for i in part]
        columns = [
            [tid for found, _ in parts for tid in found.columns[k]]
            for k in range(len(self.schema))
        ]
        order = sorted(range(len(sel)), key=sel.__getitem__)
        merged = Batch(self.schema, columns, len(sel)).gather(order)
        return merged, [sel[i] for i in order]

    def describe(self) -> str:
        targets = ",".join(ep.name for ep in self.endpoints) or "-"
        line = f"{self.kind} {self.pattern.n3()} -> {targets}"
        if self.pulled:
            line += f" pulled={','.join(self.pulled)}"
        elif self.handles == () and self.decision is not None:
            line += f" [{self.decision.action}]"
        return line


def _gathered(
    left: _Stream,
    right: _Stream,
    schema: Schema,
    sel_l: List[int],
    sel_r: List[int],
) -> Iterator[_Chunk]:
    """The rows a join's index pairs name, :data:`CHUNK_ROWS` at a time.

    Columns are merged by the batch kernel and origins from the same
    pairs, so a merged row depends on both parents' requests.
    """
    merged_origins = _origin_merger(left.origins, right.origins)
    for start in range(0, len(sel_l), CHUNK_ROWS):
        ls = sel_l[start : start + CHUNK_ROWS]
        rs = sel_r[start : start + CHUNK_ROWS]
        merged = gather_pairs(left.batch, right.batch, ls, rs, schema)
        yield merged, merged_origins(ls, rs)


class LocalHashJoin(FedOp):
    """Join two sub-plans locally on their per-pair shared variables.

    The pairs are :func:`repro.sparql.batch.join_pairs`' (the one
    domain-aware hash join), in its order.
    """

    kind = "LocalHashJoin"

    def __init__(self, left: FedOp, right: FedOp) -> None:
        self.left = left
        self.right = right
        self.schema = schema_of(left.schema + right.schema)

    def children(self) -> Tuple[FedOp, ...]:
        return (self.left, self.right)

    def _stream(self, ctx: ExecContext, interp: "PlanInterpreter") -> _RowGen:
        # Both sides drain fully, left first: the hash join needs its
        # build side complete, and a right-side RemoteScan waits for
        # the left side's wave.
        left = interp.run(self.left)
        right = interp.run(self.right)
        sel_l, sel_r, _ = join_pairs(left.batch, right.batch, {})
        yield from _gathered(left, right, self.schema, sel_l, sel_r)
        return right.wave if right.wave else left.wave


class FilterNode(FedOp):
    """Apply compiled FILTER masks that just became decidable."""

    kind = "Filter"

    def __init__(
        self, child: FedOp, filters: Sequence[CompiledFilter]
    ) -> None:
        self.child = child
        self.filters = tuple(filters)
        self.schema = child.schema

    def children(self) -> Tuple[FedOp, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext, interp: "PlanInterpreter") -> _RowGen:
        child = interp.stream(self.child)
        masks = [f.accept for f in self.filters]
        for batch, origins in _chunks_of(child):
            keep = passing_rows(batch, masks)
            if len(keep) < batch.n:
                batch, origins = batch.gather(keep), [origins[i] for i in keep]
            yield batch, origins
        return child.wave

    def describe(self) -> str:
        return f"{self.kind} [{len(self.filters)} expr(s)]"


class LeftJoinNode(FedOp):
    """Federated ``OPTIONAL``: extend left rows with compatible optional
    rows that pass the block condition; keep unmatched rows unchanged.

    The optional side is an independent sub-plan (typically a
    :class:`UnionNode` over the block's conjunctive branches) whose
    requests carry no dependency on the required side — under the
    runtime interpreter both sides overlap.  The join is
    :func:`repro.sparql.batch.left_join_pairs`, a hash left join in
    left-row order; the condition (the optional group's top-level
    FILTER, a compiled mask) evaluates on the merged rows, per the
    SPARQL translation; an empty required side skips the optional
    sub-plan entirely.
    """

    kind = "LeftJoin"

    def __init__(
        self,
        left: FedOp,
        optional: FedOp,
        condition: Optional[Callable[[Batch], List[bool]]] = None,
    ) -> None:
        self.left = left
        self.optional = optional
        self.condition = condition
        self.schema = schema_of(left.schema + optional.schema)

    def children(self) -> Tuple[FedOp, ...]:
        return (self.left, self.optional)

    def _stream(self, ctx: ExecContext, interp: "PlanInterpreter") -> _RowGen:
        # Both sides drain fully: every left row must see the complete
        # optional side before it can stream through unmatched.
        left = interp.run(self.left)
        if not len(left):
            return left.wave
        optional = interp.run(self.optional)
        sel_l, sel_r = left_join_pairs(
            left.batch, optional.batch, {}, self.condition
        )
        seen: Set[int] = set()
        for batch, origins in _gathered(
            left, optional, self.schema, sel_l, sel_r
        ):
            yield fresh_rows(batch, origins, seen, ctx.base)
        return left.wave

    def describe(self) -> str:
        cond = " cond" if self.condition is not None else ""
        return f"{self.kind}{cond}"


class UnionNode(FedOp):
    """Concatenate branch outputs, deduplicating across branches."""

    kind = "Union"

    def __init__(self, branches: Sequence[FedOp]) -> None:
        self.branches = tuple(branches)
        self.schema = schema_of(
            var for branch in self.branches for var in branch.schema
        )

    def children(self) -> Tuple[FedOp, ...]:
        return self.branches

    def _stream(self, ctx: ExecContext, interp: "PlanInterpreter") -> _RowGen:
        seen: Set[int] = set()
        for branch in self.branches:
            for batch, origins in _chunks_of(interp.stream(branch)):
                yield fresh_rows(
                    relayout(batch, self.schema), origins, seen, ctx.base
                )
        return ()

    def describe(self) -> str:
        return f"{self.kind} [{len(self.branches)} branch(es)]"


class PlanInterpreter:
    """Memoised plan walker: each node's generator starts exactly once.

    The interpreter is what makes incremental plan construction cheap —
    the adaptive planner extends the tree one operator at a time and
    re-runs the root; already-started sub-trees resume their cached
    :class:`_Stream` without re-charging the network for materialised
    rows.  ``run(node, demand)`` asks for chunks until ``demand`` rows
    are materialised (``None`` drains the node) and returns the node's
    live :class:`_Stream`.
    """

    def __init__(self, ctx: ExecContext) -> None:
        self.ctx = ctx
        # Keyed by the node itself (identity hash): the memo then also
        # keeps every executed node alive, so a recycled object id can
        # never alias a dead node's cached stream.
        self._memo: Dict[FedOp, _Stream] = {}

    def stream(self, node: FedOp) -> _Stream:
        cached = self._memo.get(node)
        if cached is None:
            ctx = self.ctx
            if ctx.analyze and node.actuals is None:
                # The adaptive planner grows the tree mid-execution, so
                # actual-counter dicts attach lazily at first pull.
                node.actuals = {}
            gen = node._stream(ctx, self)
            if node.actuals is not None:
                gen = _observed(node, gen)
            cached = _Stream(gen, node.schema)
            self._memo[node] = cached
        return cached

    def run(self, node: FedOp, demand: Optional[int] = None) -> _Stream:
        stream = self.stream(node)
        stream.pull(demand)
        return stream

    def chunks(self, node: FedOp) -> Iterator[Batch]:
        """``node``'s output batch by batch, each pulled only when the
        consumer asks for it (nothing starts before the first ask)."""
        for batch, _ in _chunks_of(self.stream(node)):
            yield batch

    def count(self, node: FedOp, demand: Optional[int] = None) -> int:
        """Rows of ``node`` a consumer capped at ``demand`` would hold:
        what the planners feed the cost model.  Chunks land whole, so
        the materialised prefix may run past the cap."""
        available = len(self.run(node, demand))
        return available if demand is None else min(available, demand)


def explain_fed_plan(root: FedOp) -> str:
    """Render one plan tree deterministically (one line per operator)."""
    return "\n".join(root.explain())


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Unit:
    """One step of the incremental planner: a single conjunct or a FedX
    exclusive group (every conjunct owned by one endpoint, fused so the
    join runs endpoint-side in one round trip)."""

    index: int
    patterns: Tuple[TriplePattern, ...]
    endpoints: Tuple[PeerEndpoint, ...]

    @property
    def exclusive(self) -> bool:
        # Only exclusive groups hold more than one conjunct.
        return len(self.patterns) > 1

    def variables(self) -> FrozenSet[Variable]:
        out: Set[Variable] = set()
        for tp in self.patterns:
            out.update(tp.variables())
        return frozenset(out)


class FederatedPlanner:
    """Builds federated operator plans from the cost model's decisions.

    ``host`` is the owning :class:`~repro.federation.executor.
    FederatedExecutor` — the planner reads its endpoints, cost model,
    statistics catalog and batch size, so every strategy is a
    plan-construction policy over the same operator vocabulary.
    """

    def __init__(self, host) -> None:
        self.host = host

    # -- shared pruning --------------------------------------------------

    def _active(
        self,
        endpoints: Sequence[PeerEndpoint],
        stats_now: Sequence[EndpointStats],
        ctx: ExecContext,
        operation: str,
    ) -> Tuple[PeerEndpoint, ...]:
        """Endpoints a ship/bound action actually contacts.

        Endpoints marked down (primary and every replica exhausted) are
        routed around — no further charges — and recorded as dropped
        contributions on ``ctx`` so the partial answer names them.
        With live statistics an exact zero count prunes the endpoint;
        stale statistics must contact every relevant endpoint (a stale
        zero may hide fresh matches — correctness never depends on the
        catalog's age).
        """
        up: List[Tuple[PeerEndpoint, EndpointStats]] = []
        for ep, stat in zip(endpoints, stats_now):
            if stat.down:
                ctx.record_unreachable(ep.name, operation)
                continue
            up.append((ep, stat))
        if not self.host.catalog.live:
            return tuple(ep for ep, _ in up)
        return tuple(ep for ep, stat in up if stat.pattern_count > 0)

    # -- static plan shapes: the fixed baselines -------------------------

    def plan_naive(
        self,
        patterns: Sequence[TriplePattern],
        filters: List[CompiledFilter],
    ) -> Tuple[FedOp, List[CompiledFilter]]:
        """Per-pattern shipping: every pattern to every peer, join local.

        Naive ships unconditionally — every scan runs even when an
        earlier join already emptied the intermediate result.
        """
        remaining = list(filters)
        scans: List[RemoteScan] = []
        for tp in patterns:
            push, remaining = split_filters(remaining, set(tp.variables()))
            scans.append(
                RemoteScan(
                    (tp,),
                    tuple(self.host.endpoints),
                    pushed=tuple(push),
                )
            )
        root: FedOp = scans[0]
        bound: Set[Variable] = set(patterns[0].variables())
        ready, remaining = split_filters(remaining, bound)
        if ready:
            root = FilterNode(root, ready)
        for tp, scan in zip(patterns[1:], scans[1:]):
            root = LocalHashJoin(root, scan)
            bound.update(tp.variables())
            ready, remaining = split_filters(remaining, bound)
            if ready:
                root = FilterNode(root, ready)
        return root, remaining

    def plan_local(
        self,
        patterns: Sequence[TriplePattern],
        filters: List[CompiledFilter],
    ) -> Tuple[FedOp, List[CompiledFilter]]:
        """The collect baseline: every conjunct, in the order given,
        answered from the databases the dumps already paid for — a
        :class:`PullScan` with nothing left to pull."""
        remaining = list(filters)
        root: FedOp = InputNode()
        bound: Set[Variable] = set()
        for tp in patterns:
            root = PullScan(root, tp, ())
            bound.update(tp.variables())
            ready, remaining = split_filters(remaining, bound)
            if ready:
                root = FilterNode(root, ready)
        return root, remaining

    def plan_bound(
        self,
        patterns: Sequence[TriplePattern],
        filters: List[CompiledFilter],
    ) -> Tuple[FedOp, List[CompiledFilter]]:
        """FedX-style bound joins over the greedy conjunct order."""
        remaining = list(filters)
        root: Optional[FedOp] = None
        bound: Set[Variable] = set()
        for position, tp in enumerate(self.host._order_conjuncts(patterns)):
            relevant = tuple(self.host._relevant(tp))
            # At position 0 ``bound`` is empty, so the sub-query scope is
            # just the pattern's own variables; later it includes every
            # coordinator-bound variable the batch carries along.
            scope = bound | tp.variables()
            push, remaining = split_filters(remaining, scope)
            if position == 0:
                root = RemoteScan((tp,), relevant, pushed=tuple(push))
            else:
                root = BoundJoinStream(
                    root,
                    (tp,),
                    relevant,
                    batch_size=self.host.batch_size,
                    pushed=tuple(push),
                )
            bound.update(tp.variables())
            ready, remaining = split_filters(remaining, bound)
            if ready:
                root = FilterNode(root, ready)
        assert root is not None
        return root, remaining

    # -- incremental construction: the cost-model-driven strategies ------

    def exclusive_units(
        self, patterns: Sequence[TriplePattern]
    ) -> List[_Unit]:
        """Partition a branch into exclusive groups and plain units.

        Conjuncts whose schema-based source selection names exactly one
        endpoint are grouped by that endpoint; owners with two or more
        such conjuncts yield one fused group unit (FedX exclusive
        group).  Everything else stays a single-pattern unit.  Units
        keep branch order via their first pattern's index.
        """
        relevant = [tuple(self.host._relevant(tp)) for tp in patterns]
        owners: Dict[str, List[int]] = {}
        for i, endpoints in enumerate(relevant):
            if len(endpoints) == 1:
                owners.setdefault(endpoints[0].name, []).append(i)
        fused: Set[int] = set()
        units: List[_Unit] = []
        for name in sorted(owners):
            indices = owners[name]
            if len(indices) < 2:
                continue
            units.append(
                _Unit(
                    min(indices),
                    tuple(patterns[i] for i in indices),
                    relevant[indices[0]],
                )
            )
            fused.update(indices)
        for i, tp in enumerate(patterns):
            if i not in fused:
                units.append(_Unit(i, (tp,), relevant[i]))
        units.sort(key=lambda unit: unit.index)
        return units

    def _unit_counts(
        self, unit: _Unit
    ) -> List[Tuple[PeerEndpoint, int, int]]:
        """Catalog cardinalities for one unit, read once per execution.

        A group's result cardinality is estimated from its most
        selective member (pulling is not offered for groups, so the
        relation count is zero).
        """
        catalog = self.host.catalog
        counts: List[Tuple[PeerEndpoint, int, int]] = []
        for ep in unit.endpoints:
            if unit.exclusive:
                pattern_count = min(
                    catalog.pattern_count(ep, tp) for tp in unit.patterns
                )
                relation_count = 0
            else:
                tp = unit.patterns[0]
                pattern_count = catalog.pattern_count(ep, tp)
                relation_count = catalog.relation_count(ep, tp)
            counts.append((ep, pattern_count, relation_count))
        return counts

    def run_incremental(
        self,
        interp: PlanInterpreter,
        patterns: Sequence[TriplePattern],
        filters: List[CompiledFilter],
        decisions: List[Decision],
        branch_index: int,
        parallel: bool,
        label: str = "",
        demand: Optional[int] = None,
    ) -> Tuple[FedOp, List[CompiledFilter]]:
        """Build and run a plan one cost-model decision at a time.

        Each step picks the cheapest remaining unit by estimated
        result size, asks the cost model to price ship/bound/pull from
        the endpoint cardinalities and the *actual* intermediate
        binding count (the memoised interpreter makes re-running the
        extended root free), then appends the chosen operator.

        ``parallel`` is the only difference between the two strategies
        that build plans this way: ``parallel`` fuses exclusive groups
        (:meth:`exclusive_units`) and prices decisions in makespan
        seconds; ``adaptive`` keeps every conjunct its own unit and
        prices in busy seconds.

        ``demand`` caps how many rows each step materialises — a
        LIMIT-bearing query plans against (at most) the rows it can
        ever emit; the streams stay resumable, so a downstream consumer
        needing more simply pulls deeper.
        """
        host = self.host
        prefix = label or f"b{branch_index}"
        remaining_filters = list(filters)
        if parallel:
            remaining = self.exclusive_units(patterns)
        else:
            remaining = [
                _Unit(i, (tp,), tuple(host._relevant(tp)))
                for i, tp in enumerate(patterns)
            ]
        counts = {unit.index: self._unit_counts(unit) for unit in remaining}
        root: FedOp = InputNode()
        count = interp.count(root, demand)
        bound: FrozenSet[Variable] = frozenset()
        # Counts are read once above; only the `cached` flags can change
        # — and only after a pull, which clears this memo wholesale.
        stats_memo: Dict[int, List[EndpointStats]] = {}

        def unit_stats(unit: _Unit) -> List[EndpointStats]:
            memoised = stats_memo.get(unit.index)
            if memoised is None:
                tp = unit.patterns[0]
                cache = interp.ctx.cache
                memoised = stats_memo[unit.index] = [
                    EndpointStats(
                        ep.name,
                        pc,
                        rc,
                        # A fused group is never pulled, so never cached.
                        not unit.exclusive
                        and cache.has(ep.name, ep.relation_key(tp)),
                    )
                    for ep, pc, rc in counts[unit.index]
                ]
            # Down flags are applied fresh on top of the memo: they can
            # flip mid-execution as retry budgets exhaust.
            session = interp.ctx.faults
            if session is None:
                return memoised
            return [
                replace(stat, down=session.unreachable(ep))
                for stat, ep in zip(memoised, unit.endpoints)
            ]

        def order_key(unit: _Unit):
            if unit.exclusive:
                estimate, free = host.cost_model.order_estimate_group(
                    unit_stats(unit), bound, unit.patterns
                )
            else:
                estimate, free = host.cost_model.order_estimate(
                    unit_stats(unit), bound, unit.patterns[0]
                )
            return (estimate, free, unit.index)

        while remaining:
            best = min(remaining, key=order_key)
            remaining.remove(best)
            stats_now = unit_stats(best)
            unit_vars = best.variables()
            bound_after = bound | unit_vars
            ship_filters = sum(
                1 for f in remaining_filters if f.variables <= unit_vars
            )
            bound_filters = sum(
                1 for f in remaining_filters if f.variables <= bound_after
            )
            if best.exclusive:
                decision = host.cost_model.decide_group(
                    best.patterns,
                    stats_now,
                    count,
                    group_bound_positions(best.patterns, bound),
                    branch_index,
                    ship_filters=ship_filters,
                    bound_filters=bound_filters,
                    parallel=parallel,
                )
            else:
                decision = host.cost_model.decide(
                    best.patterns[0],
                    stats_now,
                    count,
                    bound_variable_positions(best.patterns[0], bound),
                    branch_index,
                    ship_filters=ship_filters,
                    bound_filters=bound_filters,
                    parallel=parallel,
                )
            decisions.append(decision)
            targets = self._active(
                best.endpoints,
                stats_now,
                interp.ctx,
                " ".join(tp.n3() for tp in best.patterns),
            )
            if decision.action == "ship":
                push, remaining_filters = split_filters(
                    remaining_filters, set(unit_vars)
                )
                if best.exclusive:
                    scan_cls = ExclusiveGroupScan
                else:
                    scan_cls = RemoteScan
                scan = scan_cls(
                    best.patterns,
                    targets,
                    pushed=tuple(push),
                    decision=decision,
                    after=root,
                    label=f"{prefix} ship",
                )
                root = LocalHashJoin(root, scan)
            elif decision.action == "bound":
                push, remaining_filters = split_filters(
                    remaining_filters, set(bound_after)
                )
                root = BoundJoinStream(
                    root,
                    best.patterns,
                    targets,
                    batch_size=host.batch_size,
                    pushed=tuple(push),
                    decision=decision,
                    label=f"{prefix} bound",
                )
            else:  # pull / local: answer from the relation cache
                if decision.action == "pull":
                    pull_from = tuple(best.endpoints)
                else:
                    pull_from = ()
                root = PullScan(
                    root,
                    best.patterns[0],
                    pull_from,
                    decision=decision,
                    label=f"{prefix} pull",
                )
            count = interp.count(root, demand)
            if decision.action == "pull":
                stats_memo.clear()  # cached flags changed
            bound = bound_after
            ready, remaining_filters = split_filters(
                remaining_filters, set(bound)
            )
            if ready:
                root = FilterNode(root, ready)
                count = interp.count(root, demand)
            if not count:
                break
        return root, remaining_filters
