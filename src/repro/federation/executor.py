"""Distributed SPARQL execution over an RPS.

Implements the execution-strategy half of the paper's prototype sketch:
a query — a :class:`~repro.gpq.query.GraphPatternQuery`, or SPARQL text
in the BGP + UNION + FILTER + OPTIONAL fragment — is answered from the
*stored databases* of the peers, with every simulated network exchange
charged to a :class:`~repro.federation.network.NetworkModel`.

Queries are normalised (:func:`repro.sparql.bridge.sparql_to_branches`)
into a union of conjunctive branches (each optionally carrying
``OPTIONAL`` left-join blocks).  UNION branches become independent
per-endpoint sub-query pipelines; FILTER expressions are compiled once
by the batch engine's FILTER compiler
(:func:`repro.sparql.batch.compile_mask`) and pushed into the deepest
sub-query where they are decidable, so rejected rows never travel.

Execution itself lives in the physical-operator layer
(:mod:`repro.federation.plan`): each strategy is a *plan-construction
policy* over the same streaming operators (``RemoteScan``,
``BoundJoinStream``, ``ExclusiveGroupScan``, ``PullScan``,
``LocalHashJoin``, ``LeftJoin``, ``Filter``, ``Union``), which produce
solutions, and one memoised interpreter walks the plan, recording
every request on the discrete-event scheduler, whose replay is the
makespan.  ``parallel`` overlaps its requests; every other strategy
records on a serial tenant, one request at a time.  Five strategies,
chosen per call:

``adaptive`` (default)
    Per-conjunct decisions from the cost model
    (:class:`~repro.federation.cost.CostModel`): each conjunct is
    *shipped* unbound, *bound-joined* against the current bindings, or
    its source relation is *pulled* (one charged transfer, after which
    the coordinator reads the peer's relation for free), whichever the
    endpoint cardinalities and the actual intermediate binding count
    (cardinality feedback) price cheapest, in *busy* seconds.  The plan
    tree grows one decision at a time.

``parallel``
    The same incremental loop as ``adaptive``
    (:meth:`~repro.federation.plan.FederatedPlanner.run_incremental`),
    with the two differences the strategy name selects: decisions are
    priced in *makespan* seconds, and conjuncts relevant to exactly one
    endpoint fuse into FedX-style *exclusive groups*.  A solo query
    runs on the runtime interpreter: per-endpoint sub-queries,
    bound-join batches and UNION branches fan out onto per-endpoint
    channels.  Bound joins are **pipelined**: each batch's sub-query
    is emitted as soon as the batch fills, depending only on the
    upstream requests that produced its rows.
    ``NetworkStats.elapsed_seconds`` is then below the serial total
    ``busy_seconds``.

``naive``
    Per-pattern shipping: every triple pattern is sent, unbound, to
    every peer; all matching solutions travel back and the join runs
    entirely at the caller.

``bound``
    FedX-style bound joins.  Source selection is schema-based and free,
    patterns are ordered by a (free-variables, relevant-sources)
    heuristic, and after the first pattern each subsequent one is sent
    *bound* by batches of the current partial solutions.

``collect``
    The centralised baseline: dump every peer's database (one transfer
    each, recorded in the relation cache), then run the plan whose
    every conjunct reads the dumped databases — the same operators, no
    further traffic.

The solution modifiers finish the plan root as the local engine
finishes its batch plan, with the same two functions: an unordered
``LIMIT``/``OFFSET`` is :func:`~repro.sparql.batch.batch_slice` over
the root's chunk stream — the query's demand cap also bounds planning,
and the slice stops pulling, so upstream operators stop issuing
sub-queries once the window is full — and ``ASK`` is the same slice
with ``LIMIT 1`` (the first surviving row short-circuits the whole
pipeline).  ``ORDER BY`` is :func:`~repro.sparql.batch.batch_top_k`
over the drained root's full solutions (a non-projected sort variable
is fine).  An unmodified answer is the drained root, projected and
deduplicated as it is decoded.

All strategies compute the same answer set — the projection of the
query over the union of the peer databases, equal to the single-graph
planner's — which the tests assert.  (For an
*unordered* ``LIMIT``/``OFFSET`` the answer is any legal subset of the
right cardinality; strategies may pick different rows.)  Joining
happens on dictionary IDs, which requires all peer graphs to share one
term dictionary (the library default); a mixed system raises
:class:`~repro.errors.FederationError`.

**Fault tolerance (PR 7).**  An executor built with a ``fault_model``
(:class:`~repro.federation.faults.FaultModel`) injects deterministic
failures into every endpoint contact: each :meth:`execute` draws a
fresh per-execution :class:`~repro.federation.faults.FaultSession`, so
repeated runs — and the strategies of one
:meth:`run_all_strategies` comparison — see identical fault schedules.
Recovery (retry with exponential backoff per the ``retry_policy``,
failover to configured ``replicas``) is priced through the network
model and the event kernel.  When an endpoint and all its replicas
exhaust their budgets the execution *degrades*: the
endpoint's contribution is dropped and the result carries a
:class:`~repro.federation.faults.PartialAnswer` naming every dropped
contribution — full answers when faults are recoverable, flagged
partial answers otherwise, never a silently wrong answer set.
:meth:`run_all_strategies` exempts flagged partial results from its
agreement check (different request sequences can exhaust different
endpoints).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import (
    EndpointUnavailableError,
    FederationError,
    SimulationError,
)
from repro.federation.bindings import CompiledFilter
from repro.federation.cost import CostModel, Decision
from repro.federation.endpoint import PeerEndpoint
from repro.federation.faults import (
    FaultModel,
    FaultSession,
    PartialAnswer,
    RetryPolicy,
    Unreachable,
)
from repro.federation.network import NetworkModel, NetworkStats
from repro.federation.plan import (
    ExecContext,
    FederatedPlanner,
    FedOp,
    FilterNode,
    InputNode,
    LeftJoinNode,
    PlanInterpreter,
    RelationCache,
    UnionNode,
    explain_fed_plan,
    issue_request,
)
from repro.federation.statistics import StatisticsCatalog
from repro.gpq.query import GraphPatternQuery
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.rdf.graph import Graph
from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import Term, Variable
from repro.rdf.triples import TriplePattern
from repro.peers.system import RPS
from repro.runtime.channel import ChannelStats
from repro.runtime.control import (
    AimdController,
    AimdSettings,
    WindowAdjustment,
)
from repro.runtime.scheduler import DEFAULT_CONCURRENCY, QueryScheduler
from repro.sparql.ast import AskQuery, FilterExpr, OrderCondition, SelectQuery
from repro.sparql.batch import (
    Batch,
    batch_slice,
    batch_top_k,
    column_rows,
    compile_mask,
)
from repro.sparql.bridge import ConjunctiveBranch, sparql_to_branches
from repro.sparql.cache import PlanCache, nsm_fingerprint
from repro.sparql.parser import parse_query

__all__ = [
    "ADAPTIVE",
    "FIXED_STRATEGIES",
    "PARALLEL",
    "STRATEGIES",
    "ConcurrentResult",
    "FederatedExecutor",
    "FederationResult",
    "PreparedQuery",
    "TenantOutcome",
    "execute_federated",
]

_Query = Union[str, GraphPatternQuery, SelectQuery, AskQuery]

#: An answer at the result boundary: parallel ID columns over the query
#: head, ``None`` for an unbound cell.
_IDColumns = Sequence[Sequence[Optional[int]]]

#: The adaptive (cost-model-driven) strategy name.
ADAPTIVE = "adaptive"

#: The overlap-aware parallel strategy name (adaptive decisions priced
#: in makespan, executed on the discrete-event runtime with exclusive
#: groups and pipelined bound joins).
PARALLEL = "parallel"

#: The three fixed baselines kept for comparison.
FIXED_STRATEGIES: Tuple[str, ...] = ("naive", "bound", "collect")

#: Strategy names accepted by :meth:`FederatedExecutor.execute`.
STRATEGIES: Tuple[str, ...] = (ADAPTIVE, PARALLEL) + FIXED_STRATEGIES

#: Default bound-join batch size (FedX ships 15-20 bindings per request;
#: a larger block keeps message counts low on the federated workloads while
#: still exercising multi-batch paths at scale).
DEFAULT_BATCH_SIZE = 64


@dataclass(frozen=True)
class PreparedOptional:
    """One OPTIONAL block with its filters compiled to column masks."""

    branches: Tuple[Tuple[Tuple[TriplePattern, ...],
                          Tuple[CompiledFilter, ...]], ...]
    condition: Optional[Callable[[Batch], List[bool]]] = None


@dataclass(frozen=True)
class PreparedBranch:
    """One conjunctive branch with compiled filters and optionals."""

    patterns: Tuple[TriplePattern, ...]
    filters: Tuple[CompiledFilter, ...]
    optionals: Tuple[PreparedOptional, ...] = ()


@dataclass(frozen=True)
class PreparedQuery:
    """A query normalised and filter-compiled exactly once.

    :meth:`FederatedExecutor.prepare` produces one; every strategy of a
    :meth:`FederatedExecutor.run_all_strategies` comparison then reuses
    it, so the four strategies don't each re-run
    :func:`~repro.sparql.bridge.sparql_to_branches` and filter
    compilation on the same query text.

    Solution modifiers ride along: ``order``/``limit``/``offset`` are
    read off the AST (the branches describe the WHERE clause only) and
    ``ask`` marks an ASK query, executed federally as ``LIMIT 1`` over
    the empty projection.
    """

    head: Tuple[Variable, ...]
    branches: Tuple[PreparedBranch, ...]
    order: Tuple[OrderCondition, ...] = ()
    limit: Optional[int] = None
    offset: int = 0
    ask: bool = False


@dataclass
class FederationResult:
    """Outcome of one federated execution.

    Attributes:
        strategy: which strategy produced it.
        rows: the answer set (projected rows; a cell is ``None`` when a
            branch leaves the head variable unbound — UNION branches
            with unequal domains and unmatched OPTIONAL extensions).
        stats: accumulated network statistics for this execution only.
        decisions: the cost model's per-conjunct decisions (adaptive
            and parallel strategies only) — the ``explain`` trace
            material.
        channels: per-endpoint service statistics of the runtime replay
            (one lane at a time under every strategy but ``parallel``).
        plans: the executed operator tree, one root per execution:
            the branch's root, or the ``Union`` over the branches
            (empty for the collect baseline, which has no federated
            plan).
        partial: ``None`` for a complete answer; a
            :class:`~repro.federation.faults.PartialAnswer` naming
            every dropped contribution when the execution degraded
            (an endpoint and all its replicas exhausted their retry
            budgets).
    """

    strategy: str
    rows: Set[Tuple[Optional[Term], ...]]
    stats: NetworkStats
    decisions: Tuple[Decision, ...] = ()
    channels: Dict[str, ChannelStats] = dataclass_field(default_factory=dict)
    plans: Tuple[FedOp, ...] = ()
    partial: Optional[PartialAnswer] = None

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class TenantOutcome:
    """One tenant's slice of a multi-tenant execution.

    Attributes:
        tenant: the tenant name.
        result: the tenant's :class:`FederationResult`; its
            ``stats.elapsed_seconds`` is the tenant's completion time
            on the *shared* clock (admission wait included) and its
            ``channels`` are the tenant's share of each contended
            channel's statistics.
        makespan: the tenant's completion time in simulated seconds.
        admission_wait: seconds the query waited for an active slot
            under the ``max_active`` admission cap.
    """

    tenant: str
    result: FederationResult
    makespan: float
    admission_wait: float


@dataclass
class ConcurrentResult:
    """Outcome of one multi-tenant concurrent execution.

    Attributes:
        outcomes: per-tenant outcomes in registration (admission)
            order.
        makespan: completion time of the last tenant — the batch's
            overall elapsed simulated seconds.
        channels: per-endpoint aggregate service statistics under
            contention.
        discipline: the backlog admission policy that ran
            (``"fifo"``/``"wrr"``).
        max_active: the admission cap (``None`` = unlimited).
        active_peak: maximum concurrently active queries observed.
        batch_size: the bound-join batch size of the final planning
            round (the adaptive controller may have retuned it).
        adjustments: every AIMD window adjustment of the final round,
            in virtual-clock order (empty without a controller).
        rounds: planning rounds executed (1 unless adaptive control
            re-planned).
    """

    outcomes: Tuple[TenantOutcome, ...]
    makespan: float
    channels: Dict[str, ChannelStats]
    discipline: str
    max_active: Optional[int] = None
    active_peak: int = 0
    batch_size: int = 0
    adjustments: Tuple[WindowAdjustment, ...] = ()
    rounds: int = 1

    def __len__(self) -> int:
        return len(self.outcomes)

    def tenant(self, name: str) -> TenantOutcome:
        """Look one tenant's outcome up by name."""
        for outcome in self.outcomes:
            if outcome.tenant == name:
                return outcome
        raise FederationError(f"unknown tenant {name!r}")

    def makespans(self) -> Tuple[float, ...]:
        """Per-tenant completion times in registration order."""
        return tuple(outcome.makespan for outcome in self.outcomes)

    def p95_makespan(self) -> float:
        """95th-percentile per-tenant completion time (nearest-rank)."""
        spans = sorted(self.makespans())
        if not spans:
            return 0.0
        rank = -(-len(spans) * 95 // 100)  # ceil(0.95 n), nearest-rank
        return spans[max(0, rank - 1)]

    def throughput(self) -> float:
        """Completed queries per simulated second."""
        if self.makespan <= 0.0:
            return 0.0
        return len(self.outcomes) / self.makespan

    def fairness_ratio(self) -> float:
        """Max/min per-tenant makespan — 1.0 is perfectly fair."""
        spans = [span for span in self.makespans() if span > 0.0]
        if not spans:
            return 1.0
        return max(spans) / min(spans)

    def metrics(self) -> MetricsRegistry:
        """Channel, admission and controller counters as a registry.

        Mirrors :meth:`FederatedExecutor.metrics` for the concurrent
        path: per-channel service/admission counters, the admission
        cap's observed peak, and the AIMD controller's adjustment
        counts, all behind one
        :class:`~repro.obs.metrics.MetricsRegistry` whose ``render()``
        is the export format.
        """
        registry = MetricsRegistry()
        registry.set("admission.active_peak", self.active_peak)
        registry.set(
            "admission.max_active",
            self.max_active if self.max_active is not None else 0,
        )
        registry.set("admission.queries", len(self.outcomes))
        registry.set("controller.adjustments", len(self.adjustments))
        registry.set(
            "controller.decreases",
            sum(1 for adj in self.adjustments if adj.congested),
        )
        registry.set("controller.rounds", self.rounds)
        registry.set("controller.batch_size", self.batch_size)
        for name, stats in sorted(self.channels.items()):
            prefix = f"channel.{name}"
            registry.counter(f"{prefix}.completed").inc(stats.completed)
            registry.counter(f"{prefix}.admitted").inc(stats.admitted)
            registry.counter(f"{prefix}.failed").inc(stats.failed)
            registry.set(f"{prefix}.peak_in_flight", stats.peak_in_flight)
            registry.set(f"{prefix}.peak_backlog", stats.peak_backlog)
            registry.observe(
                f"{prefix}.queueing_delay",
                stats.queueing_delay(),
                bounds=(0.01, 0.1, 1.0, 10.0),
            )
        return registry


class FederatedExecutor:
    """Runs queries over the peers of one RPS.

    Args:
        system: the peer system; each peer's graph becomes an endpoint.
        network: the cost model (defaults to WAN-ish parameters).
        batch_size: bound-join batch size (bindings per message).
        concurrency: per-endpoint channel concurrency of the parallel
            mode's runtime (also assumed by its makespan pricing).
        max_in_flight: per-endpoint outstanding-request window of the
            parallel runtime (``None`` = unbounded).
        stats_ttl: cardinality-statistics lifetime in executions;
            ``None`` (default) reads live statistics for free, any
            integer activates the TTL catalog whose refreshes are
            charged as real messages
            (:class:`~repro.federation.statistics.StatisticsCatalog`).
        fault_model: deterministic fault injection configuration
            (:class:`~repro.federation.faults.FaultModel`); ``None``
            (default) keeps the request path byte-identical to the
            fault-free engine.
        retry_policy: retry/backoff/timeout parameters used when a
            fault model is attached (defaults to
            :class:`~repro.federation.faults.RetryPolicy`'s).
        replicas: replica count per endpoint name (``{"peer1": 2}``);
            replica ``i`` of ``name`` is an endpoint ``"name.r{i+1}"``
            over the same graph, contacted in order when the primary
            exhausts its retry budget.

    Raises:
        FederationError: if the peer graphs do not share one term
            dictionary (ID-level joins would be meaningless), the
            system has no peers, or ``replicas`` names an unknown
            endpoint.
    """

    def __init__(
        self,
        system: RPS,
        network: Optional[NetworkModel] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        concurrency: int = DEFAULT_CONCURRENCY,
        max_in_flight: Optional[int] = None,
        stats_ttl: Optional[int] = None,
        fault_model: Optional[FaultModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        replicas: Optional[Dict[str, int]] = None,
    ) -> None:
        if not system.peers:
            raise FederationError("cannot federate over an empty peer system")
        if batch_size < 1:
            raise FederationError(f"batch_size must be >= 1, got {batch_size}")
        if concurrency < 1:
            raise FederationError(
                f"concurrency must be >= 1, got {concurrency}"
            )
        if max_in_flight is not None and max_in_flight < concurrency:
            raise FederationError(
                f"max_in_flight ({max_in_flight}) must be >= concurrency "
                f"({concurrency}); a smaller window wastes service lanes"
            )
        self.system = system
        self.network = network if network is not None else NetworkModel()
        self.batch_size = batch_size
        self.concurrency = concurrency
        self.max_in_flight = max_in_flight
        self.fault_model = fault_model
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        names = system.peer_names()
        replica_map = dict(replicas or {})
        unknown = sorted(set(replica_map) - set(names))
        if unknown:
            raise FederationError(
                f"replicas configured for unknown endpoint(s): {unknown}"
            )
        for name, count in replica_map.items():
            if count < 0:
                raise FederationError(
                    f"replica count must be >= 0 for {name!r}, got {count}"
                )
        self.endpoints: List[PeerEndpoint] = [
            PeerEndpoint(
                name,
                system.peers[name].graph,
                replicas=tuple(
                    PeerEndpoint(f"{name}.r{i + 1}", system.peers[name].graph)
                    for i in range(replica_map.get(name, 0))
                ),
            )
            for name in names
        ]
        dictionaries = {id(ep.graph.dictionary) for ep in self.endpoints}
        if len(dictionaries) > 1:
            raise FederationError(
                "federated execution joins on term-dictionary IDs; all peer "
                "graphs must share one dictionary"
            )
        self.dictionary = self.endpoints[0].graph.dictionary
        self.cost_model = CostModel(
            self.network, batch_size, concurrency=concurrency
        )
        self.catalog = StatisticsCatalog(self.network, stats_ttl)
        self.planner = FederatedPlanner(self)
        #: Cross-query LRU of :class:`PreparedQuery` values keyed on
        #: (text, namespace fingerprint, statistics epoch, dictionary
        #: size) — repeated traffic skips normalisation and filter
        #: compilation; a statistics refresh (or explicit
        #: ``catalog.invalidate_plans()``) strands stale entries by
        #: changing the key.
        self.plan_cache = PlanCache(capacity=128)

    # -- public API -----------------------------------------------------

    def prepare(
        self, query: _Query, nsm: Optional[NamespaceManager] = None
    ) -> PreparedQuery:
        """Normalise a query and compile its filters, once.

        The result can be passed to :meth:`execute` in place of the
        query, skipping repeated :func:`sparql_to_branches` runs and
        filter compilation — :meth:`run_all_strategies` does exactly
        that for its four executions.

        Text queries additionally go through the executor's
        cross-query :attr:`plan_cache`: identical traffic pays for
        parse, normalisation and filter compilation once per
        statistics epoch.  The dictionary size rides in the key
        because compiled filters capture term IDs — interning a
        previously-unknown constant must invalidate.
        """
        key = None
        if isinstance(query, str):
            key = (
                query,
                nsm_fingerprint(nsm),
                self.catalog.statistics_epoch,
                len(self.dictionary),
            )
            cached = self.plan_cache.get(key)
            if cached is not None:
                return cached
        head, branches, order, limit, offset, ask = self._normalize(query, nsm)
        sentinels: Dict[Term, int] = {}
        prepared = tuple(
            self._compile_branch(branch, sentinels) for branch in branches
        )
        result = PreparedQuery(head, prepared, order, limit, offset, ask)
        if key is not None:
            self.plan_cache.put(key, result)
        return result

    def execute(
        self,
        query: Union[_Query, PreparedQuery],
        strategy: str = ADAPTIVE,
        nsm: Optional[NamespaceManager] = None,
        tracer=NULL_TRACER,
        analyze: bool = False,
    ) -> FederationResult:
        """Run one (possibly pre-:meth:`prepare`-d) query under the
        given strategy.

        Every strategy records onto a one-tenant
        :class:`~repro.runtime.scheduler.QueryScheduler` and reads its
        makespan from the replay.  Under ``parallel`` the tenant
        overlaps its requests; under every other strategy it is serial
        (:meth:`~repro.runtime.scheduler.QueryScheduler.tenant`), so
        ``elapsed_seconds`` is ``busy_seconds`` plus backoff waits.

        ``tracer`` collects structured spans: one wall span around the
        whole execution and the replay's virtual spans — per channel,
        per request (failed attempts included) and per backoff wait.
        ``analyze`` attaches actual-counter dicts to every executed
        operator — the material :meth:`explain` renders with
        ``analyze=True``.
        """
        if strategy not in STRATEGIES:
            raise FederationError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        with tracer.span(f"execute:{strategy}"):
            if not isinstance(query, PreparedQuery):
                query = self.prepare(query, nsm)
            # A solo query is a one-tenant run, serial unless parallel.
            scheduler = QueryScheduler(self.concurrency, self.max_in_flight)
            (result,) = self._run_round(
                [("", query)],
                strategy,
                scheduler,
                serial=strategy != PARALLEL,
                analyze=analyze,
            )
            # Aggregate, not the tenant's share: only the aggregate
            # records the coordinator-side peak backlog.
            result.channels = scheduler.channel_stats()
            if tracer.enabled:
                _emit_runtime_spans(tracer, scheduler)
            if strategy == "collect":
                result.plans = ()  # the baseline has no federated plan
            return result

    def _run_round(
        self,
        tenants: Sequence[Tuple[str, PreparedQuery]],
        strategy: str,
        scheduler: QueryScheduler,
        weights: Optional[Mapping[str, int]] = None,
        batch_size: Optional[int] = None,
        term_of: Optional[Dict[Optional[int], Optional[Term]]] = None,
        serial: bool = False,
        analyze: bool = False,
    ) -> List[FederationResult]:
        """Record N >= 1 tenants, replay them once, return their results.

        The one execution path of :meth:`execute` (one tenant, serial
        unless ``parallel``) and of each :meth:`execute_concurrent`
        round.  Every tenant records in order, with its own statistics
        and a fresh fault session, onto its recorder of ``scheduler``
        (a ``serial`` one: one request at a time); the replayed tenant
        makespan then lands on top of any planning-time charges
        (statistics refreshes) in ``elapsed_seconds``.
        """
        weights = weights or {}
        term_of = {None: None} if term_of is None else term_of
        recorded = []
        for name, prepared in tenants:
            recorder = scheduler.tenant(name, weights.get(name, 1), serial)
            stats = NetworkStats()
            self.catalog.begin_execution(stats)
            # A fresh session per tenant per run: every run (and every
            # strategy of a run_all_strategies comparison, every round)
            # sees the same fault schedule.
            session: Optional[FaultSession] = (
                self.fault_model.session()
                if self.fault_model is not None
                else None
            )
            decisions: List[Decision] = []
            recording = self._record(
                prepared,
                strategy,
                stats,
                recorder,
                session,
                decisions,
                analyze=analyze,
                batch_size=batch_size,
            )
            recorded.append((name, stats, decisions, recording))
        results = []
        for name, stats, decisions, recording in recorded:
            columns, n, root, unreachable = recording
            stats.elapsed_seconds += scheduler.tenant_makespan(name)
            # A dropped contribution flags the answer as partial.
            partial = None
            if unreachable:
                partial = PartialAnswer(tuple(unreachable))
            results.append(
                FederationResult(
                    strategy,
                    self._decode_rows(columns, n, term_of),
                    stats,
                    tuple(decisions),
                    scheduler.tenant_channel_stats(name),
                    (root,),
                    partial=partial,
                )
            )
        return results

    def _decode_rows(
        self,
        columns: _IDColumns,
        n: int,
        term_of: Dict[Optional[int], Optional[Term]],
    ) -> Set[Tuple[Optional[Term], ...]]:
        """``n`` answer rows, as parallel ID columns over the query head
        (``None`` unbound), decoded into the set of term rows.

        The set is the answer's only DISTINCT: an unmodified query's
        columns are the plan's drained output, duplicates included.
        ``term_of`` (start it as ``{None: None}``) memoises decoded
        IDs, so each distinct ID decodes once — across every result
        that shares the memo — and the columns map their cells in C;
        term rows are the only row tuples built here.
        """
        decode = self.dictionary.decode
        for tid in set().union(*columns):
            if tid not in term_of:
                term_of[tid] = decode(tid)
        decoded = [list(map(term_of.__getitem__, col)) for col in columns]
        return set(column_rows(decoded, n))

    def _record(
        self,
        prepared: PreparedQuery,
        strategy: str,
        stats: NetworkStats,
        scheduler,
        session: Optional[FaultSession],
        decisions: List[Decision],
        analyze: bool = False,
        batch_size: Optional[int] = None,
    ) -> Tuple[_IDColumns, int, FedOp, List[Unreachable]]:
        """Plan and interpret one prepared query against the peers.

        The recording step of :meth:`_run_round`: issues every
        simulated request against ``scheduler`` — one tenant's
        recorder of a :class:`~repro.runtime.scheduler.QueryScheduler`
        — and returns the answer as ID columns over the head plus its
        row count, the executed plan root and the unreachable
        endpoints.  Nothing here touches the replay: it may only run
        after every tenant of the round has recorded.

        The plan produces solutions; the solution modifiers are the
        local engine's finish (``engine._execute_prepared``) over its
        root.  ``batch_size`` overrides the executor's bound-join batch
        size for this recording only — the adaptive concurrency
        controller's between-rounds re-planning hook.
        """
        # The planning-time demand cap: an unordered LIMIT can never
        # emit more than offset+limit distinct rows, and ASK needs one.
        # ORDER BY drains fully (sorting is a pipeline breaker), so it
        # plans without a cap.  Streams are resumable — if projection
        # collapses rows, the final slice simply pulls deeper.
        demand: Optional[int] = None
        if prepared.ask:
            demand = 1
        elif not prepared.order and prepared.limit is not None:
            demand = max(1, prepared.offset + prepared.limit)
        ctx = ExecContext(
            self.network,
            stats,
            RelationCache(self.dictionary),
            scheduler,
            faults=session,
            retry=self.retry_policy,
            analyze=analyze,
            batch_size=batch_size,
        )
        if strategy == "collect":
            self._collect_union(ctx)
        interp = PlanInterpreter(ctx)
        roots = [
            self._run_branch(
                branch, strategy, interp, decisions, index, demand
            )
            for index, branch in enumerate(prepared.branches)
        ]
        root = roots[0] if len(roots) == 1 else UnionNode(roots)
        head = prepared.head
        if prepared.order:
            columns, n = batch_top_k(
                self.dictionary,
                interp.run(root).batch,
                head,
                prepared.order,
                prepared.offset,
                prepared.limit,
            )
        elif prepared.ask or prepared.limit is not None or prepared.offset:
            # A window of the root's chunk order, pulled a chunk at a
            # time until offset+limit distinct rows are in; ASK is
            # LIMIT 1 over its empty head.
            id_rows = batch_slice(
                interp.chunks(root),
                head,
                prepared.offset,
                1 if prepared.ask else prepared.limit,
            )
            columns, n = list(zip(*id_rows)), len(id_rows)
        else:
            answer = interp.run(root).batch
            columns, n = answer.project(head), answer.n
        return columns, n, root, ctx.unreachable

    def run_all_strategies(
        self,
        query: _Query,
        nsm: Optional[NamespaceManager] = None,
    ) -> Dict[str, FederationResult]:
        """Run every strategy (adaptive, parallel, and the fixed
        baselines), asserting they agree on the answer set.

        The query is normalised and filter-compiled exactly once
        (:meth:`prepare`); the strategies share the prepared form.
        """
        prepared = self.prepare(query, nsm)
        results = {
            strategy: self.execute(prepared, strategy)
            for strategy in STRATEGIES
        }
        # Flagged partial results are exempt from the agreement check:
        # with a fault model attached, different strategies issue
        # different request sequences, so they can exhaust different
        # endpoints (or none).  The reference is the first *complete*
        # answer; complete answers must still all agree.
        reference: Optional[Set[Tuple[Optional[Term], ...]]] = None
        for strategy in STRATEGIES:
            if results[strategy].partial is None:
                reference = results[strategy].rows
                break
        # An unordered LIMIT/OFFSET admits *any* subset of the right
        # cardinality — strategies legitimately pick different rows, so
        # only the cardinality is comparable.  Ordered (and unmodified,
        # and ASK) queries must agree exactly.
        sliced_unordered = (
            not prepared.order
            and not prepared.ask
            and (prepared.limit is not None or prepared.offset > 0)
        )
        for strategy, result in results.items():
            if result.partial is not None or reference is None:
                continue
            if sliced_unordered:
                agree = len(result.rows) == len(reference)
            else:
                agree = result.rows == reference
            if not agree:
                raise FederationError(
                    f"strategy {strategy!r} disagrees: "
                    f"{len(result.rows)} vs {len(reference)} answers"
                )
        return results

    def execute_concurrent(
        self,
        queries: Union[
            Mapping[str, Union[_Query, PreparedQuery]],
            Iterable[Tuple[str, Union[_Query, PreparedQuery]]],
        ],
        nsm: Optional[NamespaceManager] = None,
        *,
        strategy: str = PARALLEL,
        discipline: str = "fifo",
        weights: Optional[Mapping[str, int]] = None,
        max_active: Optional[int] = None,
        max_in_flight: Optional[int] = None,
        adaptive: bool = False,
        control: Optional[AimdSettings] = None,
        tracer=NULL_TRACER,
    ) -> ConcurrentResult:
        """Run N tenants' queries concurrently on one shared runtime.

        Every tenant's query is planned exactly as :meth:`execute`
        would plan it, but all of them record onto **one**
        :class:`~repro.runtime.scheduler.QueryScheduler` — one simulation
        kernel, one channel per endpoint — so the coordinators
        genuinely contend: per-endpoint queues interleave different
        tenants' requests under the executor's ``concurrency`` and
        in-flight limits, and each tenant's reported elapsed time is
        its completion time on the *shared* clock.

        Args:
            queries: tenant-name → query mapping, or ``(name, query)``
                pairs; order is the admission order.  Queries may be
                pre-:meth:`prepare`-d; otherwise each *distinct* query
                (by text, or by object identity) is prepared exactly
                once and shared across the tenants that submitted it.
            nsm: namespace manager for text queries.
            strategy: any per-request strategy — ``"parallel"``
                (default), ``"adaptive"``, ``"bound"`` or ``"naive"``;
                the physical operators record onto the shared runtime
                whatever policy built the plan.  ``"collect"`` is
                rejected: a whole-database dump has no per-request
                runtime surface to contend on.
            discipline: backlog admission policy per channel —
                ``"fifo"`` or ``"wrr"`` (weighted round-robin across
                tenants).
            weights: per-tenant weights (>= 1, keyed by tenant name)
                for the ``"wrr"`` discipline (default 1 each; ignored
                by FIFO).
            max_active: admission-control cap on concurrently active
                queries (``None`` = all tenants start at once).
            max_in_flight: per-endpoint window override for this call
                (defaults to the executor's; ignored when adaptive
                control is on, which supplies its own start window).
            adaptive: attach an AIMD controller
                (:class:`~repro.runtime.control.AimdController`) that
                retunes each channel's in-flight window inside the
                replay, then re-plans the bound-join batch size
                between rounds from the observed queueing delay; the
                better round — by (p95 tenant makespan, overall
                makespan) — is returned.  Answer sets are asserted
                identical across rounds.
            control: AIMD tuning constants (implies nothing unless
                ``adaptive`` is set).
            tracer: receives one wall span for the whole call plus
                virtual spans — per-tenant lanes with their replayed
                requests, and one ``controller:`` span per window
                adjustment.

        Returns:
            A :class:`ConcurrentResult`: per-tenant
            :class:`TenantOutcome`\\ s (each wrapping a normal
            :class:`FederationResult` whose ``channels`` are the
            tenant's share of the contended channels), the overall
            makespan, aggregate channel statistics, and the adaptive
            controller's adjustment log.

        Raises:
            FederationError: on an empty tenant set, a duplicate or
                empty tenant name, a weight for an unknown tenant or
                below 1, a non-runtime strategy, an unknown
                ``discipline``, ``max_active`` below 1, or an in-flight
                window below the executor's ``concurrency`` — all
                before any query is prepared.
        """
        if strategy not in STRATEGIES or strategy == "collect":
            raise FederationError(
                f"execute_concurrent needs a per-request strategy "
                f"(one of {tuple(s for s in STRATEGIES if s != 'collect')}),"
                f" got {strategy!r}"
            )
        if isinstance(queries, Mapping):
            items = list(queries.items())
        else:
            items = [(name, query) for name, query in queries]
        if not items:
            raise FederationError("execute_concurrent needs >= 1 tenant")
        names = set()
        for name, _ in items:
            if not isinstance(name, str) or not name:
                raise FederationError(
                    f"tenant names must be non-empty strings: {name!r}"
                )
            if name in names:
                raise FederationError(f"duplicate tenant name {name!r}")
            names.add(name)
        weight_of = dict(weights or {})
        unknown = sorted(set(weight_of) - names)
        if unknown:
            raise FederationError(
                f"weights configured for unknown tenant(s): {unknown}"
            )
        for name, weight in weight_of.items():
            if weight < 1:
                raise FederationError(
                    f"tenant weight must be >= 1 for {name!r}, got {weight}"
                )
        window = (
            max_in_flight if max_in_flight is not None
            else self.max_in_flight
        )

        def new_scheduler() -> QueryScheduler:
            return QueryScheduler(
                concurrency=self.concurrency,
                max_in_flight=window,
                discipline=discipline,
                max_active=max_active,
                controller=AimdController(control) if adaptive else None,
            )

        # Round 1's scheduler validates the discipline, the admission
        # cap and the effective window before any query is prepared.
        try:
            scheduler = new_scheduler()
        except SimulationError as exc:
            raise FederationError(str(exc)) from exc
        # Prepare each *distinct* query once — tenants submitting the
        # same text (or the same query object) share one PreparedQuery,
        # exactly like run_all_strategies shares across strategies.
        prepared_by_key: Dict[object, PreparedQuery] = {}
        tenants: List[Tuple[str, PreparedQuery]] = []
        for name, query in items:
            if isinstance(query, PreparedQuery):
                prepared = query
            else:
                key: object = (
                    query if isinstance(query, str) else id(query)
                )
                cached = prepared_by_key.get(key)
                if cached is None:
                    cached = self.prepare(query, nsm)
                    prepared_by_key[key] = cached
                prepared = cached
            tenants.append((name, prepared))
        with tracer.span(f"execute_concurrent:{discipline}"):
            # Planning rounds.  Round 1 records every tenant with the
            # executor's bound-join batch size.  Under adaptive control
            # the controller then reads the round's aggregate channel
            # statistics and may recommend another batch size
            # (:meth:`AimdController.recommend_batch`); if it does, one
            # re-planning round runs and the better round — ordered by
            # (p95 tenant makespan, overall makespan) — wins.  Answers
            # must be identical across rounds; anything else is a
            # planning bug and raises.
            term_of: Dict[Optional[int], Optional[Term]] = {None: None}
            batch = self.batch_size
            rounds = 0
            best: Optional[ConcurrentResult] = None
            best_key: Optional[Tuple[float, float]] = None
            best_scheduler = scheduler
            reference_rows: Optional[Dict[str, Set]] = None
            while True:
                rounds += 1
                if rounds > 1:
                    scheduler = new_scheduler()
                results = self._run_round(
                    tenants, strategy, scheduler, weight_of, batch, term_of
                )
                outcomes = tuple(
                    TenantOutcome(
                        tenant=name,
                        result=result,
                        makespan=scheduler.tenant_makespan(name),
                        admission_wait=scheduler.admission_wait(name),
                    )
                    for (name, _), result in zip(tenants, results)
                )
                rows_by_tenant = {
                    outcome.tenant: outcome.result.rows
                    for outcome in outcomes
                }
                if reference_rows is None:
                    reference_rows = rows_by_tenant
                elif rows_by_tenant != reference_rows:
                    raise FederationError(
                        "adaptive re-planning changed a tenant's answer set"
                    )
                controller = scheduler.controller
                candidate = ConcurrentResult(
                    outcomes=outcomes,
                    makespan=scheduler.makespan(),
                    channels=scheduler.channel_stats(),
                    discipline=discipline,
                    max_active=max_active,
                    active_peak=scheduler.active_peak,
                    batch_size=batch,
                    adjustments=(
                        tuple(controller.adjustments)
                        if controller is not None
                        else ()
                    ),
                    rounds=rounds,
                )
                key = (candidate.p95_makespan(), candidate.makespan)
                if best_key is None or key < best_key:
                    best, best_key = candidate, key
                    best_scheduler = scheduler
                if controller is None or rounds >= 2:
                    break
                next_batch = controller.recommend_batch(
                    scheduler.channel_stats(), batch
                )
                if next_batch == batch:
                    break
                batch = next_batch
            assert best is not None
            best.rounds = rounds
            if tracer.enabled:
                _emit_concurrent_spans(tracer, best_scheduler)
            return best

    def metrics(self) -> MetricsRegistry:
        """The executor's cumulative counters behind one registry.

        Absorbs the previously scattered counter bags — plan-cache
        hits/misses/size and the statistics catalog's epochs and
        refresh count — into one
        :class:`~repro.obs.metrics.MetricsRegistry` snapshot; the
        ``explain`` metrics block and ``tools/export_trace.py``'s
        ``METRICS.json`` both render from it.
        """
        registry = MetricsRegistry()
        cache = self.plan_cache.stats()
        registry.counter("plan_cache.hits").inc(cache["hits"])
        registry.counter("plan_cache.misses").inc(cache["misses"])
        registry.set("plan_cache.size", cache["size"])
        registry.set("plan_cache.capacity", cache["capacity"])
        registry.set(
            "catalog.statistics_epoch", self.catalog.statistics_epoch
        )
        registry.counter("catalog.refreshes").inc(self.catalog.refreshes)
        return registry

    def explain(
        self,
        query: Union[_Query, PreparedQuery],
        nsm: Optional[NamespaceManager] = None,
        strategy: str = ADAPTIVE,
        analyze: bool = False,
    ) -> str:
        """Human-readable trace: the executed operator tree plus the
        cost model's decisions.

        Executes the query under ``strategy`` (``adaptive`` by default;
        ``parallel`` additionally annotates bound joins with their
        batch pipelining — mode and peak in-flight overlap) and renders
        the plan tree followed by one line per decision: the chosen
        action, its target endpoints, the cost model's estimates and
        the rejected alternatives.  A ``metric``-prefixed block renders
        the unified metrics registry: the executor's cumulative
        counters normally, or — under ``analyze=True`` — this run's
        network counters only, so analyzed output is a deterministic
        function of the seed.  ``analyze=True`` additionally annotates
        every operator line with its executed actuals (rows/batches
        out, build sizes, requests issued).
        """
        if strategy not in (ADAPTIVE, PARALLEL):
            raise FederationError(
                f"explain needs a decision-tracing strategy "
                f"({ADAPTIVE!r} or {PARALLEL!r}), got {strategy!r}"
            )
        result = self.execute(query, strategy, nsm, analyze=analyze)
        stats = result.stats
        lines = [
            f"{strategy}: {len(result.rows)} rows, "
            f"messages={stats.messages} "
            f"solutions={stats.solutions_transferred} "
            f"triples={stats.triples_transferred} "
            f"busy={stats.busy_seconds:.3f}s "
            f"elapsed={stats.elapsed_seconds:.3f}s",
        ]
        if analyze:
            lines.extend(_stats_registry(stats).render(prefix="metric "))
        else:
            lines.extend(self.metrics().render(prefix="metric "))
        for plan in result.plans:
            lines.append("plan:")
            rendered = explain_fed_plan(plan).split("\n")
            lines.extend(f"  {line}" for line in rendered)
        for decision in result.decisions:
            lines.append(f"  [branch {decision.branch}] {decision.describe()}")
        return "\n".join(lines)

    # -- query normalisation --------------------------------------------

    def _normalize(
        self, query: _Query, nsm: Optional[NamespaceManager]
    ) -> Tuple[
        Tuple[Variable, ...],
        List[ConjunctiveBranch],
        Tuple[OrderCondition, ...],
        Optional[int],
        int,
        bool,
    ]:
        if isinstance(query, GraphPatternQuery):
            branches = [ConjunctiveBranch(tuple(query.conjuncts()))]
            return query.head, branches, (), None, 0, False
        ast = parse_query(query, nsm) if isinstance(query, str) else query
        head, branches = sparql_to_branches(ast, nsm)
        if isinstance(ast, SelectQuery):
            return (
                head,
                branches,
                tuple(ast.order),
                ast.limit,
                ast.offset or 0,
                False,
            )
        return head, branches, (), None, 0, isinstance(ast, AskQuery)

    def _compile_branch(
        self, branch: ConjunctiveBranch, sentinels: Dict[Term, int]
    ) -> PreparedBranch:
        graph = self.endpoints[0].graph  # dictionary access only
        optionals = []
        for block in branch.optionals:
            if block.expr is not None:
                condition = compile_mask(graph, block.expr, sentinels)
            else:
                condition = None
            optionals.append(
                PreparedOptional(
                    branches=tuple(
                        (
                            opt.patterns,
                            self._compile_masks(
                                opt.filters, graph, sentinels
                            ),
                        )
                        for opt in block.branches
                    ),
                    condition=condition,
                )
            )
        return PreparedBranch(
            patterns=branch.patterns,
            filters=self._compile_masks(branch.filters, graph, sentinels),
            optionals=tuple(optionals),
        )

    @staticmethod
    def _compile_masks(
        filters: Sequence[FilterExpr], graph: Graph, sentinels: Dict[Term, int]
    ) -> Tuple[CompiledFilter, ...]:
        return tuple(
            CompiledFilter(
                expr,
                frozenset(expr.variables()),
                compile_mask(graph, expr, sentinels),
            )
            for expr in filters
        )

    # -- branch plans ----------------------------------------------------

    def _plan_required(
        self,
        patterns: Tuple[TriplePattern, ...],
        filters: List[CompiledFilter],
        strategy: str,
        interp: PlanInterpreter,
        decisions: List[Decision],
        branch_index: int,
        label: str = "",
        demand: Optional[int] = None,
    ) -> Tuple[FedOp, List[CompiledFilter]]:
        """Build (and, for the adaptive strategies, run) the plan of one
        conjunctive block under the given strategy."""
        if not patterns:
            return InputNode(), filters
        if strategy == "collect":
            return self.planner.plan_local(patterns, filters)
        if strategy == "naive":
            return self.planner.plan_naive(patterns, filters)
        if strategy == "bound":
            return self.planner.plan_bound(patterns, filters)
        # adaptive and parallel share one loop; the strategy name alone
        # picks fusion and the pricing axis.
        return self.planner.run_incremental(
            interp,
            patterns,
            filters,
            decisions,
            branch_index,
            strategy == PARALLEL,
            label,
            demand,
        )

    def _run_branch(
        self,
        branch: PreparedBranch,
        strategy: str,
        interp: PlanInterpreter,
        decisions: List[Decision],
        branch_index: int,
        demand: Optional[int] = None,
    ) -> FedOp:
        root, leftovers = self._plan_required(
            branch.patterns,
            list(branch.filters),
            strategy,
            interp,
            decisions,
            branch_index,
            demand=demand,
        )
        if interp.count(root, demand):
            for block in branch.optionals:
                if not block.branches:
                    # Every optional branch was statically false (e.g. a
                    # nested-group filter over an out-of-scope variable):
                    # the optional side is empty, the left join is the
                    # identity.
                    continue
                sub_roots = []
                for opt_patterns, opt_filters in block.branches:
                    sub_root, sub_left = self._plan_required(
                        opt_patterns,
                        list(opt_filters),
                        strategy,
                        interp,
                        decisions,
                        branch_index,
                        label=f"b{branch_index} opt",
                        demand=demand,
                    )
                    if sub_left:
                        sub_root = FilterNode(sub_root, sub_left)
                    sub_roots.append(sub_root)
                if len(sub_roots) == 1:
                    optional_root = sub_roots[0]
                else:
                    optional_root = UnionNode(sub_roots)
                root = LeftJoinNode(root, optional_root, block.condition)
                if not interp.count(root, demand):
                    break
        if leftovers:
            root = FilterNode(root, leftovers)
            interp.run(root, demand)
        return root

    # -- source selection and fixed conjunct ordering --------------------

    def _relevant(self, tp: TriplePattern) -> List[PeerEndpoint]:
        return [
            ep
            for ep in self.endpoints
            if ep.can_answer(tp, self.system.peers[ep.name].schema)
        ]

    def _order_conjuncts(
        self, conjuncts: Sequence[TriplePattern]
    ) -> List[TriplePattern]:
        """Greedy order: fewest free variables, then fewest sources.

        Relevance (a schema check against every endpoint) is computed
        once per conjunct up front, not re-derived inside the ``min``
        key on every round.
        """
        source_counts = [len(self._relevant(tp)) for tp in conjuncts]
        remaining = list(enumerate(conjuncts))
        ordered: List[TriplePattern] = []
        bound: Set[Variable] = set()
        while remaining:
            def cost(pair: Tuple[int, TriplePattern]) -> Tuple[int, int, int]:
                index, tp = pair
                free = sum(
                    1
                    for term in tp
                    if isinstance(term, Variable) and term not in bound
                )
                return (free, source_counts[index], index)

            best = min(remaining, key=cost)
            remaining.remove(best)
            ordered.append(best[1])
            bound.update(best[1].variables())
        return ordered

    # -- centralised collect baseline -----------------------------------

    def _collect_union(self, ctx: ExecContext) -> None:
        """Dump every peer into the relation cache (the collect baseline).

        Dumps go through the same fault/recovery funnel as federated
        sub-queries and are read in place afterwards; an unreachable
        peer's database is simply missing from the cache, and the
        dropped dump is reported for the partial-answer flag.
        """
        for endpoint in self.endpoints:
            try:
                graph, _ = issue_request(
                    ctx,
                    endpoint,
                    lambda ep: ep.graph,
                    lambda ep, g: ctx.network.charge_dump(
                        ctx.stats, ep.name, len(g)
                    ),
                    label="collect",
                )
            except EndpointUnavailableError as exc:
                ctx.record_unreachable(exc.endpoint, "dump")
                continue
            ctx.cache.add(endpoint.name, None, graph)


def _stats_registry(stats: NetworkStats) -> MetricsRegistry:
    """One execution's network counters as a run-scoped registry.

    Every value is an integer accumulated on the deterministic
    simulated clock, so the rendered block is byte-identical across
    repeated seeded runs — what ``explain(analyze=True)`` gates on.
    """
    registry = MetricsRegistry()
    registry.counter("network.messages").inc(stats.messages)
    registry.counter("network.solutions_transferred").inc(
        stats.solutions_transferred
    )
    registry.counter("network.triples_transferred").inc(
        stats.triples_transferred
    )
    registry.counter("network.stats_refreshes").inc(stats.stats_refreshes)
    registry.counter("network.retries").inc(stats.retries)
    registry.counter("network.failures").inc(stats.failures)
    registry.counter("network.timeouts").inc(stats.timeouts)
    registry.counter("network.failovers").inc(stats.failovers)
    return registry


def _emit_runtime_spans(tracer, scheduler: QueryScheduler) -> None:
    """Virtual spans from the runtime's replayed request timeline.

    The only source of a solo execution's virtual spans, under every
    strategy: the simulated order only exists after the makespan
    replay, so the spans are emitted post hoc.  One parent span per
    endpoint channel covers its occupied window (first arrival to last
    completion); under it, one child span per request covers its
    replayed service interval (``failed=1`` on a faulted attempt), and
    a retry that waited out a backoff is preceded by one ``backoff:``
    span ending at its arrival.  The exported trace thus shows exactly
    how the scheduler's DAG replay nested the traffic.
    """
    by_endpoint: Dict[str, List] = {}
    for handle in scheduler.timeline():
        by_endpoint.setdefault(handle.endpoint, []).append(handle)
    for name in sorted(by_endpoint):
        group = by_endpoint[name]
        parent = tracer.record(
            f"channel:{name}",
            min(handle.arrived_at for handle in group),
            max(handle.completed_at for handle in group),
            lane=name,
            requests=len(group),
        )
        for handle in group:
            if handle.delay > 0:
                tracer.record(
                    f"backoff:{name}",
                    handle.arrived_at - handle.delay,
                    handle.arrived_at,
                    lane=name,
                    parent=parent,
                    index=handle.index,
                )
            tracer.record(
                f"request:{name}",
                handle.started_at,
                handle.completed_at,
                lane=name,
                parent=parent,
                index=handle.index,
                label=handle.label,
                failed=int(handle.failed),
            )


def _emit_concurrent_spans(tracer, scheduler: QueryScheduler) -> None:
    """Virtual spans for a multi-tenant replay: one lane per tenant.

    Where the single-query export groups spans by endpoint channel,
    the multi-tenant export groups them by *tenant* — each tenant gets
    its own lane (its own ``tid`` in the Chrome-trace rendering), with
    one parent span covering the query's activation-to-completion
    window and one child span per replayed request.  The controller's
    window adjustments render on a dedicated ``controller`` lane: each
    ``controller:<channel>`` span covers the completion epoch that
    triggered the decision and carries the window before/after.
    """
    by_tenant: Dict[str, List] = {}
    for handle in scheduler.timeline():
        by_tenant.setdefault(handle.tenant, []).append(handle)
    for name in scheduler.tenants:
        group = by_tenant.get(name, [])
        parent = tracer.record(
            f"tenant:{name}",
            scheduler.admission_wait(name),
            scheduler.tenant_makespan(name),
            lane=name,
            requests=len(group),
        )
        for handle in group:
            tracer.record(
                f"request:{handle.endpoint}",
                handle.started_at,
                handle.completed_at,
                lane=name,
                parent=parent,
                index=handle.index,
                endpoint=handle.endpoint,
                label=handle.label,
                failed=int(handle.failed),
            )
    if scheduler.controller is None:
        return
    for adjustment in scheduler.controller.adjustments:
        tracer.record(
            f"controller:{adjustment.channel}",
            adjustment.epoch_start,
            adjustment.at,
            lane="controller",
            window_before=adjustment.before,
            window_after=adjustment.after,
            congested=int(adjustment.congested),
        )


def execute_federated(
    system: RPS,
    query: _Query,
    strategy: str = ADAPTIVE,
    network: Optional[NetworkModel] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    nsm: Optional[NamespaceManager] = None,
) -> FederationResult:
    """One-shot convenience wrapper around :class:`FederatedExecutor`."""
    executor = FederatedExecutor(system, network, batch_size)
    return executor.execute(query, strategy, nsm)
