"""Cost model for adaptive federated query execution.

The PR-2 benchmarks showed no fixed strategy wins everywhere: bound
joins minimise messages only while intermediate binding sets stay small,
naive shipping minimises transfer when source selection leaves one peer
per pattern, and the collect baseline trades maximal bytes for minimal
messages.  This module is the per-conjunct decision procedure behind
the two cost-driven strategies, ``adaptive`` and ``parallel`` (the
other three — ``naive``, ``bound``, ``collect`` — are fixed plan
shapes kept as baselines): given the endpoints relevant to a
conjunct, their published cardinalities
(:meth:`~repro.federation.endpoint.PeerEndpoint.count_pattern`, backed
by :meth:`repro.rdf.graph.Graph.count_ids`) and the *actual* size of the
current intermediate binding set (the executor's cardinality feedback),
it prices three physical alternatives with the network model's own
parameters and picks the cheapest:

``ship``
    Send the conjunct unbound to every relevant endpoint with matches;
    join the returned solutions locally.  One message per endpoint,
    transfer is the exact match count.

``bound``
    FedX-style bound join: ship the current bindings in batches and let
    endpoints return only extensions.  Messages grow with the binding
    count, transfer shrinks with join selectivity.

``pull``
    Transfer the conjunct's *source relation* (all triples with its
    predicate) once per endpoint into a local cache and answer this —
    and every later conjunct over the same relation — locally for free.
    One message per uncached endpoint, transfer in triples.

Costs are priced on one of two time axes; the strategy name picks it:

* **serial** (``parallel=False``, the ``adaptive`` strategy) — busy
  seconds: every message's latency and every transferred item adds
  up, exactly the quantity the serial strategies accumulate in
  ``NetworkStats.busy_seconds``.
* **makespan** (``parallel=True``, the ``parallel`` strategy) —
  elapsed seconds under the overlap-aware runtime
  (:mod:`repro.runtime`): per-endpoint fan-outs run side by side (the
  estimate is the *max* over endpoints, not the sum) and bound-join
  batch waves overlap up to the per-endpoint channel
  ``concurrency``, so a plan that wins on wall clock is chosen even
  when it loses on summed wire time.

Ties break on messages, then transfer.  Every decision carries its
rejected alternatives for ``explain``-style traces.  Conjuncts fused
into a FedX-style exclusive group are decided together
(:meth:`CostModel.decide_group`):
only ship/bound apply, and the group's result cardinality is estimated
from its most selective member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.federation.network import NetworkModel
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.runtime.scheduler import DEFAULT_CONCURRENCY

__all__ = ["CostModel", "Decision", "EndpointStats", "Estimate"]

#: Selectivity credit per pattern position occupied by an already-bound
#: variable when estimating bound-join output (mirrors the single-graph
#: planner's ``_BOUND_SELECTIVITY``).
BOUND_SELECTIVITY = 8.0

#: Estimated fraction of solutions surviving one pushed-down FILTER
#: (mirrors the single-graph planner's halving in ``BatchFilter``).
#: Ship/bound sub-queries benefit; a pulled relation travels unfiltered.
FILTER_SELECTIVITY = 0.5


@dataclass(frozen=True)
class EndpointStats:
    """Published statistics of one relevant endpoint for one conjunct.

    Attributes:
        name: the endpoint (peer) name.
        pattern_count: exact matches of the unbound conjunct there.
        relation_count: size of the conjunct's source relation there.
        cached: True when the executor already pulled that relation.
        down: True when the endpoint (and every replica) exhausted its
            retry budget this execution; estimates and decisions route
            around it as if it had no matches.
    """

    name: str
    pattern_count: int
    relation_count: int
    cached: bool = False
    down: bool = False


@dataclass(frozen=True)
class Estimate:
    """Priced outcome of one physical alternative for one conjunct.

    Attributes:
        action: ``"ship"``, ``"bound"``, ``"pull"`` or ``"local"``.
        messages: estimated round trips.
        solutions: estimated solution mappings transferred.
        triples: estimated triples transferred (pull only).
        seconds: estimated time — busy seconds when priced serially,
            makespan seconds when priced for the parallel mode.
        feasible: False when the alternative cannot run here (e.g. a
            bound join with no prior bindings).
    """

    action: str
    messages: int
    solutions: float
    triples: int
    seconds: float
    feasible: bool = True

    def sort_key(self) -> Tuple[float, int, float, str]:
        return (
            self.seconds,
            self.messages,
            self.solutions + self.triples,
            self.action,
        )


@dataclass
class Decision:
    """The chosen alternative for one conjunct, with its audit trail.

    Attributes:
        pattern: the conjunct decided on (the first member, for an
            exclusive group).
        chosen: the winning estimate.
        alternatives: every feasible estimate considered (winner
            included), for ``explain`` traces.
        endpoints: names of the endpoints the action will contact.
        bindings: size of the intermediate binding set at decision time
            (the cardinality feedback input).
        branch: index of the conjunctive branch this conjunct belongs to.
        group: every member of the exclusive group when the decision
            covers a fused endpoint-side sub-query; empty for a single
            conjunct.
    """

    pattern: TriplePattern
    chosen: Estimate
    alternatives: List[Estimate] = field(default_factory=list)
    endpoints: Tuple[str, ...] = ()
    bindings: int = 0
    branch: int = 0
    group: Tuple[TriplePattern, ...] = ()

    @property
    def action(self) -> str:
        return self.chosen.action

    def describe(self) -> str:
        """One-line trace entry: action, targets, estimates, rejects."""
        targets = ",".join(self.endpoints) or "-"
        if self.group:
            shape = (
                f"group[{len(self.group)}] "
                + " ".join(tp.n3() for tp in self.group)
            )
        else:
            shape = self.pattern.n3()
        parts = [
            f"{self.action:<5} {shape} -> {targets}",
            f"[n={self.bindings} est msgs={self.chosen.messages} "
            f"sols={self.chosen.solutions:.0f} "
            f"triples={self.chosen.triples} "
            f"{self.chosen.seconds * 1000:.1f}ms]",
        ]
        rejected = [
            f"{e.action}={e.seconds * 1000:.1f}ms"
            for e in self.alternatives
            if e.action != self.action
        ]
        if rejected:
            parts.append("(rejected " + ", ".join(rejected) + ")")
        return " ".join(parts)


class CostModel:
    """Prices the physical alternatives of one conjunct.

    Args:
        network: the network model whose latency/transfer parameters
            convert message and volume estimates into simulated seconds.
        batch_size: bound-join batch size (bindings per message).
        concurrency: per-endpoint channel concurrency assumed by the
            makespan (``parallel=True``) pricing — how many of one
            endpoint's batch requests overlap.
    """

    def __init__(
        self,
        network: NetworkModel,
        batch_size: int,
        concurrency: int = DEFAULT_CONCURRENCY,
    ) -> None:
        self.network = network
        self.batch_size = batch_size
        self.concurrency = max(1, concurrency)

    # -- pricing --------------------------------------------------------

    def _seconds(
        self, messages: int, solutions: float, triples: int
    ) -> float:
        net = self.network
        return (
            messages * net.latency_seconds
            + solutions * net.per_solution_seconds
            + triples * net.per_triple_seconds
        )

    def estimate_ship(
        self,
        stats: Sequence[EndpointStats],
        pushed_filters: int = 0,
        parallel: bool = False,
    ) -> Estimate:
        active = [s for s in stats if s.pattern_count > 0 and not s.down]
        messages = len(active)
        discount = FILTER_SELECTIVITY**pushed_filters
        solutions = float(sum(s.pattern_count for s in active)) * discount
        if parallel:
            # Endpoints answer on independent channels: the fan-out's
            # makespan is the slowest endpoint, not the sum.
            seconds = max(
                (
                    self._seconds(1, s.pattern_count * discount, 0)
                    for s in active
                ),
                default=0.0,
            )
        else:
            seconds = self._seconds(messages, solutions, 0)
        return Estimate("ship", messages, solutions, 0, seconds)

    def estimate_bound(
        self,
        stats: Sequence[EndpointStats],
        bindings: int,
        bound_positions: int,
        pushed_filters: int = 0,
        parallel: bool = False,
    ) -> Estimate:
        """Price a bound join of ``bindings`` rows against the conjunct.

        ``bound_positions`` counts pattern positions holding an
        already-bound variable; each divides the per-binding match
        estimate by the selectivity credit.  Infeasible without prior
        bindings or without a join variable (it would degenerate into
        shipping the cross product).
        """
        active = [s for s in stats if s.pattern_count > 0 and not s.down]
        if bindings < 1 or bound_positions < 1:
            return Estimate("bound", 0, 0.0, 0, math.inf, feasible=False)
        batches = math.ceil(bindings / self.batch_size)
        messages = batches * len(active)
        discount = BOUND_SELECTIVITY**bound_positions
        filter_discount = FILTER_SELECTIVITY**pushed_filters
        solutions = 0.0
        per_endpoint: List[float] = []
        for s in active:
            per_binding = s.pattern_count / discount
            endpoint_solutions = (
                min(bindings * per_binding, float(bindings * s.pattern_count))
                * filter_discount
            )
            solutions += endpoint_solutions
            per_endpoint.append(endpoint_solutions)
        if parallel:
            # Batch waves overlap up to the channel concurrency; the
            # endpoints themselves run side by side, so take the max.
            waves = math.ceil(batches / self.concurrency)
            seconds = max(
                (
                    waves * self._seconds(1, endpoint_solutions / batches, 0)
                    for endpoint_solutions in per_endpoint
                ),
                default=0.0,
            )
        else:
            seconds = self._seconds(messages, solutions, 0)
        return Estimate("bound", messages, solutions, 0, seconds)

    def estimate_pull(
        self, stats: Sequence[EndpointStats], parallel: bool = False
    ) -> Estimate:
        """Price pulling the conjunct's source relation.

        Already-cached endpoints cost nothing; when every relevant
        endpoint is cached the action degenerates to ``local`` (answer
        from the cache, zero network).
        """
        uncached = [
            s
            for s in stats
            if not s.cached and s.relation_count > 0 and not s.down
        ]
        if not uncached:
            return Estimate("local", 0, 0.0, 0, 0.0)
        messages = len(uncached)
        triples = sum(s.relation_count for s in uncached)
        if parallel:
            seconds = max(
                self._seconds(1, 0.0, s.relation_count) for s in uncached
            )
        else:
            seconds = self._seconds(messages, 0.0, triples)
        return Estimate("pull", messages, 0.0, triples, seconds)

    # -- the decision ---------------------------------------------------

    def decide(
        self,
        pattern: TriplePattern,
        stats: Sequence[EndpointStats],
        bindings: int,
        bound_positions: int,
        branch: int = 0,
        ship_filters: int = 0,
        bound_filters: int = 0,
        parallel: bool = False,
    ) -> Decision:
        """Choose the cheapest feasible alternative for one conjunct.

        ``ship_filters`` / ``bound_filters`` count the FILTER
        expressions that would be pushed into the respective sub-query
        (ship sees only the pattern's variables; bound also sees every
        already-bound one) — each discounts the transfer estimate by
        :data:`FILTER_SELECTIVITY`.  ``parallel`` switches the pricing
        from busy seconds to overlap-aware makespan seconds.
        """
        estimates = [
            self.estimate_ship(stats, ship_filters, parallel),
            self.estimate_bound(
                stats, bindings, bound_positions, bound_filters, parallel
            ),
            self.estimate_pull(stats, parallel),
        ]
        return self._decision(pattern, estimates, stats, bindings, branch)

    def decide_group(
        self,
        group: Tuple[TriplePattern, ...],
        stats: Sequence[EndpointStats],
        bindings: int,
        bound_positions: int,
        branch: int = 0,
        ship_filters: int = 0,
        bound_filters: int = 0,
        parallel: bool = False,
    ) -> Decision:
        """Choose ship or bound for a fused exclusive group.

        The group executes as one endpoint-side sub-query, so only
        ship/bound apply (pulling several relations would defeat the
        fusion).  ``stats`` carries one entry — the owning endpoint —
        whose ``pattern_count`` is the group's estimated result
        cardinality (its most selective member's count).
        """
        estimates = [
            self.estimate_ship(stats, ship_filters, parallel),
            self.estimate_bound(
                stats, bindings, bound_positions, bound_filters, parallel
            ),
        ]
        decision = self._decision(group[0], estimates, stats, bindings, branch)
        decision.group = tuple(group)
        return decision

    def _decision(
        self,
        pattern: TriplePattern,
        estimates: List[Estimate],
        stats: Sequence[EndpointStats],
        bindings: int,
        branch: int,
    ) -> Decision:
        feasible = [e for e in estimates if e.feasible]
        chosen = min(feasible, key=Estimate.sort_key)
        if chosen.action in ("ship", "bound"):
            endpoints = tuple(
                s.name for s in stats if s.pattern_count > 0 and not s.down
            )
        elif chosen.action == "pull":
            endpoints = tuple(
                s.name
                for s in stats
                if not s.cached and s.relation_count > 0 and not s.down
            )
        else:  # local
            endpoints = ()
        return Decision(
            pattern=pattern,
            chosen=chosen,
            alternatives=feasible,
            endpoints=endpoints,
            bindings=bindings,
            branch=branch,
        )

    # -- conjunct ordering ----------------------------------------------

    def order_estimate(
        self,
        stats: Sequence[EndpointStats],
        bound_vars: frozenset,
        pattern: TriplePattern,
    ) -> Tuple[float, int]:
        """(estimated result size, free-variable count) for ordering.

        The exact unbound match count, discounted per pattern position
        whose variable is already bound — the same shape as the
        single-graph planner's conjunct ordering, but summed over the
        relevant endpoints.
        """
        total = float(sum(s.pattern_count for s in stats if not s.down))
        discount = 1.0
        free = 0
        for term in pattern:
            if isinstance(term, Variable):
                if term in bound_vars:
                    discount *= BOUND_SELECTIVITY
                else:
                    free += 1
        return (total / discount, free)

    def order_estimate_group(
        self,
        stats: Sequence[EndpointStats],
        bound_vars: frozenset,
        group: Sequence[TriplePattern],
    ) -> Tuple[float, int]:
        """Ordering key for a fused exclusive group.

        The group's cardinality estimate (``stats`` already carries the
        most-selective-member count), discounted once per group variable
        that is already bound, plus the count of still-free variables
        across the whole group.
        """
        total = float(sum(s.pattern_count for s in stats if not s.down))
        variables = set()
        for tp in group:
            variables.update(tp.variables())
        discount = 1.0
        free = 0
        for variable in sorted(variables, key=lambda v: v.name):
            if variable in bound_vars:
                discount *= BOUND_SELECTIVITY
            else:
                free += 1
        return (total / discount, free)


def bound_variable_positions(
    pattern: TriplePattern, bound_vars: frozenset
) -> int:
    """Pattern positions occupied by an already-bound variable."""
    return sum(
        1
        for term in pattern
        if isinstance(term, Variable) and term in bound_vars
    )


def group_bound_positions(
    group: Sequence[TriplePattern], bound_vars: frozenset
) -> int:
    """Bound positions summed across an exclusive group's members."""
    return sum(bound_variable_positions(tp, bound_vars) for tp in group)
