"""Simulated network cost model for federated query execution.

The paper's prototype sketch (§5 item 4) federates sub-queries over
remote SPARQL access points.  No live endpoints exist in this offline
reproduction, so the network is *simulated*: every request/response pair
is accounted with a parametric cost model (per-message latency plus
per-solution transfer cost), and the simulated clock replaces wall time.
This preserves the quantities the prototype design reasons about —
message counts, data volume, and their dependence on the join strategy —
without real sockets.

Time is accounted on two axes:

* ``busy_seconds`` — summed wire time of every request, as if all were
  serial.  This is the total *work* placed on the network.  (The PR 5
  ``simulated_seconds`` alias for it is gone; see docs/architecture.md
  for the removal schedule.)
* ``elapsed_seconds`` — the makespan: what a wall clock would show.
  Every strategy records its requests on the discrete-event runtime
  (:mod:`repro.runtime`), which replays them into the makespan.
  ``adaptive`` and the fixed baselines record on a serial tenant, one
  request at a time, so their makespan is ``busy_seconds`` plus
  backoff waits; the parallel strategy overlaps requests, so
  ``elapsed_seconds <= busy_seconds`` measures the won concurrency.
  Statistics refreshes are charged at planning time, before the
  replay, as a prefix.

Accounting invariant: every attempt that leaves the coordinator — a
successful sub-query, an error reply, a timed-out request — is one
message and its wire time lands in ``busy_seconds``, in issue order.
Failed attempts (:meth:`NetworkModel.charge_fault`) are therefore
charged like real traffic; only retry *backoff* is different — it is
waiting, not wire work, so it delays the retry's arrival on the
runtime (and through it ``elapsed_seconds``), never ``busy_seconds``
or ``messages``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["NetworkModel", "NetworkStats"]


@dataclass
class NetworkStats:
    """Accumulated traffic statistics for one execution.

    Attributes:
        messages: number of request/response round trips (failed and
            timed-out attempts included — they occupy the wire too).
        solutions_transferred: total solution mappings shipped back.
        triples_transferred: total result triples shipped (for dumps).
        busy_seconds: summed simulated wire time of every request (the
            serial total).
        elapsed_seconds: simulated makespan — wall-clock-equivalent time
            once request overlap is accounted.  Equal to
            ``busy_seconds`` plus backoff waits for every strategy
            but ``parallel``.
        stats_refreshes: cardinality-statistics refresh round trips
            (included in ``messages`` as well).
        retries: re-issued attempts after a failure or timeout.
        failures: attempts answered with an error reply (injected).
        timeouts: attempts that timed out (injected).
        failovers: logical requests served by a replica endpoint after
            the primary exhausted its retry budget.
        backoff_seconds: summed retry backoff waits (elapsed-only time;
            never part of ``busy_seconds``).
        per_endpoint_messages: message count per endpoint name.
    """

    messages: int = 0
    solutions_transferred: int = 0
    triples_transferred: int = 0
    busy_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    stats_refreshes: int = 0
    retries: int = 0
    failures: int = 0
    timeouts: int = 0
    failovers: int = 0
    backoff_seconds: float = 0.0
    per_endpoint_messages: Dict[str, int] = field(default_factory=dict)

    @property
    def transfer_units(self) -> int:
        """Total payload items shipped (solution mappings + triples).

        The byte-volume proxy the adaptive benchmarks compare across
        strategies: a solution mapping and a triple are both one unit
        (each is a handful of terms on the wire).
        """
        return self.solutions_transferred + self.triples_transferred

    def merge(self, other: "NetworkStats") -> None:
        """Fold ``other`` into this one, treating both as *concurrent*.

        Counters, ``busy_seconds`` and ``backoff_seconds`` add (work is
        work, waiting is waiting), but ``elapsed_seconds`` takes the
        max: two sub-executions that ran side by side finish when the
        slower one does.  Callers merging genuinely sequential
        executions should add elapsed times themselves.
        """
        self.messages += other.messages
        self.solutions_transferred += other.solutions_transferred
        self.triples_transferred += other.triples_transferred
        self.busy_seconds += other.busy_seconds
        self.elapsed_seconds = max(self.elapsed_seconds, other.elapsed_seconds)
        self.stats_refreshes += other.stats_refreshes
        self.retries += other.retries
        self.failures += other.failures
        self.timeouts += other.timeouts
        self.failovers += other.failovers
        self.backoff_seconds += other.backoff_seconds
        for endpoint, count in other.per_endpoint_messages.items():
            self.per_endpoint_messages[endpoint] = (
                self.per_endpoint_messages.get(endpoint, 0) + count
            )


@dataclass
class NetworkModel:
    """Parametric cost model applied to every simulated exchange.

    Attributes:
        latency_seconds: fixed cost per round trip (default 50 ms — a
            typical WAN RTT to a public SPARQL endpoint).
        per_solution_seconds: marginal cost per solution mapping
            transferred (serialisation + wire).
        per_triple_seconds: marginal cost per triple for data dumps.
    """

    latency_seconds: float = 0.05
    per_solution_seconds: float = 0.0001
    per_triple_seconds: float = 0.00005

    # -- pricing (no accounting) ----------------------------------------

    def query_seconds(self, solutions: int) -> float:
        """Wire duration of one sub-query returning ``solutions`` rows."""
        return self.latency_seconds + solutions * self.per_solution_seconds

    def dump_seconds(self, triples: int) -> float:
        """Wire duration of one data dump of ``triples`` triples."""
        return self.latency_seconds + triples * self.per_triple_seconds

    # -- accounting -----------------------------------------------------

    def _charge(
        self, stats: NetworkStats, endpoint: str, seconds: float
    ) -> float:
        """Shared per-message accounting behind every charge_* method."""
        stats.messages += 1
        stats.busy_seconds += seconds
        stats.per_endpoint_messages[endpoint] = (
            stats.per_endpoint_messages.get(endpoint, 0) + 1
        )
        return seconds

    def charge_query(
        self, stats: NetworkStats, endpoint: str, solutions: int
    ) -> float:
        """Account one sub-query round trip returning ``solutions`` rows.

        Returns the duration, which the caller hands to the runtime
        scheduler; the replay settles ``elapsed_seconds``.
        """
        stats.solutions_transferred += solutions
        return self._charge(stats, endpoint, self.query_seconds(solutions))

    def charge_dump(
        self, stats: NetworkStats, endpoint: str, triples: int
    ) -> float:
        """Account one full data-dump transfer (the centralised baseline)."""
        stats.triples_transferred += triples
        return self._charge(stats, endpoint, self.dump_seconds(triples))

    def charge_refresh(self, stats: NetworkStats, endpoint: str) -> float:
        """Account one cardinality-statistics refresh round trip.

        A refresh ships a fixed-size statistics document (VoID-style),
        so it is priced as bare latency; it still counts as a real
        message against the endpoint.  Refreshes happen while a plan is
        being built, never on the runtime, so they are the one charge
        that advances ``elapsed_seconds`` itself: a prefix the replayed
        makespan is added to.
        """
        stats.stats_refreshes += 1
        seconds = self._charge(stats, endpoint, self.latency_seconds)
        stats.elapsed_seconds += seconds
        return seconds

    def charge_fault(
        self,
        stats: NetworkStats,
        endpoint: str,
        kind: str,
        timeout_seconds: float = 0.0,
    ) -> float:
        """Account one *failed* attempt, charged like real traffic.

        ``kind`` is ``"fail"`` (an error reply: one bare round trip) or
        ``"timeout"`` (no reply: the coordinator waits out its
        per-request timeout, so the attempt costs ``timeout_seconds``).
        Either way the attempt is one message against the endpoint and
        its duration lands in ``busy_seconds``, exactly like a
        successful request — failures are not free.
        """
        if kind == "timeout":
            stats.timeouts += 1
            seconds = timeout_seconds
        else:
            stats.failures += 1
            seconds = self.latency_seconds
        return self._charge(stats, endpoint, seconds)

    def charge_backoff(self, stats: NetworkStats, seconds: float) -> float:
        """Account one retry backoff wait.

        Backoff is coordinator-side waiting, not wire work: it never
        touches ``messages`` or ``busy_seconds``.  The caller delays the
        retry's arrival on the event kernel by the returned seconds, so
        the replayed makespan carries the wait.
        """
        stats.backoff_seconds += seconds
        return seconds
