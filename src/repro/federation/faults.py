"""Deterministic fault injection for the simulated federation.

Real SPARQL federation faces endpoints that fail, time out, or
disappear; this module brings that into the simulation *without giving
up determinism*.  A :class:`FaultModel` is immutable per-execution
configuration — one :class:`FaultSpec` per endpoint plus a seed — and
every execution draws its own :class:`FaultSession` from it, so the
same model produces byte-identical fault schedules run after run.

Determinism invariants:

* **Seeded draws.**  Each endpoint gets its own ``random.Random``
  seeded from ``(seed, endpoint name)``; an endpoint's outcome sequence
  depends only on the seed and on *how many requests that endpoint has
  seen*, never on wall clock, dict order, or other endpoints' traffic.
* **Virtual-time outages.**  Scripted outage windows are evaluated
  against the execution's accumulated ``busy_seconds`` — which advances
  identically whether the tenant replays serially or overlapped
  (charges accrue at record time, in submission order) — so an outage
  hits the same requests under every strategy.
* **Deterministic fail-first.**  ``fail_first=K`` fails an endpoint's
  first K requests unconditionally, giving tests an exact, probability-
  free fault schedule.

Recovery is priced, not free: failed attempts are charged like real
traffic (an error reply costs a round trip, a timeout costs the
policy's ``timeout_seconds``), and the :class:`RetryPolicy`'s
exponential backoff delays flow into ``elapsed_seconds`` through the
event kernel's request arrival times.  When retries and replicas are exhausted the request
raises :class:`~repro.errors.EndpointUnavailableError`; the interpreter
degrades to a flagged :class:`PartialAnswer` instead of failing the
query — full answers when faults are recoverable, correctly-flagged
partial answers otherwise, never a silently wrong answer set.

Statistics-catalog refreshes deliberately bypass fault injection: they
model out-of-band VoID fetches, and entangling them would make planning
inputs depend on the fault schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

__all__ = [
    "FaultModel",
    "FaultSession",
    "FaultSpec",
    "PartialAnswer",
    "RetryPolicy",
    "Unreachable",
]


@dataclass(frozen=True)
class FaultSpec:
    """Failure behaviour of one endpoint (immutable configuration).

    Attributes:
        failure_rate: per-attempt probability of an error reply.
        timeout_rate: per-attempt probability of no reply (charged at
            the retry policy's ``timeout_seconds``).
        fail_first: the endpoint's first K attempts fail
            deterministically (error replies), before any probability
            draw.
        outages: scripted ``(start, end)`` windows in virtual time
            (``busy_seconds``); attempts landing in ``start <= t < end``
            fail deterministically.
    """

    failure_rate: float = 0.0
    timeout_rate: float = 0.0
    fail_first: int = 0
    outages: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError(f"failure_rate not in [0,1]: {self.failure_rate}")
        if not 0.0 <= self.timeout_rate <= 1.0:
            raise ValueError(f"timeout_rate not in [0,1]: {self.timeout_rate}")
        if self.failure_rate + self.timeout_rate > 1.0:
            raise ValueError(
                "failure_rate + timeout_rate exceeds 1: "
                f"{self.failure_rate} + {self.timeout_rate}"
            )
        if self.fail_first < 0:
            raise ValueError(f"fail_first must be >= 0: {self.fail_first}")
        for start, end in self.outages:
            if end < start:
                raise ValueError(f"outage window ends before it starts: "
                                 f"({start}, {end})")

    def in_outage(self, now: float) -> bool:
        """Is virtual time ``now`` inside a scripted outage window?"""
        return any(start <= now < end for start, end in self.outages)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-exponential-backoff parameters, shared per execution.

    Attributes:
        max_retries: extra attempts after the first, per endpoint
            instance (a primary and each replica get their own budget).
        backoff_seconds: delay before the first retry.
        backoff_factor: multiplier applied per subsequent retry.
        timeout_seconds: wire time charged for a timed-out attempt (the
            coordinator's per-request timeout).
    """

    max_retries: int = 2
    backoff_seconds: float = 0.1
    backoff_factor: float = 2.0
    timeout_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_seconds < 0:
            raise ValueError(
                f"backoff_seconds must be >= 0: {self.backoff_seconds}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )
        if self.timeout_seconds < 0:
            raise ValueError(
                f"timeout_seconds must be >= 0: {self.timeout_seconds}"
            )

    def backoff(self, retry_index: int) -> float:
        """Backoff delay before retry ``retry_index`` (0-based)."""
        return self.backoff_seconds * self.backoff_factor**retry_index


@dataclass(frozen=True)
class FaultModel:
    """Immutable fault configuration: per-endpoint specs plus a seed.

    Endpoints without a spec never fail.  The model itself holds no
    mutable state — every execution calls :meth:`session` for a fresh
    :class:`FaultSession`, so repeated executions (and the strategies
    of one ``run_all_strategies`` comparison) each see the full
    schedule from the start.
    """

    specs: Dict[str, FaultSpec] = field(default_factory=dict)
    seed: int = 0

    def session(self) -> "FaultSession":
        """A fresh per-execution session over this configuration."""
        return FaultSession(self)


class FaultSession:
    """Mutable per-execution fault state: RNGs, counters, downed set.

    One session serves exactly one execution.  Outcome draws are
    per-endpoint (seeded from ``(model.seed, name)``) and consumed in
    request order, so an execution's fault schedule is a pure function
    of the model and of each endpoint's own request sequence.
    """

    def __init__(self, model: FaultModel) -> None:
        self.model = model
        self._rngs: Dict[str, random.Random] = {}
        self._attempts: Dict[str, int] = {}
        self._downed: Set[str] = set()

    def outcome(self, endpoint: str, now: float) -> str:
        """Draw the outcome of one attempt: ``ok``/``fail``/``timeout``.

        ``now`` is the execution's virtual-time probe (accumulated
        ``busy_seconds``), used only for scripted outage windows.
        Deterministic branches (fail-first, outages) are decided before
        any probability draw, so they never consume randomness.
        """
        spec = self.model.specs.get(endpoint)
        if spec is None:
            return "ok"
        count = self._attempts.get(endpoint, 0) + 1
        self._attempts[endpoint] = count
        if count <= spec.fail_first:
            return "fail"
        if spec.in_outage(now):
            return "fail"
        if spec.failure_rate == 0.0 and spec.timeout_rate == 0.0:
            return "ok"
        rng = self._rngs.get(endpoint)
        if rng is None:
            rng = random.Random(f"{self.model.seed}/{endpoint}")
            self._rngs[endpoint] = rng
        draw = rng.random()
        if draw < spec.timeout_rate:
            return "timeout"
        if draw < spec.timeout_rate + spec.failure_rate:
            return "fail"
        return "ok"

    def attempts(self, endpoint: str) -> int:
        """Attempts drawn against ``endpoint`` so far."""
        return self._attempts.get(endpoint, 0)

    def mark_down(self, endpoint: str) -> None:
        """Record that ``endpoint`` exhausted its retry budget."""
        self._downed.add(endpoint)

    def is_down(self, endpoint: str) -> bool:
        """Has this endpoint *instance* exhausted its budget?"""
        return endpoint in self._downed

    def unreachable(self, endpoint) -> bool:
        """Is the logical endpoint — primary and every replica — down?

        Takes a :class:`~repro.federation.endpoint.PeerEndpoint`; the
        planner and cost model use this to route around endpoints that
        no candidate instance can serve any more.
        """
        if not self.is_down(endpoint.name):
            return False
        return all(self.is_down(rep.name) for rep in endpoint.replicas)


@dataclass(frozen=True)
class Unreachable:
    """One dropped contribution: which endpoint, for which operation.

    Attributes:
        endpoint: the primary endpoint name that could not be reached.
        operation: what was being asked of it — the conjunct(s) in N3,
            or ``dump`` for a collect transfer.
    """

    endpoint: str
    operation: str


@dataclass(frozen=True)
class PartialAnswer:
    """Provenance of a degraded result: what the answer set is missing.

    Attached to a :class:`~repro.federation.executor.FederationResult`
    whose execution dropped at least one endpoint's contribution.  A
    result without one (``partial is None``) is complete; a result with
    one is a correct answer over the *reachable* endpoints, flagged so
    callers never mistake a subset for the full answer set.
    """

    unreachable: Tuple[Unreachable, ...]

    def endpoints(self) -> Tuple[str, ...]:
        """Sorted distinct names of the unreachable endpoints."""
        return tuple(sorted({u.endpoint for u in self.unreachable}))

    def describe(self) -> str:
        """One human-readable line per dropped contribution."""
        return "\n".join(
            f"unreachable {u.endpoint}: {u.operation}"
            for u in self.unreachable
        )
