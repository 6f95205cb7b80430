"""Per-endpoint channels: concurrency-limited request service.

A :class:`Channel` models one endpoint's request pipe inside a
:class:`~repro.runtime.kernel.SimKernel` simulation.  It has

* ``concurrency`` service lanes — how many requests the endpoint serves
  simultaneously (a SPARQL endpoint's worker pool); a request occupies a
  lane for its whole duration;
* an optional ``max_in_flight`` window — how many requests the
  coordinator may have outstanding (serving + queued at the endpoint) at
  once; requests beyond the window wait in a coordinator-side backlog
  and are only *sent* (admitted) when a slot frees.

Admission from the backlog follows a pluggable :class:`QueueDiscipline`.
The default :class:`FifoDiscipline` preserves arrival order, so with a
single coordinator the window bounds queue depth and shifts per-request
wait accounting without reordering completions.  Under *multi-tenant*
contention (several coordinators recording onto one channel through
:class:`~repro.runtime.scheduler.QueryScheduler`) the discipline is the
fairness policy: :class:`WeightedRoundRobinDiscipline` cycles admission
across tenants with per-tenant weights, so one tenant's burst cannot
starve the others, and per-tenant :class:`ChannelStats`
(:attr:`Channel.tenant_stats`) make any residual starvation measurable.

The window itself may be retuned mid-simulation via
:meth:`Channel.set_window` — the hook the AIMD controller
(:mod:`repro.runtime.control`) uses to adapt the in-flight window from
live queueing delay and service-time variance; growth admits backlogged
requests at the current virtual instant, shrinkage only throttles
future admissions (already-admitted requests are never recalled).

Channels do no network *pricing* — durations are computed by the caller
(from :class:`~repro.federation.network.NetworkModel`) and arrive on the
:class:`Request`; the channel only decides *when* each request starts
and completes under contention.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import SimulationError
from repro.runtime.kernel import SimKernel

__all__ = [
    "Channel",
    "ChannelStats",
    "FifoDiscipline",
    "QueueDiscipline",
    "Request",
    "WeightedRoundRobinDiscipline",
    "make_discipline",
]


@dataclass
class Request:
    """One simulated request: a duration plus its recorded timeline.

    Attributes:
        duration: service time in simulated seconds.
        label: free-form tag for traces (e.g. ``"bound b2"``).
        tenant: owning coordinator/query for multi-tenant accounting
            (empty for single-query simulations).
        on_complete: invoked (with the request) when service finishes.
        failed: the attempt carried an injected fault; it is served
            (and occupies a lane) like any other request — failures
            are charged like real traffic — but counted separately.
        arrived_at: when the coordinator handed it to the channel.
        admitted_at: when it entered the in-flight window (was "sent").
        started_at: when a service lane picked it up.
        completed_at: when service finished.
    """

    duration: float
    label: str = ""
    tenant: str = ""
    on_complete: Optional[Callable[["Request"], None]] = None
    failed: bool = False
    arrived_at: float = -1.0
    admitted_at: float = -1.0
    started_at: float = -1.0
    completed_at: float = -1.0

    @property
    def waited(self) -> float:
        """Seconds spent queued (arrival to service start)."""
        return self.started_at - self.arrived_at


@dataclass
class ChannelStats:
    """Aggregate service statistics of one channel (or one tenant's
    share of it).

    Attributes:
        completed: requests fully served (failed attempts included —
            an error reply or timeout still occupies the channel).
        failed: served requests that carried an injected fault.
        admitted: requests that entered the in-flight window (sent).
        busy_seconds: summed service time (lane-seconds of work).
        busy_seconds_sq: summed squared service time (for variance).
        wait_seconds: summed queueing time across requests.
        peak_in_flight: maximum simultaneous in-window requests.
        peak_backlog: maximum coordinator-side backlog length.
    """

    completed: int = 0
    failed: int = 0
    admitted: int = 0
    busy_seconds: float = 0.0
    busy_seconds_sq: float = 0.0
    wait_seconds: float = 0.0
    peak_in_flight: int = 0
    peak_backlog: int = 0

    def queueing_delay(self) -> float:
        """Mean seconds a completed request spent queued.

        The AIMD controller's congestion signal: queueing delay rising
        above the mean service time means requests wait on the window
        or the lanes longer than they are served.
        """
        if not self.completed:
            return 0.0
        return self.wait_seconds / self.completed

    def mean_service_seconds(self) -> float:
        """Mean service duration of completed requests."""
        if not self.completed:
            return 0.0
        return self.busy_seconds / self.completed

    def service_time_variance(self) -> float:
        """Population variance of completed request durations.

        High variance means lumpy traffic (a few huge transfers among
        small probes) — the controller treats it as a reason to keep
        the window conservative, since one large request behind a wide
        window stalls everything queued after it.
        """
        if not self.completed:
            return 0.0
        mean = self.busy_seconds / self.completed
        return max(0.0, self.busy_seconds_sq / self.completed - mean * mean)


class QueueDiscipline:
    """Admission order over the coordinator-side backlog.

    A discipline holds requests that did not fit the in-flight window
    and decides which one is *sent* when a window slot frees.  Both
    hooks run inside the virtual clock, so any deterministic policy
    keeps the whole simulation deterministic.
    """

    name = "fifo"

    def push(self, request: Request) -> None:
        raise NotImplementedError

    def pop(self) -> Request:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FifoDiscipline(QueueDiscipline):
    """Arrival-order admission — the single-tenant default."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: Deque[Request] = deque()

    def push(self, request: Request) -> None:
        self._queue.append(request)

    def pop(self) -> Request:
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class WeightedRoundRobinDiscipline(QueueDiscipline):
    """Weighted round-robin admission across tenants.

    Tenants are visited in first-appearance order; a tenant with weight
    *w* may admit up to *w* requests per visit before the cursor moves
    on (classic weighted round-robin).  Requests of one tenant stay
    FIFO among themselves.  Appearance order, the cursor walk and the
    integer credits are all deterministic, so the policy preserves the
    kernel's replay determinism.
    """

    name = "wrr"

    def __init__(self, weights: Optional[Dict[str, int]] = None) -> None:
        for tenant, weight in (weights or {}).items():
            if weight < 1:
                raise SimulationError(
                    f"tenant {tenant!r} weight must be >= 1: {weight}"
                )
        self._weights = dict(weights or {})
        self._order: List[str] = []
        self._queues: Dict[str, Deque[Request]] = {}
        self._cursor = 0
        self._credit = 0
        self._size = 0

    def _weight(self, tenant: str) -> int:
        return self._weights.get(tenant, 1)

    def push(self, request: Request) -> None:
        queue = self._queues.get(request.tenant)
        if queue is None:
            queue = deque()
            self._queues[request.tenant] = queue
            self._order.append(request.tenant)
            if len(self._order) == 1:
                self._credit = self._weight(request.tenant)
        queue.append(request)
        self._size += 1

    def pop(self) -> Request:
        if not self._size:
            raise SimulationError("pop from an empty backlog")
        while True:
            tenant = self._order[self._cursor]
            queue = self._queues[tenant]
            if queue and self._credit > 0:
                self._credit -= 1
                self._size -= 1
                return queue.popleft()
            self._cursor = (self._cursor + 1) % len(self._order)
            self._credit = self._weight(self._order[self._cursor])

    def __len__(self) -> int:
        return self._size


def make_discipline(
    name: str, weights: Optional[Dict[str, int]] = None
) -> QueueDiscipline:
    """Build one backlog discipline instance by policy name."""
    if name == "fifo":
        return FifoDiscipline()
    if name == "wrr":
        return WeightedRoundRobinDiscipline(weights)
    raise SimulationError(
        f"unknown queue discipline {name!r}; expected 'fifo' or 'wrr'"
    )


class Channel:
    """Request service with ``concurrency`` lanes and a pluggable
    admission discipline.

    Args:
        kernel: the simulation kernel driving the clock.
        name: endpoint name (trace label only).
        concurrency: simultaneous service lanes (>= 1).
        max_in_flight: outstanding-request window (>= concurrency when
            given); ``None`` means unbounded.
        discipline: backlog admission policy (default FIFO).
        observer: called with ``(channel, request)`` after every
            completion's bookkeeping — the AIMD controller's feedback
            tap.  Runs before the freed slot is refilled, so a window
            adjustment made inside the observer governs which
            backlogged request (if any) is admitted next.
    """

    def __init__(
        self,
        kernel: SimKernel,
        name: str,
        concurrency: int = 1,
        max_in_flight: Optional[int] = None,
        discipline: Optional[QueueDiscipline] = None,
        observer: Optional[Callable[["Channel", Request], None]] = None,
    ) -> None:
        if concurrency < 1:
            raise SimulationError(
                f"channel concurrency must be >= 1: {concurrency}"
            )
        if max_in_flight is not None and max_in_flight < concurrency:
            raise SimulationError(
                f"max_in_flight ({max_in_flight}) below concurrency "
                f"({concurrency}) would waste service lanes"
            )
        self.kernel = kernel
        self.name = name
        self.concurrency = concurrency
        self.max_in_flight = max_in_flight
        self.stats = ChannelStats()
        self.tenant_stats: Dict[str, ChannelStats] = {}
        self.observer = observer
        self._serving = 0
        self._queue: Deque[Request] = deque()  # admitted, awaiting a lane
        self._backlog = discipline if discipline is not None else (
            FifoDiscipline()
        )
        self._tenant_in_flight: Dict[str, int] = {}

    @property
    def in_flight(self) -> int:
        """Requests currently inside the window (serving + queued)."""
        return self._serving + len(self._queue)

    def submit(self, request: Request) -> None:
        """Hand a request to the channel at the current virtual time."""
        request.arrived_at = self.kernel.now
        if self._window_full():
            self._backlog.push(request)
            self.stats.peak_backlog = max(
                self.stats.peak_backlog, len(self._backlog)
            )
            return
        self._admit(request)

    def set_window(self, max_in_flight: Optional[int]) -> None:
        """Retune the in-flight window at the current virtual time.

        Growth admits backlogged requests immediately (under the
        discipline's order); shrinkage only throttles future
        admissions — requests already in the window are never
        recalled.  This is the AIMD controller's actuator.
        """
        if max_in_flight is not None and max_in_flight < self.concurrency:
            raise SimulationError(
                f"max_in_flight ({max_in_flight}) below concurrency "
                f"({self.concurrency}) would waste service lanes"
            )
        self.max_in_flight = max_in_flight
        while len(self._backlog) and not self._window_full():
            self._admit(self._backlog.pop())

    def _window_full(self) -> bool:
        if self.max_in_flight is None:
            return False
        return self.in_flight >= self.max_in_flight

    def _tenant(self, tenant: str) -> ChannelStats:
        stats = self.tenant_stats.get(tenant)
        if stats is None:
            stats = ChannelStats()
            self.tenant_stats[tenant] = stats
        return stats

    # -- internal event handlers ---------------------------------------

    def _admit(self, request: Request) -> None:
        request.admitted_at = self.kernel.now
        self.stats.admitted += 1
        tstats = self._tenant(request.tenant)
        tstats.admitted += 1
        in_flight = self._tenant_in_flight.get(request.tenant, 0) + 1
        self._tenant_in_flight[request.tenant] = in_flight
        tstats.peak_in_flight = max(tstats.peak_in_flight, in_flight)
        if self._serving < self.concurrency:
            self._start(request)
        else:
            self._queue.append(request)
        self.stats.peak_in_flight = max(
            self.stats.peak_in_flight, self.in_flight
        )

    def _start(self, request: Request) -> None:
        request.started_at = self.kernel.now
        self._serving += 1
        self.kernel.schedule(request.duration, lambda: self._complete(request))

    def _account(self, stats: ChannelStats, request: Request) -> None:
        stats.completed += 1
        if request.failed:
            stats.failed += 1
        stats.busy_seconds += request.duration
        stats.busy_seconds_sq += request.duration * request.duration
        stats.wait_seconds += request.waited

    def _complete(self, request: Request) -> None:
        request.completed_at = self.kernel.now
        self._serving -= 1
        self._account(self.stats, request)
        self._account(self._tenant(request.tenant), request)
        self._tenant_in_flight[request.tenant] -= 1
        if self.observer is not None:
            self.observer(self, request)
        if self._queue:
            self._start(self._queue.popleft())
        if len(self._backlog) and not self._window_full():
            self._admit(self._backlog.pop())
        if request.on_complete is not None:
            request.on_complete(request)

    def __repr__(self) -> str:
        return (
            f"Channel({self.name!r}, concurrency={self.concurrency}, "
            f"in_flight={self.in_flight})"
        )
