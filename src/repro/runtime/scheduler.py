"""Request-DAG recording and replay on one shared simulation kernel.

The federated executor discovers its requests *synchronously* — it
evaluates a sub-query against a peer graph, learns the result size, and
only then knows the request's wire duration.  The scheduler therefore
runs in two phases:

1. **Recording.**  During execution each query's executor calls
   ``submit`` on its :class:`TenantRecorder` for every simulated
   request, naming the endpoint, the priced duration, and the requests
   it depends on (a bound-join wave depends on the wave that produced
   its input bindings; independent per-endpoint fan-outs and UNION
   branches share no dependencies).  Nothing is simulated yet —
   submissions only build one dependency DAG, every handle tagged with
   its tenant.  Because tenants record sequentially, a tenant's
   dependencies always point at its own earlier handles, and global
   submission indices remain topologically sorted.

2. **Simulation.**  :meth:`QueryScheduler.makespan` replays the DAG
   through one :class:`~repro.runtime.kernel.SimKernel` and one
   :class:`~repro.runtime.channel.Channel` per endpoint: a request
   *arrives* at its channel once every dependency has completed (never
   before its release floor), the channel serves it under its
   concurrency/in-flight limits, and its completion releases its
   dependents.  Coordinators of different tenants genuinely contend on
   those channels.  The final virtual clock is the **elapsed**
   (makespan) seconds — what a wall clock would have shown — as opposed
   to the **busy** seconds the network model accumulates by summing
   durations.

A single query is the same replay with one tenant
(:class:`OverlapScheduler`).  A tenant registered as *serial* has one
request outstanding at a time — each submission also depends on the
tenant's previous one — so its makespan is the left fold of its
requests' ``delay`` and ``seconds`` in submission order: the clock of
every federated strategy but ``parallel``.  Three layers of policy
stack on the replay:

* **Fairness** — each channel's coordinator-side backlog is ordered by
  a pluggable :class:`~repro.runtime.channel.QueueDiscipline` (FIFO or
  weighted round-robin across tenants); per-tenant
  :class:`~repro.runtime.channel.ChannelStats` make starvation
  measurable.
* **Admission control** — at most ``max_active`` queries run
  concurrently; later tenants wait (in registration order) until a
  running query's last request completes, and their waiting time is
  reported as :meth:`QueryScheduler.admission_wait`.
* **Adaptive concurrency** — an optional
  :class:`~repro.runtime.control.AimdController` retunes every
  channel's in-flight window from live queueing delay and service-time
  variance as the replay progresses.

Replays are deterministic: arrival ties break on global submission
order, so the makespan and every timeline are pure functions of the
recorded DAG.  Fault recovery records onto the same DAG — a failed
attempt is a normal (charged) request, and its retry carries a
``delay`` equal to the backoff wait, so recovery time shows up in the
makespan without any special-casing in the replay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.runtime.channel import (
    Channel,
    ChannelStats,
    Request,
    make_discipline,
)
from repro.runtime.control import AimdController
from repro.runtime.kernel import SimKernel

__all__ = [
    "OverlapScheduler",
    "QueryScheduler",
    "RequestHandle",
    "TenantRecorder",
    "DEFAULT_CONCURRENCY",
    "peak_overlap",
]

#: Default per-endpoint service concurrency (a small worker pool, the
#: shape of a public SPARQL endpoint behind a connection limit).
DEFAULT_CONCURRENCY = 4


@dataclass
class RequestHandle:
    """One recorded request in the dependency DAG.

    Attributes:
        index: global submission order (also the determinism
            tie-breaker).
        endpoint: target channel name.
        seconds: priced wire duration.
        after: handles that must complete before this request is sent.
        release: earliest virtual time the request may be sent,
            relative to its tenant's activation.
        delay: seconds between the last dependency's completion and
            this request's arrival — a retry's backoff wait, priced
            through the kernel so the makespan reflects it.
        label: free-form trace tag.
        failed: the attempt was answered with an injected fault; it
            still occupies its channel for ``seconds`` (failures are
            charged like real traffic).
        tenant: owning query/coordinator (``""`` for the one tenant of
            an :class:`OverlapScheduler`).
        arrived_at/started_at/completed_at: timeline, filled by the
            replay (``-1`` before :meth:`QueryScheduler.makespan`).
    """

    index: int
    endpoint: str
    seconds: float
    after: Tuple["RequestHandle", ...] = ()
    release: float = 0.0
    delay: float = 0.0
    label: str = ""
    failed: bool = False
    tenant: str = ""
    arrived_at: float = -1.0
    started_at: float = -1.0
    completed_at: float = -1.0


def peak_overlap(handles: Sequence[RequestHandle]) -> int:
    """Maximum number of the given requests simultaneously in service.

    Reads the ``started_at``/``completed_at`` timelines filled by the
    last replay (:meth:`QueryScheduler.makespan`); handles that never
    replayed are ignored.  The federated plan layer uses this to report
    how many of one operator's requests — e.g. the batches of a
    pipelined bound join — actually overlapped.
    """
    events: List[Tuple[float, int]] = []
    for handle in handles:
        if handle.completed_at < 0:
            continue
        events.append((handle.started_at, 1))
        events.append((handle.completed_at, -1))
    # Completions sort before starts at the same instant: a request that
    # ends exactly when another begins does not overlap it.
    events.sort(key=lambda event: (event[0], event[1]))
    peak = current = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


@dataclass
class _Node:
    """Replay bookkeeping for one handle."""

    handle: RequestHandle
    pending: int = 0
    dependents: List["_Node"] = field(default_factory=list)


class TenantRecorder:
    """One tenant's recording facade over a shared :class:`QueryScheduler`.

    The surface the federated executor records onto — :meth:`submit`,
    :meth:`makespan`, :meth:`channel_stats`, :meth:`timeline` — with
    every handle tagged with the tenant and landing in the shared DAG.
    ``makespan`` and ``channel_stats`` report the *tenant's* view of
    the shared replay: its completion time (admission wait included)
    and its share of each channel's statistics.
    """

    def __init__(
        self, parent: "QueryScheduler", name: str, weight: int, serial: bool
    ):
        self.parent = parent
        self.name = name
        self.weight = weight
        self.serial = serial
        self._last: Optional[RequestHandle] = None

    def submit(
        self,
        endpoint: str,
        seconds: float,
        after: Sequence[RequestHandle] = (),
        release: float = 0.0,
        label: str = "",
        delay: float = 0.0,
        failed: bool = False,
    ) -> RequestHandle:
        """Record one request into the shared DAG.

        ``delay`` postpones the request's arrival by that many seconds
        after its dependencies complete (retry backoff); ``failed``
        marks an injected-fault attempt, which still occupies its
        channel like any other request.  A serial tenant's request also
        waits for the tenant's previous one, so its replayed makespan
        is the left fold of every ``delay`` and ``seconds`` in
        submission order.
        """
        last = self._last
        if last is not None and not any(dep is last for dep in after):
            after = (*after, last)
        handle = self.parent._submit(
            self.name, endpoint, seconds, after, release, label, delay,
            failed,
        )
        if self.serial:
            self._last = handle
        return handle

    def makespan(self) -> float:
        """This tenant's completion time on the shared clock."""
        return self.parent.tenant_makespan(self.name)

    def channel_stats(self) -> Dict[str, ChannelStats]:
        """This tenant's share of each channel's statistics."""
        return self.parent.tenant_channel_stats(self.name)

    def timeline(self) -> List[RequestHandle]:
        """This tenant's handles, in submission order."""
        return [
            handle
            for handle in self.parent.timeline()
            if handle.tenant == self.name
        ]


class QueryScheduler:
    """Replays N tenants' request DAGs through one shared kernel.

    Args:
        concurrency: service lanes per endpoint channel.
        max_in_flight: per-endpoint outstanding-request window
            (``None`` = unbounded; the controller overrides this with
            its adaptive start window when attached).
        per_endpoint_concurrency: optional per-endpoint lane overrides.
        discipline: backlog admission policy — ``"fifo"`` or ``"wrr"``
            (weighted round-robin across tenants, weights from
            :meth:`tenant` registration).
        max_active: admission cap on concurrently active queries
            (``None`` = all tenants start at t=0).
        controller: optional AIMD window controller; observes every
            completion and retunes channel windows inside the replay.
    """

    def __init__(
        self,
        concurrency: int = DEFAULT_CONCURRENCY,
        max_in_flight: Optional[int] = None,
        per_endpoint_concurrency: Optional[Dict[str, int]] = None,
        discipline: str = "fifo",
        max_active: Optional[int] = None,
        controller: Optional[AimdController] = None,
    ) -> None:
        if concurrency < 1:
            raise SimulationError(
                f"scheduler concurrency must be >= 1: {concurrency}"
            )
        if max_in_flight is not None and max_in_flight < concurrency:
            # Fail here, not during the replay after a whole execution
            # has already been recorded against the DAG.
            raise SimulationError(
                f"max_in_flight ({max_in_flight}) below concurrency "
                f"({concurrency}) would waste service lanes"
            )
        if max_active is not None and max_active < 1:
            raise SimulationError(
                f"max_active must be >= 1: {max_active}"
            )
        self.concurrency = concurrency
        self.max_in_flight = max_in_flight
        self.per_endpoint_concurrency = dict(per_endpoint_concurrency or {})
        self.discipline = discipline
        self.max_active = max_active
        self.controller = controller
        self._tenants: List[TenantRecorder] = []
        self._weights: Dict[str, int] = {}
        self._handles: List[RequestHandle] = []
        self._channel_stats: Dict[str, ChannelStats] = {}
        self._tenant_channel_stats: Dict[str, Dict[str, ChannelStats]] = {}
        self._activated_at: Dict[str, float] = {}
        self._finished_at: Dict[str, float] = {}
        self._active_peak = 0
        self._makespan: Optional[float] = None
        # Fail fast on an unknown policy name, not mid-replay.
        make_discipline(discipline)

    def __len__(self) -> int:
        return len(self._handles)

    @property
    def tenants(self) -> Tuple[str, ...]:
        """Registered tenant names in registration (admission) order."""
        return tuple(recorder.name for recorder in self._tenants)

    def tenant(
        self, name: str, weight: int = 1, serial: bool = False
    ) -> TenantRecorder:
        """Register one tenant; returns its recording facade.

        Registration order is the admission order under ``max_active``
        and the deterministic tie-breaker everywhere else.  ``weight``
        feeds the weighted-round-robin discipline (ignored by FIFO).
        A ``serial`` tenant has one request outstanding at a time: each
        submission also depends on the tenant's previous one.
        """
        if any(recorder.name == name for recorder in self._tenants):
            raise SimulationError(f"duplicate tenant name: {name!r}")
        if weight < 1:
            raise SimulationError(
                f"tenant {name!r} weight must be >= 1: {weight}"
            )
        recorder = TenantRecorder(self, name, weight, serial)
        self._tenants.append(recorder)
        self._weights[name] = weight
        return recorder

    def _submit(
        self,
        tenant: str,
        endpoint: str,
        seconds: float,
        after: Sequence[RequestHandle],
        release: float,
        label: str,
        delay: float,
        failed: bool,
    ) -> RequestHandle:
        if seconds < 0:
            raise SimulationError(f"negative request duration: {seconds}")
        if delay < 0:
            raise SimulationError(f"negative request delay: {delay}")
        for dep in after:
            if dep.tenant != tenant:
                raise SimulationError(
                    f"tenant {tenant!r} may not depend on tenant "
                    f"{dep.tenant!r}'s request {dep.index}"
                )
        handle = RequestHandle(
            index=len(self._handles),
            endpoint=endpoint,
            seconds=seconds,
            after=tuple(after),
            release=release,
            delay=delay,
            label=label,
            failed=failed,
            tenant=tenant,
        )
        self._handles.append(handle)
        self._makespan = None  # DAG changed; replay again
        return handle

    # -- results --------------------------------------------------------

    def makespan(self) -> float:
        """Replay the shared DAG; returns the overall elapsed seconds.

        Idempotent: cached until the next submission.
        """
        if self._makespan is None:
            self._makespan = self._replay()
        return self._makespan

    def busy_seconds(self) -> float:
        """Summed request durations across every tenant."""
        return sum(handle.seconds for handle in self._handles)

    def tenant_makespan(self, name: str) -> float:
        """One tenant's completion time (admission wait included)."""
        self.makespan()
        return self._finished_at.get(name, 0.0)

    def admission_wait(self, name: str) -> float:
        """Seconds a tenant waited for an active-query slot."""
        self.makespan()
        return self._activated_at.get(name, 0.0)

    @property
    def active_peak(self) -> int:
        """Maximum concurrently active queries of the last replay."""
        self.makespan()
        return self._active_peak

    def channel_stats(self) -> Dict[str, ChannelStats]:
        """Per-endpoint aggregate statistics of the last replay."""
        self.makespan()
        return dict(self._channel_stats)

    def tenant_channel_stats(self, name: str) -> Dict[str, ChannelStats]:
        """One tenant's share of each channel's statistics."""
        self.makespan()
        return dict(self._tenant_channel_stats.get(name, {}))

    def timeline(self) -> List[RequestHandle]:
        """All handles in submission order with replayed timelines."""
        self.makespan()
        return list(self._handles)

    # -- replay ---------------------------------------------------------

    def _replay(self) -> float:
        kernel = SimKernel()
        channels: Dict[str, Channel] = {}
        controller = self.controller
        nodes = [_Node(handle) for handle in self._handles]
        roots: Dict[str, List[_Node]] = {
            recorder.name: [] for recorder in self._tenants
        }
        remaining: Dict[str, int] = {
            recorder.name: 0 for recorder in self._tenants
        }
        for node in nodes:
            tenant = node.handle.tenant
            if tenant not in remaining:
                raise SimulationError(
                    f"handle {node.handle.index} belongs to unregistered "
                    f"tenant {tenant!r}"
                )
            remaining[tenant] += 1
            node.pending = len(node.handle.after)
            for dep in node.handle.after:
                if dep.index >= node.handle.index:
                    raise SimulationError(
                        "dependency cycle: a request may only depend on "
                        "earlier submissions"
                    )
                nodes[dep.index].dependents.append(node)
            if node.pending == 0:
                roots[tenant].append(node)

        def channel_for(name: str) -> Channel:
            channel = channels.get(name)
            if channel is None:
                lanes = self.per_endpoint_concurrency.get(
                    name, self.concurrency
                )
                window = self.max_in_flight
                observer = None
                if controller is not None:
                    window = controller.initial_window(lanes)
                    observer = controller.observe
                channel = Channel(
                    kernel,
                    name,
                    concurrency=lanes,
                    max_in_flight=window,
                    discipline=make_discipline(
                        self.discipline, self._weights
                    ),
                    observer=observer,
                )
                channels[name] = channel
            return channel

        pending_tenants: Deque[TenantRecorder] = deque(self._tenants)
        active: Set[str] = set()
        activated: Dict[str, float] = {}
        finished: Dict[str, float] = {}
        self._active_peak = 0

        def finish(tenant: str) -> None:
            finished[tenant] = kernel.now
            active.discard(tenant)
            if pending_tenants:
                # Deferred so the admitted query's first arrivals sort
                # after the finishing query's completion cascade.
                kernel.defer(admit_next)

        def admit_next() -> None:
            while pending_tenants and (
                self.max_active is None or len(active) < self.max_active
            ):
                activate(pending_tenants.popleft())

        def activate(recorder: TenantRecorder) -> None:
            tenant = recorder.name
            activated[tenant] = kernel.now
            active.add(tenant)
            self._active_peak = max(self._active_peak, len(active))
            if remaining[tenant] == 0:
                # A tenant with no recorded requests completes at its
                # activation instant (e.g. a fully local query).
                finish(tenant)
                return
            for node in roots[tenant]:
                _schedule_arrival(node)

        def arrive(node: _Node) -> None:
            handle = node.handle
            tenant = handle.tenant

            def on_complete(request: Request) -> None:
                handle.started_at = request.started_at
                handle.completed_at = request.completed_at
                remaining[tenant] -= 1
                for dependent in node.dependents:
                    dependent.pending -= 1
                    if dependent.pending == 0:
                        _schedule_arrival(dependent)
                if remaining[tenant] == 0:
                    finish(tenant)

            handle.arrived_at = kernel.now
            channel_for(handle.endpoint).submit(
                Request(
                    duration=handle.seconds,
                    label=handle.label,
                    tenant=tenant,
                    on_complete=on_complete,
                    failed=handle.failed,
                )
            )

        def _schedule_arrival(node: _Node) -> None:
            handle = node.handle
            # Release floors are relative to the query's own start:
            # shifted by the tenant's activation time under admission
            # control.  The delay (retry backoff) starts once the
            # dependencies complete — i.e. now.
            floor = activated[handle.tenant] + handle.release
            kernel.schedule_at(
                max(floor, kernel.now + handle.delay),
                lambda: arrive(node),
            )

        admit_next()
        elapsed = kernel.run()
        unfinished = [n.handle for n in nodes if n.handle.completed_at < 0]
        if unfinished:  # pragma: no cover - guarded by the cycle check
            raise SimulationError(
                f"{len(unfinished)} request(s) never completed"
            )
        stuck = [name for name in remaining if name not in finished]
        if stuck:  # pragma: no cover - every path above calls finish()
            raise SimulationError(f"queries never finished: {stuck}")
        self._channel_stats = {
            name: channel.stats for name, channel in channels.items()
        }
        self._tenant_channel_stats = {
            recorder.name: {} for recorder in self._tenants
        }
        for name, channel in channels.items():
            for tenant, stats in channel.tenant_stats.items():
                self._tenant_channel_stats.setdefault(tenant, {})[name] = (
                    stats
                )
        self._activated_at = activated
        self._finished_at = finished
        return elapsed


class OverlapScheduler(QueryScheduler):
    """One query's request DAG: a :class:`QueryScheduler` with a single
    FIFO tenant ``""`` whose :meth:`~TenantRecorder.submit` it exposes."""

    def __init__(
        self,
        concurrency: int = DEFAULT_CONCURRENCY,
        max_in_flight: Optional[int] = None,
        per_endpoint_concurrency: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(concurrency, max_in_flight, per_endpoint_concurrency)
        self.submit = self.tenant("").submit
