"""Deterministic discrete-event simulation kernel.

The federated execution layer reasons about time in *simulated* seconds
(:mod:`repro.federation.network`).  The network model only prices
requests and sums their durations into busy time; elapsed time is a
*makespan* — the completion time of the last request under dependency
order and per-endpoint concurrency limits — not a sum, because a real
federation engine overlaps independent sub-queries.  Every strategy
gets its elapsed time from this kernel, a serial one by replaying one
request at a time.

:class:`SimKernel` is the smallest machinery that computes such
makespans deterministically: a virtual clock plus a priority queue of
timestamped events.  Events firing at the same virtual instant run in
scheduling order (a monotonic sequence number breaks ties), so a
simulation's outcome is a pure function of the order in which events
were scheduled — no wall clock, no randomness, reproducible across
machines and Python versions.  Waiting is an event like any other:
retry-backoff delays enter the simulation as later
:meth:`SimKernel.schedule_at` arrival times (see
:mod:`repro.runtime.scheduler`), so fault recovery needs no kernel
support beyond the clock itself.

One kernel drives every concurrent query of a replay: the query
scheduler (:mod:`repro.runtime.scheduler`) replays every tenant's
request DAG — one tenant for a single query — through one shared
kernel and one channel per endpoint, so coordinators genuinely contend
on the same virtual clock.  The only
kernel-level nicety that needs is :meth:`SimKernel.defer` — scheduling
a follow-up at the *current* instant, ordered after every event already
queued for that instant — which is how a query admitted the moment
another finishes starts after the finisher's completion cascade has
fully run.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Tuple

from repro.errors import SimulationError

__all__ = ["SimKernel"]


class SimKernel:
    """A virtual clock driving a time-ordered event queue.

    Events are ``(time, seq, callback)`` entries on a heap; :meth:`run`
    pops them in ``(time, seq)`` order, advancing :attr:`now` to each
    event's timestamp before invoking its callback.  Callbacks may
    schedule further events (at or after the current instant), which is
    how channels model request completion cascades.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        self._heap: List[Tuple[float, int, Callable[[], Any]]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past: delay={delay}"
            )
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` at absolute virtual ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"causality violation: event at t={time} scheduled while "
                f"the clock reads t={self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def defer(self, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` at the current instant, after every
        event already queued for it.

        Equivalent to ``schedule(0.0, callback)``; the monotonic
        sequence number places the callback behind all same-time
        events, so a deferred action observes the fully-settled state
        of the instant that triggered it (e.g. admitting the next
        waiting query only after the finishing query's completion
        cascade has released its dependents).
        """
        self.schedule_at(self.now, callback)

    def run(self) -> float:
        """Drain the event queue; returns the final clock (the makespan).

        The clock never rewinds: each popped event advances :attr:`now`
        to its timestamp (events are popped in time order, ties in
        scheduling order).
        """
        while self._heap:
            time, _, callback = heapq.heappop(self._heap)
            self.now = time
            self.events_processed += 1
            callback()
        return self.now
