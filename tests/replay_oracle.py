"""An independent replay oracle: a recorded request DAG as a timed net.

``repro.runtime`` replays a recorded DAG on an event heap.  This module
recomputes the same timeline without importing ``repro``, read the way
Montali & Rivkin read a data-aware process, as a coloured Petri net
with priorities:

* **places**, per endpoint: the *backlog* (arrived, held back by the
  in-flight window), the *queue* (sent, waiting for a service lane),
  and two token counts, the free lanes and the free window slots;
* **transitions**: ``arrive`` (every dependency has completed and the
  request's delay has passed), ``admit`` (takes a window slot),
  ``start`` (takes a lane) and ``complete`` (gives both back and
  releases the dependents);
* **time**: ``arrive`` and ``complete`` are timed, ``admit`` and
  ``start`` fire inside the timed firing that enables them.

The conflicts are settled by explicit priorities:

1. Timed firings go in virtual-time order.
2. At one instant, the token produced first fires first: each timed
   token is stamped with the ordinal of the firing that produced it
   (the initial marking is firing 0) and its output slot there.
3. The output slots of a ``complete`` firing are, in order: the freed
   lane goes to the queue's head, the freed window slot goes to the
   backlog's choice, then the released dependents arrive, by index.
   The initial marking releases every root, tenant by tenant in
   registration order, by index within a tenant.
4. The backlog's choice: ``fifo`` takes the earliest arrival; ``wrr``
   visits tenants in the order they first entered this backlog and
   takes the earliest arrival of the first tenant with one, starting
   after the tenant it served last (from the first tenant at first).

Run it on a recording with :func:`replay`; each request is a mapping
with the keys ``tenant``, ``endpoint``, ``seconds``, ``after`` (indexes
of earlier requests), ``delay`` and ``failed``.
"""

#: The per-endpoint counters :func:`replay` returns.
COUNTERS = (
    "admitted", "completed", "failed", "peak_in_flight", "peak_backlog",
)


class _Endpoint:
    """One endpoint's places and counters."""

    def __init__(self, lanes, window):
        self.lanes = lanes  # free service lanes
        self.window = window  # free window slots (None: no window)
        self.queue = []  # sent, waiting for a lane
        self.backlog = []  # held back by the window, in arrival order
        self.tenants = []  # wrr: tenants in first-backlog order
        self.last = None  # wrr: the tenant served last
        self.count = dict.fromkeys(COUNTERS, 0)

    def choose(self, requests, discipline):
        """Remove and return the backlog's choice (priority 4)."""
        pick = 0
        if discipline == "wrr":
            start = 0
            if self.last is not None:
                start = self.tenants.index(self.last) + 1
            for step in range(len(self.tenants)):
                tenant = self.tenants[(start + step) % len(self.tenants)]
                held = [i for i, r in enumerate(self.backlog)
                        if requests[r]["tenant"] == tenant]
                if held:
                    pick, self.last = held[0], tenant
                    break
        return self.backlog.pop(pick)


def replay(requests, lanes, window, discipline, tenants):
    """Fire the net for ``requests``; the replayed timeline.

    Every endpoint has ``lanes`` service lanes and an in-flight
    ``window`` (``None``: unbounded).  ``discipline`` is ``"fifo"`` or
    ``"wrr"``, and ``tenants`` lists the tenants in registration order;
    every tenant starts at t=0.

    Returns ``{"times": [(arrive, start, finish), ...], "channels":
    {endpoint: {counter: value}}, "makespan": float}``.
    """
    endpoints = {}
    for request in requests:
        if request["endpoint"] not in endpoints:
            endpoints[request["endpoint"]] = _Endpoint(lanes, window)
    times = [[None, None, None] for _ in requests]
    waiting = [len(request["after"]) for request in requests]
    dependents = [[] for _ in requests]
    for index, request in enumerate(requests):
        for dep in request["after"]:
            dependents[dep].append(index)
    tokens = []  # (time, producer, slot, kind, request): the timed marking
    fired = 0
    now = 0.0

    def produce(time, kind, index):
        tokens.append((time, fired, len(produced), kind, index))
        produced.append(index)

    def release(index):
        produce(now + requests[index]["delay"], "arrive", index)

    def start(index):
        endpoint = endpoints[requests[index]["endpoint"]]
        endpoint.lanes -= 1
        times[index][1] = now
        produce(now + requests[index]["seconds"], "complete", index)

    def admit(index):
        endpoint = endpoints[requests[index]["endpoint"]]
        if endpoint.window is not None:
            endpoint.window -= 1
        endpoint.count["admitted"] += 1
        if endpoint.lanes:
            start(index)
        else:
            endpoint.queue.append(index)
        in_flight = endpoint.count["admitted"] - endpoint.count["completed"]
        endpoint.count["peak_in_flight"] = max(
            endpoint.count["peak_in_flight"], in_flight)

    def arrive(index):
        request = requests[index]
        endpoint = endpoints[request["endpoint"]]
        times[index][0] = now
        if endpoint.window == 0:
            endpoint.backlog.append(index)
            if request["tenant"] not in endpoint.tenants:
                endpoint.tenants.append(request["tenant"])
            endpoint.count["peak_backlog"] = max(
                endpoint.count["peak_backlog"], len(endpoint.backlog))
        else:
            admit(index)

    def complete(index):
        request = requests[index]
        endpoint = endpoints[request["endpoint"]]
        times[index][2] = now
        endpoint.lanes += 1
        if endpoint.window is not None:
            endpoint.window += 1
        endpoint.count["completed"] += 1
        endpoint.count["failed"] += bool(request["failed"])
        if endpoint.queue:
            start(endpoint.queue.pop(0))
        if endpoint.backlog and endpoint.window != 0:
            admit(endpoint.choose(requests, discipline))
        for dependent in dependents[index]:
            waiting[dependent] -= 1
            if waiting[dependent] == 0:
                release(dependent)

    produced = []
    for tenant in tenants:
        for index, request in enumerate(requests):
            if request["tenant"] == tenant and not waiting[index]:
                release(index)
    while tokens:
        token = min(tokens)
        tokens.remove(token)
        now, _, _, kind, index = token
        fired += 1
        produced = []
        (arrive if kind == "arrive" else complete)(index)
    return {
        "times": [tuple(entry) for entry in times],
        "channels": {name: dict(endpoint.count)
                     for name, endpoint in endpoints.items()},
        "makespan": max((entry[2] for entry in times), default=0.0),
    }
