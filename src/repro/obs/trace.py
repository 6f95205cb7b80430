"""Structured trace spans over two clock domains, Chrome-exportable.

One :class:`Tracer` collects a forest of :class:`Span` trees across a
query's whole lifecycle.  Spans live in one of two *clock domains*:

* ``"wall"`` — real seconds (an injectable monotonic clock, default
  :func:`time.perf_counter`) around the local phases: parse →
  normalise → plan → execute;
* ``"virtual"`` — the deterministic simulated seconds of the
  federation and runtime layers (the event kernel's replayed
  timeline, under every strategy), so a federated execution's trace
  is a pure function of the seed and byte-stable across repeated runs.

Wall spans open/close as context managers via :meth:`Tracer.span`;
virtual spans arrive already-complete via :meth:`Tracer.record` (their
bounds were computed on the simulated clock).  The shared
:data:`NULL_TRACER` is the disabled half of the pair: ``enabled`` is
``False`` and every hook is a constant-cost no-op, so instrumented
code paths guard with one attribute read and cost nothing when
tracing is off.

:func:`chrome_trace_events` flattens a tracer's spans into the Chrome
``trace_event`` JSON document shape (``"ph": "X"`` complete events,
microsecond ``ts``/``dur``, one ``tid`` lane per endpoint/channel)
for timeline viewing; :func:`validate_trace_events` is the
dependency-free shape check CI runs against exported traces.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "NULL_TRACER",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "validate_trace_events",
]


class Span:
    """One named interval in a trace tree.

    ``domain`` names the clock the bounds were measured on (``"wall"``
    or ``"virtual"``); ``lane`` groups spans onto one timeline row in
    the Chrome export (one lane per endpoint/channel, the empty lane
    for coordinator-side phases); ``attributes`` carry small
    deterministic annotations (row counts, request indexes, labels).
    """

    __slots__ = (
        "name",
        "domain",
        "start",
        "end",
        "lane",
        "attributes",
        "children",
    )

    def __init__(
        self,
        name: str,
        domain: str = "wall",
        start: float = 0.0,
        end: float = 0.0,
        lane: str = "",
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.domain = domain
        self.start = start
        self.end = end
        self.lane = lane
        self.attributes = attributes if attributes is not None else {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def walk(self) -> Iterator["Span"]:
        """Depth-first traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


class _SpanHandle:
    """Context manager closing one wall-clock span on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self.span)
        return False


class Tracer:
    """Collects spans into a forest; the enabled half of the pair.

    Wall spans nest through an explicit stack — a span opened while
    another is active becomes its child.  Virtual spans recorded via
    :meth:`record` attach to an explicit ``parent``, or to the current
    stack top (typically the surrounding execute wall span), or to the
    root forest.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, lane: str = "", **attributes) -> _SpanHandle:
        """Open one wall-clock span; close it by exiting the handle."""
        span = Span(
            name,
            domain="wall",
            start=self.clock(),
            lane=lane,
            attributes=dict(attributes),
        )
        self._attach(span)
        self._stack.append(span)
        return _SpanHandle(self, span)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        lane: str = "",
        parent: Optional[Span] = None,
        **attributes,
    ) -> Span:
        """Attach one already-complete virtual-clock span."""
        span = Span(
            name,
            domain="virtual",
            start=start,
            end=end,
            lane=lane,
            attributes=dict(attributes),
        )
        self._attach(span, parent)
        return span

    def _attach(self, span: Span, parent: Optional[Span] = None) -> None:
        if parent is not None:
            parent.children.append(span)
        elif self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def spans(self) -> Iterator[Span]:
        """Every collected span, depth-first in recording order."""
        for root in self.roots:
            yield from root.walk()

    def reset(self) -> None:
        """Drop every collected span (reuse the tracer for a new run)."""
        self.roots = []
        self._stack = []


class _NullHandle:
    """Shared no-op context manager for every disabled span call."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class _NullTracer:
    """The disabled tracer: ``enabled`` is False, every hook free.

    A single shared instance (:data:`NULL_TRACER`) is the default
    tracer everywhere, so un-traced executions pay one attribute read
    per guarded hook and allocate nothing.
    """

    enabled = False

    def span(self, name: str, lane: str = "", **attributes) -> _NullHandle:
        return _NULL_HANDLE

    def record(
        self,
        name: str,
        start: float,
        end: float,
        lane: str = "",
        parent: Optional[Span] = None,
        **attributes,
    ) -> None:
        return None

    def spans(self) -> Iterator[Span]:
        return iter(())

    def reset(self) -> None:
        return None


#: The shared disabled tracer — the default for every execution path.
NULL_TRACER = _NullTracer()


def chrome_trace_events(tracer, domain: Optional[str] = None) -> Dict:
    """Export a tracer's spans as a Chrome ``trace_event`` document.

    Every span becomes one complete event (``"ph": "X"``) with
    microsecond ``ts``/``dur``; lanes map to ``tid`` integers in first
    -appearance order, so the document is a deterministic function of
    the span forest.  ``domain`` restricts the export to one clock
    domain (``"virtual"`` exports are byte-stable for seeded runs;
    ``"wall"`` spans carry real timings and vary).
    """
    events: List[Dict[str, Any]] = []
    lanes: Dict[str, int] = {}
    for span in tracer.spans():
        if domain is not None and span.domain != domain:
            continue
        tid = lanes.setdefault(span.lane, len(lanes) + 1)
        events.append(
            {
                "name": span.name,
                "cat": span.domain,
                "ph": "X",
                "ts": int(round(span.start * 1_000_000)),
                "dur": int(round(span.duration * 1_000_000)),
                "pid": 1,
                "tid": tid,
                "args": {
                    key: span.attributes[key]
                    for key in sorted(span.attributes)
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


_EVENT_FIELDS = (
    ("name", str),
    ("cat", str),
    ("ph", str),
    ("ts", int),
    ("dur", int),
    ("pid", int),
    ("tid", int),
    ("args", dict),
)


def validate_trace_events(document) -> List[str]:
    """Shape-check one Chrome ``trace_event`` document.

    Returns a list of problem strings — empty means the document has
    the object-format shape Chrome's trace viewer loads: a
    ``traceEvents`` list of complete events carrying ``name``/``cat``
    strings, integer non-negative ``ts``/``dur``, integer
    ``pid``/``tid`` and an ``args`` object.  ``controller:``-prefixed
    events (adaptive-concurrency window adjustments) must additionally
    carry integer ``window_before``/``window_after`` args — the
    contract exported traces rely on.  Dependency-free on
    purpose: CI runs it before any project install.
    """
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' missing or not a list"]
    problems: List[str] = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key, kind in _EVENT_FIELDS:
            value = event.get(key)
            if key not in event:
                problems.append(f"event {i}: missing {key!r}")
            elif not isinstance(value, kind) or isinstance(value, bool):
                problems.append(
                    f"event {i}: {key!r} is not {kind.__name__}"
                )
        if event.get("ph") != "X":
            problems.append(
                f"event {i}: phase {event.get('ph')!r} is not 'X'"
            )
        ts = event.get("ts")
        if isinstance(ts, int) and not isinstance(ts, bool) and ts < 0:
            problems.append(f"event {i}: negative ts")
        dur = event.get("dur")
        if isinstance(dur, int) and not isinstance(dur, bool) and dur < 0:
            problems.append(f"event {i}: negative dur")
        name = event.get("name")
        args = event.get("args")
        if (
            isinstance(name, str)
            and name.startswith("controller:")
            and isinstance(args, dict)
        ):
            for key in ("window_before", "window_after"):
                value = args.get(key)
                if not isinstance(value, int) or isinstance(value, bool):
                    problems.append(
                        f"event {i}: controller span without integer "
                        f"{key!r}"
                    )
    return problems
