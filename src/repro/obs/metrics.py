"""Counters, gauges and fixed-bucket histograms behind one registry.

The stack grew one ad-hoc counter bag per layer —
:class:`~repro.federation.network.NetworkStats`,
:class:`~repro.runtime.channel.ChannelStats`, the
:class:`~repro.sparql.cache.PlanCache` hit/miss dict, the statistics
catalog's epochs.  :class:`MetricsRegistry` absorbs them behind one
get-or-create API with a deterministic snapshot/render boundary:
``snapshot()`` returns a name-sorted dict of plain JSON values (ints,
floats, histogram dicts) that ``tools/export_trace.py`` writes to
``METRICS.json``, and ``render()`` produces the sorted ``name=value`` lines the
executors' ``explain`` output uses as its unified metrics block.

Everything here is plain arithmetic over deterministic inputs, so two
seeded runs render byte-identical blocks — the property the explain
-determinism tests gate on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

_Number = Union[int, float]


def _fmt(value: _Number) -> str:
    """Deterministic short rendering: ints verbatim, floats via %g."""
    if isinstance(value, bool) or not isinstance(value, float):
        return str(value)
    return format(value, "g")


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins numeric value (sizes, epochs, capacities)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: _Number = 0

    def set(self, value: _Number) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram over ascending upper bounds.

    ``observe(v)`` lands in the first bucket whose bound is >= ``v``
    (the last, unbounded bucket catches the rest) and accumulates
    ``count``/``total``.  The bucket layout is fixed at construction:
    no rebinning, so snapshots from repeated seeded runs are
    comparable key for key.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Sequence[_Number]) -> None:
        self.bounds = tuple(bounds)
        if any(
            later <= earlier
            for later, earlier in zip(self.bounds[1:], self.bounds)
        ):
            raise ValueError(f"bounds not ascending: {self.bounds}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total: _Number = 0

    def observe(self, value: _Number) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def snapshot(self) -> Dict[str, _Number]:
        """Bucket counts plus count/sum, as a plain JSON-able dict."""
        out: Dict[str, _Number] = {
            "count": self.count,
            "sum": self.total,
        }
        for bound, n in zip(self.bounds, self.counts):
            out[f"le_{_fmt(bound)}"] = n
        out["inf"] = self.counts[-1]
        return out


class MetricsRegistry:
    """Named metrics with get-or-create access and sorted export.

    One registry per scope: the executor keeps a cumulative one
    (plan-cache and catalog counters), each traced execution can build
    a run-scoped one from its :class:`~repro.federation.network.
    NetworkStats`.  Names are dotted (``plan_cache.hits``); the first
    access fixes a name's metric type and a later access with a
    different type raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(*args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is {type(metric).__name__}, "
                f"not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[_Number]
    ) -> Histogram:
        return self._get(name, Histogram, bounds)

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: _Number) -> None:
        self.gauge(name).set(value)

    def observe(
        self, name: str, value: _Number, bounds: Sequence[_Number]
    ) -> None:
        self.histogram(name, bounds).observe(value)

    def snapshot(self) -> Dict[str, Any]:
        """Every metric's current value, keyed by name, name-sorted."""
        out: Dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot()
            else:
                out[name] = metric.value
        return out

    def render(self, prefix: str = "") -> List[str]:
        """Sorted ``name=value`` lines — the unified explain block."""
        lines: List[str] = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                for key, cell in value.items():
                    lines.append(f"{prefix}{name}.{key}={_fmt(cell)}")
            else:
                lines.append(f"{prefix}{name}={_fmt(value)}")
        return lines
