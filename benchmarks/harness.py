"""Closed-loop round runner shared by the four benchmark workloads.

One process, one thread, one client: a *round* is a workload's op list
executed once, each op timed on its own with ``time.perf_counter``.
Every reported time is wall time as measured.  Answers are checked
between rounds, outside every timed region, and the expensive oracles
for ops whose text never changes run once, after the peak-RSS sample,
against the answer the warm-up round produced (every later round is
compared with that answer by plain equality).

The module also holds the benchmark's own tracing: :class:`Spans`
records named wall intervals around calls into the program's layers
and :func:`profile_layers` attributes one ``cProfile`` round to the
``src/repro`` packages by module path.
"""

from __future__ import annotations

import cProfile
import gc
import math
import pstats
import random
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import Tracer

#: The layers of the program: the packages under ``src/repro``.
LAYERS = (
    "rdf",
    "sparql",
    "gpq",
    "tgd",
    "peers",
    "rewriting",
    "federation",
    "runtime",
    "obs",
    "workload",
)

#: Ten samples beyond the percentile: p90 needs 100, p95 needs 200.
MIN_SAMPLES = {"bulk": 100, "point": 200}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


@dataclass
class Op:
    """One operation of a round.

    ``run`` is the timed call into a public entry point and returns the
    raw result; ``check`` runs outside the timed region and says
    whether that result is the right answer.
    """

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Sample:
    """One executed op: its latency and whether the answer held."""

    op: str
    kind: str
    seconds: float
    ok: bool
    #: Names of the deferred references the op's check relied on.
    refs: Tuple[str, ...] = ()


class Workload:
    """Base class: seeded inputs, per-round op lists, deferred oracles.

    Subclasses set ``name`` and ``fresh_per_round`` and implement
    :meth:`build` (generate data and construct the objects under test
    from ``self.seed``), :meth:`round` (the op list of round ``index``;
    ``tracer`` switches the program's own telemetry on where an entry
    point accepts one), :meth:`oracle` or :meth:`verify` (the expected
    answer of a fixed-text op) and :meth:`probe` (the per-layer numbers
    of the traced run).
    """

    name = ""
    #: Anchored texts drawn per round from the seeded permutation.
    fresh_per_round = 0
    #: Whether the entry points take the program's ``Tracer``.
    traceable = True
    #: Rounds of each mode (plain, spans, tracer) in the traced run;
    #: fixed, so the traced run's simulated counters are exact.
    traced_rounds = 3

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self.oracle_seconds = 0.0
        self._reference: Dict[str, Any] = {}
        self._used: List[str] = []
        self._anchors: List[int] = []

    def build(self) -> None:
        raise NotImplementedError

    def round(self, index: int, tracer=None) -> List[Op]:
        raise NotImplementedError

    def oracle(self, name: str) -> Any:
        raise NotImplementedError

    def verify(self, name: str, answer: Any) -> bool:
        """Whether a fixed op's reference answer is the right one."""
        return answer == self.oracle(name)

    def probe(self, spans: "Spans") -> Dict[str, float]:
        raise NotImplementedError

    def fresh(self, index: int, population: int) -> List[int]:
        """Round ``index``'s slice of the seeded anchor permutation."""
        if len(self._anchors) != population:
            self._anchors = list(range(population))
            random.Random(self.seed).shuffle(self._anchors)
        count = self.fresh_per_round
        start = (index * count) % population
        picked = self._anchors[start : start + count]
        if len(picked) < count:
            picked += self._anchors[: count - len(picked)]
        return picked

    def defer(self, name: str, value: Any) -> None:
        """Keep the first ``value`` for :meth:`verify` at :meth:`finish`."""
        self._used.append(name)
        self._reference.setdefault(name, value)

    def reference(self, name: str) -> Any:
        """The kept value of ``name``, recorded as relied upon."""
        self._used.append(name)
        return self._reference[name]

    def fixed(self, name: str, answer: Any) -> bool:
        """Compare with the first answer seen under ``name``.

        That first answer (from the warm-up round) is verified against
        :meth:`oracle` by :meth:`finish`.
        """
        self._used.append(name)
        return answer == self._reference.setdefault(name, answer)

    def check_round(self, executed) -> List[Sample]:
        """Verify one round's raw results, outside the timed region.

        The time spent here is oracle time.  An op that raised, or whose
        check raises on what it returned, is a failed op.  Each sample
        remembers the deferred references its check relied on, so that
        :meth:`finish` can fail it when the oracle rejects one of them.
        """
        start = time.perf_counter()
        samples = []
        for op, seconds, raw in executed:
            self._used = []
            try:
                ok = not isinstance(raw, Exception) and bool(op.check(raw))
            except Exception:  # the run goes on; the op is counted failed
                traceback.print_exc()
                ok = False
            samples.append(
                Sample(op.name, op.kind, seconds, ok, tuple(self._used))
            )
        self.oracle_seconds += time.perf_counter() - start
        return samples

    def finish(self, samples: List[Sample]) -> None:
        """Verify deferred references; fail the samples of a wrong one."""
        start = time.perf_counter()
        wrong = {
            name
            for name, answer in self._reference.items()
            if not self.verify(name, answer)
        }
        self.oracle_seconds += time.perf_counter() - start
        for sample in samples:
            if not wrong.isdisjoint(sample.refs):
                sample.ok = False


def run_round(ops: List[Op], spans: Optional["Spans"] = None):
    """Execute one round; returns ``[(op, seconds, raw)]`` and its wall.

    A raised exception is kept as the raw result so the op is counted
    as failed instead of ending the run.
    """
    executed = []
    begun = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        try:
            raw = op.run()
        except Exception as error:  # the run goes on; the op failed
            traceback.print_exc()
            raw = error
        end = time.perf_counter()
        if spans is not None:
            spans.add(f"op.{op.name}", start, end)
        executed.append((op, end - start, raw))
    return executed, time.perf_counter() - begun


def op_table(samples: List[Sample]) -> List[Tuple[str, str, int, float]]:
    """Per op name: kind, sample count and median latency in ms."""
    by_name: Dict[str, List[Sample]] = {}
    for sample in samples:
        by_name.setdefault(sample.op, []).append(sample)
    return [
        (
            name,
            group[0].kind,
            len(group),
            statistics.median(s.seconds for s in group) * 1e3,
        )
        for name, group in by_name.items()
    ]


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(factory: Callable[[], Workload]) -> Tuple[Workload, float]:
    """Build one workload and run its warm-up round; returns the time.

    Set-up is generation, construction and the warm-up round's op
    calls; checking the warm-up answers is oracle time, not set-up.
    """
    gc.collect()
    start = time.perf_counter()
    workload = factory()
    workload.build()
    executed, _ = run_round(workload.round(0))
    seconds = time.perf_counter() - start
    workload.check_round(executed)
    return workload, seconds


def short_of_minimums(samples: List[Sample]) -> bool:
    """Whether either op class lacks its percentile sample minimum."""
    return any(
        sum(1 for s in samples if s.kind == kind) < minimum
        for kind, minimum in MIN_SAMPLES.items()
    )


def end_to_end(
    factory: Callable[[], Workload],
    seconds: float,
    rounds: Optional[int] = None,
) -> Tuple[Dict[str, float], List[Sample]]:
    """The untraced run: set-ups, timed rounds, deferred oracles.

    Rounds repeat until ``seconds`` have passed and both op classes
    hold their percentile minimums.  A fixed ``rounds`` count (quick
    mode, the tests) replaces the clock and sets up once.  A class's
    ``*_p50_ms`` is its median op latency within a round, median over
    the rounds: the pooled median of a mix of ops sits on the edge
    between two ops' latency modes and does not repeat.
    """
    setups = []
    for _ in range(1 if rounds is not None else SETUPS):
        workload = None  # release the previous set-up before the next
        workload, spent = set_up(factory)
        setups.append(spent)
    samples: List[Sample] = []
    # Per op class, each timed round's median op latency.
    typical: Dict[str, List[float]] = {kind: [] for kind in MIN_SAMPLES}
    timed = 0.0
    begun = time.perf_counter()
    index = 0
    while True:
        if rounds is not None:
            if index >= rounds:
                break
        elif time.perf_counter() - begun >= seconds and not (
            short_of_minimums(samples)
        ):
            break
        index += 1
        ops = workload.round(index)
        gc.collect()
        executed, wall = run_round(ops)
        timed += wall
        for kind, medians in typical.items():
            medians.append(
                statistics.median(
                    spent for op, spent, _ in executed if op.kind == kind
                )
            )
        samples.extend(workload.check_round(executed))
    rss = peak_rss_mb()
    workload.finish(samples)
    bulk = [s.seconds * 1e3 for s in samples if s.kind == "bulk"]
    point = [s.seconds * 1e3 for s in samples if s.kind == "point"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(samples) / timed,
        "bulk_p50_ms": statistics.median(typical["bulk"]) * 1e3,
        "point_p50_ms": statistics.median(typical["point"]) * 1e3,
        "peak_rss_mb": rss,
        # Reported, not bounded: see README, "End-to-end metrics".
        "bulk_p90_ms": percentile(bulk, 0.90),
        "point_p95_ms": percentile(point, 0.95),
    }
    return metrics, samples


# -- the benchmark's own tracing ------------------------------------------


class Spans:
    """In-memory span list: ``(name, start, end, parent index)``."""

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, float, int]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the wall interval of the enclosed block."""
        index = len(self.records)
        parent = self._open[-1] if self._open else -1
        self.records.append((name, 0.0, 0.0, parent))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.records[index] = (name, start, end, parent)

    def add(self, name: str, start: float, end: float) -> None:
        """Record an interval measured by the caller."""
        parent = self._open[-1] if self._open else -1
        self.records.append((name, start, end, parent))

    def durations(self, name: str) -> List[float]:
        """Seconds of every span called ``name``."""
        return [end - start for n, start, end, _ in self.records if n == name]

    def median_ms(self, name: str) -> float:
        """Median duration of the spans called ``name``, in ms (0 if none)."""
        found = self.durations(name)
        return statistics.median(found) * 1e3 if found else 0.0

    def total(self, prefix: str) -> float:
        """Summed seconds of the spans whose name starts with ``prefix``."""
        return sum(
            end - start
            for n, start, end, _ in self.records
            if n.startswith(prefix)
        )


def profile_layers(ops: List[Op]) -> Dict[str, float]:
    """Run one round under ``cProfile``; attribute it by module path.

    Returns ``<layer>.calls`` (exact function-call count, including
    the built-ins the layer's code calls being charged to no layer)
    and ``<layer>.self_share`` (share of all profiled self time) for
    every package under ``src/repro``.
    """
    profiler = cProfile.Profile()
    gc.collect()
    profiler.enable()
    for op in ops:
        op.run()
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    calls = dict.fromkeys(LAYERS, 0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    for (filename, _, _), (_, ncalls, tottime, _, _) in stats.items():
        total += tottime
        parts = filename.replace("\\", "/").split("/repro/")
        if len(parts) < 2:
            continue
        layer = parts[-1].split("/")[0]
        if layer in calls:
            calls[layer] += ncalls
            self_time[layer] += tottime
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_share"] = (
            self_time[layer] / total if total else 0.0
        )
    return out


def traced(
    factory: Callable[[], Workload],
) -> Tuple[Dict[str, float], List[Sample]]:
    """The traced run: spans, probes and one profiled round.

    Plain, span-recording and program-``Tracer`` rounds alternate;
    ``bench.tracing_overhead_x`` (the benchmark's own spans) and
    ``obs.traced_slowdown_x`` (the program's telemetry) are medians of
    the wall ratios of neighbouring rounds, which saw the same machine
    state.  The round count is fixed, so the simulated counters are
    exact for a seed.
    """
    spans = Spans()
    workload = factory()
    with spans.span("bench.build"):
        workload.build()
    executed, _ = run_round(workload.round(0))
    samples = workload.check_round(executed)
    modes = ("plain", "spans") + (("tracer",) if workload.traceable else ())
    walls: Dict[str, List[float]] = {mode: [] for mode in modes}
    index = 0
    for _ in range(workload.traced_rounds):
        for mode in modes:
            index += 1  # fresh anchors for every round of every mode
            ops = workload.round(
                index, tracer=Tracer() if mode == "tracer" else None
            )
            gc.collect()
            executed, wall = run_round(ops, spans if mode == "spans" else None)
            walls[mode].append(wall)
            samples.extend(workload.check_round(executed))
    metrics = workload.probe(spans)
    metrics.update(profile_layers(workload.round(index + 1)))
    metrics["workload.generate.s"] = spans.total("bench.build")
    for mode, name in (
        ("spans", "bench.tracing_overhead_x"),
        ("tracer", "obs.traced_slowdown_x"),
    ):
        if mode in walls:
            pairs = zip(walls[mode], walls["plain"])
            metrics[name] = statistics.median(w / p for w, p in pairs)
    workload.finish(samples)
    metrics["bench.oracle_s"] = workload.oracle_seconds
    return metrics, samples
