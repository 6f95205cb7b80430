"""Benchmark regression gate: compare a fresh smoke run to baselines.

``python -m repro.bench --check`` re-runs every suite at the committed
smoke parameters and compares the fresh records against the ``smoke``
block of the committed report (``BENCH_core.json``).  Raw wall-clock
seconds are *not* compared — CI runners and developer machines differ by
far more than any real regression — instead the gate checks the two
classes of quantity that survive a machine change:

* **deterministic metrics** — result cardinalities, chase rounds and
  solution sizes, federation message counts and transfer volumes.  These
  are seeded and must match the committed values exactly; any drift is a
  behaviour change, not noise.
* **machine-normalised speedups** — each comparative benchmark times the
  optimised implementation *and* the frozen seed implementation in the
  same process, so their ratio cancels the machine.  Ratios are
  aggregated per suite (geometric mean over e.g. all ``sparql/*``
  rows), because individual smoke-scale rows run in fractions of a
  millisecond and jitter.  To keep a single noisy timing from failing
  CI, the smoke suites run ``runs`` times (default 3) and the gate
  compares the *median* per-suite aggregate; it fails when that median
  falls below the committed aggregate divided by the tolerance
  (default 2x), i.e. on a reproducible >2x relative slowdown of a
  suite, and the failure names the suite and metric that drifted.

The gate also re-asserts nine behaviour invariants on the fresh
records: the prepared-plan cache's recorded counters show the hot run
all-hits and the cold run all-misses,
bound joins ship strictly fewer messages than naive shipping,
the adaptive plan is never Pareto-dominated by a fixed strategy (worse
on messages *and* transfer simultaneously) on any adaptive-suite
workload, the parallel mode's makespan (``elapsed_seconds``) never
exceeds the serial adaptive plan's on any parallel-suite workload —
with exclusive groups cutting messages on at least one of them —
pipelined bound joins never lose wall clock to wave barriers on any
streaming-suite workload while shipping the same messages, with a
strict makespan win on at least one, and a solution-modifier cap never
costs messages on any limit-suite workload while strictly cutting both
messages and makespan on the deep bound-join workloads (demand
propagation actually stops the pipeline), and on every faults-suite
scenario a recoverable faulty run returns exactly as many answers as
its fault-free twin with no partial flag, an unrecoverable run is
*flagged* partial (never an unflagged subset), and retry traffic stays
within the ``messages * (1 + max_retries) * (1 + replicas)`` budget,
and on every obs-suite record the telemetry layer's recorded flags
show the exported trace validated against the Chrome ``trace_event``
shape, the virtual-domain export and the ANALYZE explain stayed
byte-stable across repeated seeded runs, spans were actually
collected, and the disabled-vs-instrumented overhead comparison is
present (its per-suite speedup ratio rides the regular tolerance
gate, bounding how much overhead the disabled tracing path may
silently grow), and on the concurrency suite the AIMD adaptive
controller's p95 makespan is never worse than any fixed in-flight
window at any offered-load point and strictly better on at least one,
while weighted round-robin keeps the skewed workload's max/min
per-tenant stretch ratio strictly below FIFO's.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.bench.runner import build_report

__all__ = [
    "CheckOutcome",
    "check_against",
    "DEFAULT_TOLERANCE",
    "DEFAULT_RUNS",
]

#: A fresh speedup may be up to this factor below the committed one.
DEFAULT_TOLERANCE = 2.0

#: Fresh smoke runs per check; the speedup comparison uses their median
#: so one noisy timing cannot fail the gate.
DEFAULT_RUNS = 3

#: Integer meta fields that are deterministic given the seeded workloads
#: and must match the committed baseline exactly.
GATED_META = (
    "result",
    "results",
    "rounds",
    "solution_triples",
    "messages",
    "solutions_transferred",
    "triples_transferred",
    "retries",
    "failures",
    "timeouts",
    "failovers",
    "partial",
    "unreachable",
    "span_count",
    "trace_valid",
    "trace_stable",
    "analyze_stable",
    "tenants",
    "p95_us",
    "makespan_us",
    "adjustments",
    "ratio_x1000",
)


@dataclass
class CheckOutcome:
    """Result of one regression check.

    Attributes:
        ok: True when no comparison failed.
        failures: human-readable description of every failed comparison.
        checked: number of benchmark records compared.
        fresh_report: the freshly produced smoke report (for artifacts).
    """

    ok: bool
    failures: List[str] = field(default_factory=list)
    checked: int = 0
    fresh_report: Optional[Dict[str, Any]] = None

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [
            f"bench check: {status} "
            f"({self.checked} records, {len(self.failures)} failures)"
        ]
        lines.extend(f"  - {failure}" for failure in self.failures)
        return "\n".join(lines)


def check_against(
    committed: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    fresh: Union[Dict[str, Any], Sequence[Dict[str, Any]], None] = None,
    runs: int = DEFAULT_RUNS,
) -> CheckOutcome:
    """Compare fresh smoke runs against a committed report.

    Args:
        committed: the parsed committed report; its ``smoke`` block holds
            the baselines (regenerate with ``python -m repro.bench``).
        tolerance: allowed relative speedup degradation (>1).
        fresh: pre-computed fresh report or list of reports (tests
            inject small ones); when ``None`` the suites run ``runs``
            times at the committed smoke parameters.
        runs: fresh runs to aggregate when ``fresh`` is ``None``; the
            speedup gate compares the per-suite *median* across runs.

    Returns:
        A :class:`CheckOutcome`; ``ok`` is False on any missing record,
        deterministic-metric drift, invariant violation, or
        reproducible out-of-band slowdown.  Deterministic metrics and
        the behaviour invariants are checked on the first run (they are
        seeded, so every run agrees); only timings are aggregated.
    """
    baseline = committed.get("smoke")
    if baseline is None:
        return CheckOutcome(
            ok=False,
            failures=[
                "committed report has no 'smoke' block; regenerate it with "
                "'python -m repro.bench'"
            ],
        )
    if fresh is None:
        try:
            reports = [
                build_report(
                    scale=baseline.get("scale", 3000),
                    repeat=baseline.get("repeat", 1),
                    peers=baseline.get("peers", 3),
                )
                for _ in range(max(1, runs))
            ]
        except AssertionError as exc:
            # The suites hard-assert behaviour invariants (result
            # equality, bound < naive messages, adaptive never
            # dominated); surface those through the gate's reporting
            # path instead of a raw traceback.
            return CheckOutcome(
                ok=False,
                failures=[f"benchmark suite self-check failed: {exc}"],
            )
    elif isinstance(fresh, dict):
        reports = [fresh]
    else:
        reports = list(fresh)
        if not reports:
            return CheckOutcome(
                ok=False,
                failures=["no fresh reports supplied to compare against"],
            )
    fresh = reports[0]

    failures: List[str] = []
    fresh_rows = {row["name"]: row for row in fresh["benchmarks"]}
    committed_rows = [dict(row) for row in baseline["benchmarks"]]

    for row in committed_rows:
        name = row["name"]
        current = fresh_rows.get(name)
        if current is None:
            failures.append(f"{name}: benchmark disappeared from the suite")
            continue
        committed_meta = row.get("meta", {})
        current_meta = current.get("meta", {})
        for key in GATED_META:
            if key in committed_meta:
                if current_meta.get(key) != committed_meta[key]:
                    failures.append(
                        f"{name}: {key} changed "
                        f"{committed_meta[key]!r} -> {current_meta.get(key)!r}"
                    )
        if row.get("speedup") is not None and current.get("speedup") is None:
            failures.append(f"{name}: speedup measurement disappeared")

    committed_suites = _suite_speedups(committed_rows)
    per_run = [_suite_speedups(report["benchmarks"]) for report in reports]
    for suite, committed_speedup in sorted(committed_suites.items()):
        observed = [
            run[suite] for run in per_run if run.get(suite) is not None
        ]
        if not observed:
            continue  # disappearance already reported per-row above
        current_speedup = statistics.median(observed)
        if current_speedup < committed_speedup / tolerance:
            failures.append(
                f"suite {suite}: median speedup over {len(observed)} "
                f"run(s) {current_speedup:.2f}x fell more than "
                f"{tolerance:g}x below committed {committed_speedup:.2f}x"
            )

    failures.extend(_columnar_invariant(fresh_rows))
    failures.extend(_federation_invariant(fresh_rows))
    failures.extend(_adaptive_invariant(fresh_rows))
    failures.extend(_parallel_invariant(fresh_rows))
    failures.extend(_streaming_invariant(fresh_rows))
    failures.extend(_limit_invariant(fresh_rows))
    failures.extend(_faults_invariant(fresh_rows))
    failures.extend(_obs_invariant(fresh_rows))
    failures.extend(_concurrency_invariant(fresh_rows))
    return CheckOutcome(
        ok=not failures,
        failures=failures,
        checked=len(committed_rows),
        fresh_report=fresh,
    )


def _suite_speedups(rows) -> Dict[str, float]:
    """Geometric-mean speedup per suite (rows without speedups ignored)."""
    grouped: Dict[str, List[float]] = {}
    for row in rows:
        speedup = row.get("speedup")
        if speedup is not None and speedup > 0:
            suite = row["name"].split("/", 1)[0]
            grouped.setdefault(suite, []).append(speedup)
    return {
        suite: math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        for suite, speedups in grouped.items()
    }


def _columnar_invariant(fresh_rows: Dict[str, Dict[str, Any]]) -> List[str]:
    """The plan cache must hit when hot and miss when cold.

    The ``columnar/plan_cache`` record's counter deltas show the hot
    run served entirely from the cache while the cold run missed on
    every call.
    """
    failures = []
    cache = fresh_rows.get("columnar/plan_cache")
    if cache is not None:
        meta = cache.get("meta", {})
        if meta.get("hot_misses") != 0 or not meta.get("hot_hits"):
            failures.append(
                f"columnar/plan_cache: hot run was not served entirely "
                f"from the cache (hits={meta.get('hot_hits')!r}, "
                f"misses={meta.get('hot_misses')!r})"
            )
        if meta.get("cold_hits") != 0 or not meta.get(
            "cold_misses_last_call"
        ):
            failures.append(
                f"columnar/plan_cache: cold run hit a cache that is "
                f"cleared before every call "
                f"(hits={meta.get('cold_hits')!r}, last-call "
                f"misses={meta.get('cold_misses_last_call')!r})"
            )
    return failures


def _adaptive_invariant(fresh_rows: Dict[str, Dict[str, Any]]) -> List[str]:
    """The adaptive plan must not be Pareto-dominated by a fixed strategy.

    For every adaptive-suite workload: no fixed strategy may beat the
    adaptive plan on messages *and* transfer units simultaneously.
    """
    failures = []
    workloads = {
        name[len("adaptive/") :].rsplit(":", 1)[0]
        for name in fresh_rows
        if name.startswith("adaptive/") and ":" in name
    }
    for workload in sorted(workloads):
        chosen = fresh_rows.get(f"adaptive/{workload}:adaptive")
        if chosen is None:
            continue
        chosen_meta = chosen.get("meta", {})
        for strategy in ("naive", "bound", "collect"):
            other = fresh_rows.get(f"adaptive/{workload}:{strategy}")
            if other is None:
                continue
            other_meta = other.get("meta", {})
            messages = chosen_meta.get("messages")
            transfer = chosen_meta.get("transfer_units")
            other_messages = other_meta.get("messages")
            other_transfer = other_meta.get("transfer_units")
            if None in (messages, transfer, other_messages, other_transfer):
                continue
            if messages > other_messages and transfer > other_transfer:
                failures.append(
                    f"adaptive@{workload}: dominated by {strategy} "
                    f"(messages {messages} > {other_messages}, transfer "
                    f"{transfer} > {other_transfer})"
                )
    return failures


def _parallel_invariant(fresh_rows: Dict[str, Dict[str, Any]]) -> List[str]:
    """The parallel mode must win (or tie) wall clock on every workload.

    For every parallel-suite workload the overlap-aware mode's
    ``elapsed_seconds`` may not exceed the serial adaptive plan's, and
    across the suite at least one workload must show the exclusive-group
    message reduction.  Both compare rows of the *same* fresh run, so
    the check is machine-independent.
    """
    failures = []
    workloads = {
        name[len("parallel/") :].rsplit(":", 1)[0]
        for name in fresh_rows
        if name.startswith("parallel/") and ":" in name
    }
    any_message_cut = False
    compared = False
    for workload in sorted(workloads):
        serial = fresh_rows.get(f"parallel/{workload}:serial")
        overlapped = fresh_rows.get(f"parallel/{workload}:parallel")
        if serial is None or overlapped is None:
            continue
        serial_meta = serial.get("meta", {})
        overlapped_meta = overlapped.get("meta", {})
        serial_elapsed = serial_meta.get("elapsed_seconds")
        overlapped_elapsed = overlapped_meta.get("elapsed_seconds")
        if serial_elapsed is None or overlapped_elapsed is None:
            continue
        compared = True
        if overlapped_elapsed > serial_elapsed + 1e-9:
            failures.append(
                f"parallel@{workload}: makespan {overlapped_elapsed:.6f}s "
                f"exceeds the serial plan's {serial_elapsed:.6f}s"
            )
        serial_messages = serial_meta.get("messages")
        overlapped_messages = overlapped_meta.get("messages")
        if (
            serial_messages is not None
            and overlapped_messages is not None
            and overlapped_messages < serial_messages
        ):
            any_message_cut = True
    if compared and not any_message_cut:
        failures.append(
            "parallel suite: no workload showed an exclusive-group "
            "message reduction (parallel messages < serial messages)"
        )
    return failures


def _streaming_invariant(fresh_rows: Dict[str, Dict[str, Any]]) -> List[str]:
    """Pipelined bound joins must never lose wall clock to wave barriers.

    For every streaming-suite workload the pipelined mode's
    ``elapsed_seconds`` may not exceed the wave-barrier mode's, its
    message count must be identical (pipelining changes the timeline,
    not the traffic), and across the suite at least one workload must
    show a strict makespan win.  All comparisons pair rows of the same
    fresh run, so the check is machine-independent.
    """
    failures = []
    workloads = {
        name[len("streaming/") :].rsplit(":", 1)[0]
        for name in fresh_rows
        if name.startswith("streaming/") and ":" in name
    }
    any_strict_win = False
    compared = False
    for workload in sorted(workloads):
        wave = fresh_rows.get(f"streaming/{workload}:wave")
        pipelined = fresh_rows.get(f"streaming/{workload}:pipelined")
        if wave is None or pipelined is None:
            continue
        wave_meta = wave.get("meta", {})
        pipelined_meta = pipelined.get("meta", {})
        wave_elapsed = wave_meta.get("elapsed_seconds")
        pipelined_elapsed = pipelined_meta.get("elapsed_seconds")
        if wave_elapsed is None or pipelined_elapsed is None:
            continue
        compared = True
        if pipelined_elapsed > wave_elapsed + 1e-9:
            failures.append(
                f"streaming@{workload}: pipelined makespan "
                f"{pipelined_elapsed:.6f}s exceeds the wave barrier's "
                f"{wave_elapsed:.6f}s"
            )
        elif pipelined_elapsed < wave_elapsed - 1e-9:
            any_strict_win = True
        wave_messages = wave_meta.get("messages")
        pipelined_messages = pipelined_meta.get("messages")
        if (
            wave_messages is not None
            and pipelined_messages is not None
            and pipelined_messages != wave_messages
        ):
            failures.append(
                f"streaming@{workload}: pipelining changed the message "
                f"count {wave_messages} -> {pipelined_messages}"
            )
    if compared and not any_strict_win:
        failures.append(
            "streaming suite: no workload showed a strict pipelining win "
            "(pipelined elapsed < wave elapsed)"
        )
    return failures


def _limit_invariant(fresh_rows: Dict[str, Dict[str, Any]]) -> List[str]:
    """A solution-modifier cap must never cost work, and must save it.

    For every limit-suite workload the ``:limited`` run's message count
    may not exceed its ``:unlimited`` twin's, and on the deep
    multi-batch workloads (``deep_*``, ``ask*`` — where demand
    propagation is supposed to stop the bound-join pipeline early) both
    messages and ``elapsed_seconds`` must be *strictly* lower.  All
    comparisons pair rows of the same fresh run, so the check is
    machine-independent.
    """
    failures = []
    workloads = {
        name[len("limit/") :].rsplit(":", 1)[0]
        for name in fresh_rows
        if name.startswith("limit/") and ":" in name
    }
    for workload in sorted(workloads):
        unlimited = fresh_rows.get(f"limit/{workload}:unlimited")
        limited = fresh_rows.get(f"limit/{workload}:limited")
        if unlimited is None or limited is None:
            continue
        full_meta = unlimited.get("meta", {})
        cut_meta = limited.get("meta", {})
        full_messages = full_meta.get("messages")
        cut_messages = cut_meta.get("messages")
        if full_messages is None or cut_messages is None:
            continue
        if cut_messages > full_messages:
            failures.append(
                f"limit@{workload}: the capped run shipped more messages "
                f"({cut_messages} > {full_messages})"
            )
        deep = workload.startswith(("deep_", "ask"))
        if not deep:
            continue
        if cut_messages >= full_messages:
            failures.append(
                f"limit@{workload}: no strict message win "
                f"({cut_messages} >= {full_messages}); demand propagation "
                f"did not stop the pipeline"
            )
        full_elapsed = full_meta.get("elapsed_seconds")
        cut_elapsed = cut_meta.get("elapsed_seconds")
        if full_elapsed is None or cut_elapsed is None:
            continue
        if cut_elapsed >= full_elapsed - 1e-9:
            failures.append(
                f"limit@{workload}: no strict makespan win "
                f"({cut_elapsed:.6f}s >= {full_elapsed:.6f}s)"
            )
    return failures


def _faults_invariant(fresh_rows: Dict[str, Dict[str, Any]]) -> List[str]:
    """Fault recovery must be exact and degradation must be flagged.

    For every faults-suite scenario the ``:faulty`` run is paired with
    its ``:faultfree`` twin from the same fresh run.  A scenario marked
    *recoverable* must return exactly as many answers as the fault-free
    twin with no partial flag; an unrecoverable one must come back
    flagged partial with at least one named unreachable endpoint and at
    most the fault-free answer count — a flagged subset, never a
    silently wrong one.  Every faulty run's message count must stay
    within the recorded ``retry_budget``
    (``faultfree messages * (1 + max_retries) * (1 + replicas)``).
    """
    failures = []
    workloads = {
        name[len("faults/") :].rsplit(":", 1)[0]
        for name in fresh_rows
        if name.startswith("faults/") and ":" in name
    }
    for workload in sorted(workloads):
        faultfree = fresh_rows.get(f"faults/{workload}:faultfree")
        faulty = fresh_rows.get(f"faults/{workload}:faulty")
        if faultfree is None or faulty is None:
            continue
        free_meta = faultfree.get("meta", {})
        fault_meta = faulty.get("meta", {})
        free_results = free_meta.get("results")
        fault_results = fault_meta.get("results")
        partial = fault_meta.get("partial")
        if None in (free_results, fault_results, partial):
            continue
        if fault_meta.get("recoverable"):
            if fault_results != free_results or partial:
                failures.append(
                    f"faults@{workload}: recoverable run did not match the "
                    f"fault-free answers unflagged ({fault_results} vs "
                    f"{free_results} results, partial={partial})"
                )
        else:
            if not partial or not fault_meta.get("unreachable"):
                failures.append(
                    f"faults@{workload}: unrecoverable run came back "
                    f"unflagged — a silently wrong subset"
                )
            if fault_results > free_results:
                failures.append(
                    f"faults@{workload}: partial run produced more answers "
                    f"({fault_results}) than fault-free ({free_results})"
                )
        budget = fault_meta.get("retry_budget")
        messages = fault_meta.get("messages")
        if (
            budget is not None
            and messages is not None
            and messages > budget
        ):
            failures.append(
                f"faults@{workload}: {messages} messages exceed the retry "
                f"budget {budget}"
            )
    return failures


def _obs_invariant(fresh_rows: Dict[str, Dict[str, Any]]) -> List[str]:
    """Telemetry must validate, stay byte-stable, and cost nothing off.

    Every obs-suite record's flags are hard-asserted inside the suite
    (a violation aborts the run), so the invariant re-checks what the
    recorded rows can show: the exported trace validated
    (``trace_valid``), the virtual-domain export and the ANALYZE
    explain were byte-identical across repeated seeded runs
    (``trace_stable``/``analyze_stable``), spans were collected
    (``span_count``), and the disabled-vs-instrumented timing pair is
    present — its ratio feeds the per-suite speedup gate, which bounds
    growth of the disabled path's overhead.
    """
    failures = []
    for name, row in sorted(fresh_rows.items()):
        if not name.startswith("obs/"):
            continue
        meta = row.get("meta", {})
        for flag in ("trace_valid", "trace_stable", "analyze_stable"):
            if flag in meta and not meta[flag]:
                failures.append(f"{name}: {flag} flag is unset")
        if "span_count" in meta and not meta["span_count"]:
            failures.append(f"{name}: instrumented run collected no spans")
        if row.get("speedup") is None:
            failures.append(
                f"{name}: disabled-vs-instrumented overhead comparison "
                f"disappeared"
            )
    return failures


def _concurrency_invariant(
    fresh_rows: Dict[str, Dict[str, Any]],
) -> List[str]:
    """Adaptive control must beat fixed windows; WRR must bound skew.

    Per-tenant answer equality with solo execution and adaptive
    byte-determinism are hard-asserted inside the suite (a violation
    aborts the run before any record exists), so the invariant
    re-checks the two performance claims the recorded rows can show.
    At every ``concurrency/load{N}`` offered-load point the
    ``:adaptive`` record's ``p95_us`` may not exceed any fixed
    ``:w{W}`` record's, and across the load points at least one strict
    win is required — otherwise the AIMD controller is dead weight.
    On the skewed flood workload ``concurrency/skew:wrr``'s
    ``ratio_x1000`` (max/min per-tenant stretch, scaled) must be
    strictly below ``concurrency/skew:fifo``'s — weighted round-robin
    must actually bound the starvation FIFO admission allows.  All
    quantities are deterministic microsecond/ratio integers from the
    same fresh run, so the check is machine-independent.
    """
    failures = []
    loads = {
        name[len("concurrency/") :].rsplit(":", 1)[0]
        for name in fresh_rows
        if name.startswith("concurrency/load") and ":" in name
    }
    any_strict_win = False
    compared = False
    for load in sorted(loads):
        adaptive = fresh_rows.get(f"concurrency/{load}:adaptive")
        if adaptive is None:
            continue
        adaptive_p95 = adaptive.get("meta", {}).get("p95_us")
        if adaptive_p95 is None:
            continue
        for name, row in sorted(fresh_rows.items()):
            prefix = f"concurrency/{load}:w"
            if not name.startswith(prefix):
                continue
            fixed_p95 = row.get("meta", {}).get("p95_us")
            if fixed_p95 is None:
                continue
            compared = True
            if adaptive_p95 > fixed_p95:
                failures.append(
                    f"concurrency@{load}: adaptive p95 {adaptive_p95}us "
                    f"exceeds fixed window {name.rsplit(':', 1)[1]}'s "
                    f"{fixed_p95}us"
                )
            elif adaptive_p95 < fixed_p95:
                any_strict_win = True
    if compared and not any_strict_win:
        failures.append(
            "concurrency suite: adaptive control never strictly beat a "
            "fixed in-flight window at any load point"
        )
    fifo = fresh_rows.get("concurrency/skew:fifo")
    wrr = fresh_rows.get("concurrency/skew:wrr")
    if fifo is not None and wrr is not None:
        fifo_ratio = fifo.get("meta", {}).get("ratio_x1000")
        wrr_ratio = wrr.get("meta", {}).get("ratio_x1000")
        if (
            fifo_ratio is not None
            and wrr_ratio is not None
            and wrr_ratio >= fifo_ratio
        ):
            failures.append(
                f"concurrency@skew: weighted round-robin's stretch ratio "
                f"{wrr_ratio} did not improve on FIFO's {fifo_ratio}"
            )
    return failures


def _federation_invariant(fresh_rows: Dict[str, Dict[str, Any]]) -> List[str]:
    """Bound joins must ship strictly fewer messages than naive shipping."""
    failures = []
    scales = {
        name.rsplit("@", 1)[1]
        for name in fresh_rows
        if name.startswith("federation/")
    }
    for scale in sorted(scales, key=lambda s: int(s)):
        naive = fresh_rows.get(f"federation/naive@{scale}")
        bound = fresh_rows.get(f"federation/bound@{scale}")
        if naive is None or bound is None:
            continue
        naive_messages = naive.get("meta", {}).get("messages")
        bound_messages = bound.get("meta", {}).get("messages")
        if (
            naive_messages is not None
            and bound_messages is not None
            and bound_messages >= naive_messages
        ):
            failures.append(
                f"federation@{scale}: bound joins shipped {bound_messages} "
                f"messages, not fewer than naive's {naive_messages}"
            )
    return failures
