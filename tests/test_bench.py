"""Smoke tests for the benchmark harness (tiny scale, single repeat)."""

import copy
import json

import pytest

from repro.bench import check_against, run_all
from repro.bench.runner import format_summary

FEDERATION_STRATEGIES = ("adaptive", "parallel", "naive", "bound", "collect")

ADAPTIVE_WORKLOADS = (
    "path2@3p",
    "selective@3p",
    "union_filter@3p",
    "path3@5p",
)

PARALLEL_WORKLOADS = (
    "path2@3p",
    "union_filter@3p",
    "exclusive@3p",
    "path3@5p",
)

STREAMING_WORKLOADS = (
    "deep_sel@3p",
    "deep_sel@5p",
    "optional@3p",
    "optional_filter@3p",
)

LIMIT_WORKLOADS = (
    "deep_bound@3p",
    "deep_pipelined@3p",
    "topk@3p",
    "ask@3p",
)

#: Limit-suite workloads where the gate demands a *strict* win.
DEEP_LIMIT_WORKLOADS = ("deep_bound@3p", "deep_pipelined@3p", "ask@3p")

FAULT_WORKLOADS = (
    "flaky@3p",
    "flaky_parallel@3p",
    "outage@3p",
    "failover@3p",
    "blackout@3p",
)

#: The one fault scenario that must come back flagged partial.
UNRECOVERABLE_FAULT_WORKLOADS = ("blackout@3p",)

OBS_WORKLOADS = ("serial@3p", "runtime@3p")

CONCURRENCY_LOADS = (2, 4, 8)
CONCURRENCY_WINDOWS = (1, 2, 8)

EXPECTED_BENCHMARKS = {
    "match/by_subject",
    "match/by_predicate",
    "match/by_object",
    "match/subject_predicate",
    "match/repeated_variable",
    "join/path2",
    "join/path3",
    "join/star2",
    "join/star3",
    "chase/chain",
    "chase/cycle",
    "sparql/bgp_path2",
    "sparql/bgp_star2",
    "sparql/union",
    "sparql/filter",
    "sparql/union_join",
    "columnar/plan_cache",
} | {
    f"federation/{strategy}@{facts}"
    for strategy in FEDERATION_STRATEGIES
    for facts in (20, 60, 120)
} | {
    f"adaptive/{workload}:{strategy}"
    for workload in ADAPTIVE_WORKLOADS
    for strategy in FEDERATION_STRATEGIES
} | {
    f"parallel/{workload}:{mode}"
    for workload in PARALLEL_WORKLOADS
    for mode in ("serial", "parallel")
} | {
    f"streaming/{workload}:{mode}"
    for workload in STREAMING_WORKLOADS
    for mode in ("wave", "pipelined")
} | {
    f"limit/{workload}:{kind}"
    for workload in LIMIT_WORKLOADS
    for kind in ("unlimited", "limited")
} | {
    f"faults/{workload}:{mode}"
    for workload in FAULT_WORKLOADS
    for mode in ("faultfree", "faulty")
} | {
    f"obs/{workload}" for workload in OBS_WORKLOADS
} | {
    f"concurrency/load{load}:{variant}"
    for load in CONCURRENCY_LOADS
    for variant in tuple(f"w{w}" for w in CONCURRENCY_WINDOWS)
    + ("adaptive",)
} | {
    f"concurrency/skew:{discipline}" for discipline in ("fifo", "wrr")
}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_core.json"
    report = run_all(scale=800, repeat=1, out=str(out), peers=3)
    return report, out


def test_report_written_and_parseable(report):
    data, out = report
    assert out.exists()
    on_disk = json.loads(out.read_text())
    assert on_disk["suite"] == "core"
    assert on_disk["scale"] == 800
    assert {row["name"] for row in on_disk["benchmarks"]} == EXPECTED_BENCHMARKS
    assert on_disk == json.loads(json.dumps(data))


def test_comparative_rows_have_baseline_and_speedup(report):
    data, _ = report
    for row in data["benchmarks"]:
        assert row["seconds"] >= 0
        if row["name"].startswith(
            ("match/", "join/", "sparql/", "columnar/", "obs/")
        ):
            assert row["baseline_seconds"] >= 0
            assert row["speedup"] > 0
        else:
            assert "baseline_seconds" not in row


def test_federation_rows_account_messages(report):
    data, _ = report
    rows = {
        row["name"]: row["meta"]
        for row in data["benchmarks"]
        if row["name"].startswith("federation/")
    }
    for facts in (20, 60, 120):
        naive = rows[f"federation/naive@{facts}"]
        bound = rows[f"federation/bound@{facts}"]
        collect = rows[f"federation/collect@{facts}"]
        adaptive = rows[f"federation/adaptive@{facts}"]
        # The acceptance invariant: bound joins ship strictly fewer
        # messages than naive per-pattern shipping.
        assert bound["messages"] < naive["messages"]
        # All strategies agree on the answer set size.
        assert (
            naive["results"]
            == bound["results"]
            == collect["results"]
            == adaptive["results"]
        )
        # Only the collect baseline dumps every triple.
        assert collect["triples_transferred"] > 0
        assert naive["triples_transferred"] == 0
        assert naive["busy_seconds"] > 0


def test_adaptive_rows_never_pareto_dominated(report):
    data, _ = report
    rows = {
        row["name"]: row["meta"]
        for row in data["benchmarks"]
        if row["name"].startswith("adaptive/")
    }
    assert rows
    for workload in ADAPTIVE_WORKLOADS:
        chosen = rows[f"adaptive/{workload}:adaptive"]
        transfer = (
            chosen["solutions_transferred"] + chosen["triples_transferred"]
        )
        for strategy in ("naive", "bound", "collect"):
            other = rows[f"adaptive/{workload}:{strategy}"]
            other_transfer = (
                other["solutions_transferred"] + other["triples_transferred"]
            )
            assert chosen["results"] == other["results"]
            assert not (
                chosen["messages"] > other["messages"]
                and transfer > other_transfer
            ), (workload, strategy)


def test_summary_mentions_every_benchmark(report):
    data, _ = report
    text = format_summary(data)
    for name in EXPECTED_BENCHMARKS:
        assert name in text


def test_run_without_out_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_all(scale=300, repeat=1, out=None, peers=3)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Regression gate (--check)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def committed(report):
    """A committed-style report whose smoke block is the tiny run itself."""
    data, _ = report
    full = copy.deepcopy(data)
    full["smoke"] = copy.deepcopy(data)
    return full


def test_check_passes_against_itself(report, committed):
    data, _ = report
    outcome = check_against(committed, fresh=copy.deepcopy(data))
    assert outcome.ok, outcome.summary()
    assert outcome.checked == len(EXPECTED_BENCHMARKS)
    assert "OK" in outcome.summary()


def test_check_fails_without_smoke_block(report):
    data, _ = report
    outcome = check_against({"benchmarks": []}, fresh=copy.deepcopy(data))
    assert not outcome.ok
    assert "smoke" in outcome.failures[0]


def test_check_fails_on_missing_benchmark(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    fresh["benchmarks"] = [
        row for row in fresh["benchmarks"] if row["name"] != "join/path2"
    ]
    outcome = check_against(committed, fresh=fresh)
    assert not outcome.ok
    assert any("join/path2" in failure for failure in outcome.failures)


def test_check_fails_on_speedup_regression(report, committed):
    data, _ = report
    doctored = copy.deepcopy(committed)
    for row in doctored["smoke"]["benchmarks"]:
        if row.get("speedup") is not None:
            row["speedup"] = row["speedup"] * 100.0
    outcome = check_against(doctored, fresh=copy.deepcopy(data))
    assert not outcome.ok
    assert any("fell more than" in failure for failure in outcome.failures)


def test_check_tolerance_band_absorbs_small_drift(report, committed):
    data, _ = report
    doctored = copy.deepcopy(committed)
    for row in doctored["smoke"]["benchmarks"]:
        if row.get("speedup") is not None:
            row["speedup"] = row["speedup"] * 1.5  # within the 2x band
    outcome = check_against(doctored, fresh=copy.deepcopy(data))
    assert outcome.ok, outcome.summary()


def test_check_fails_on_deterministic_metric_drift(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    for row in fresh["benchmarks"]:
        if row["name"] == "federation/bound@60":
            row["meta"]["messages"] += 5
    outcome = check_against(committed, fresh=fresh)
    assert not outcome.ok
    assert any("messages changed" in failure for failure in outcome.failures)


def test_check_median_absorbs_one_noisy_run(report, committed):
    # A single timing outlier (e.g. a preempted CI runner) must not fail
    # the gate: the median over three runs discards it.
    data, _ = report
    noisy = copy.deepcopy(data)
    for row in noisy["benchmarks"]:
        if row.get("speedup") is not None:
            row["speedup"] = row["speedup"] / 100.0
    runs = [copy.deepcopy(data), noisy, copy.deepcopy(data)]
    outcome = check_against(committed, fresh=runs)
    assert outcome.ok, outcome.summary()


def test_check_fails_on_reproducible_median_regression(report, committed):
    data, _ = report
    runs = []
    for _ in range(3):
        slow = copy.deepcopy(data)
        for row in slow["benchmarks"]:
            if row.get("speedup") is not None:
                row["speedup"] = row["speedup"] / 100.0
        runs.append(slow)
    outcome = check_against(committed, fresh=runs)
    assert not outcome.ok
    failure = next(f for f in outcome.failures if "median speedup" in f)
    # The failure names the suite that drifted.
    assert "suite" in failure


def test_check_fails_when_adaptive_plan_is_dominated(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    # Doctor fresh and committed identically so only the Pareto
    # invariant trips, not the deterministic-metric comparison.
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "adaptive/path2@3p:adaptive":
                row["meta"]["messages"] = 10_000
                row["meta"]["solutions_transferred"] = 10_000
                row["meta"]["triples_transferred"] = 10_000
                row["meta"]["transfer_units"] = 20_000
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any("dominated by" in failure for failure in outcome.failures)


def test_streaming_rows_keep_traffic_and_win_wall_clock(report):
    data, _ = report
    rows = {
        row["name"]: row["meta"]
        for row in data["benchmarks"]
        if row["name"].startswith("streaming/")
    }
    assert rows
    strict_win = False
    for workload in STREAMING_WORKLOADS:
        wave = rows[f"streaming/{workload}:wave"]
        pipelined = rows[f"streaming/{workload}:pipelined"]
        assert pipelined["results"] == wave["results"]
        # Pipelining changes the timeline, never the traffic.
        assert pipelined["messages"] == wave["messages"]
        assert (
            pipelined["solutions_transferred"]
            == wave["solutions_transferred"]
        )
        assert (
            pipelined["elapsed_seconds"] <= wave["elapsed_seconds"] + 1e-9
        )
        if pipelined["elapsed_seconds"] < wave["elapsed_seconds"] - 1e-9:
            strict_win = True
    assert strict_win


def test_check_fails_when_pipelining_loses_wall_clock(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    # Doctor fresh and committed identically so only the pipelining
    # invariant trips, not the deterministic-metric comparison.
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "streaming/deep_sel@3p:pipelined":
                row["meta"]["elapsed_seconds"] = 10_000.0
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any(
        "exceeds the wave barrier" in failure for failure in outcome.failures
    )


def test_limit_rows_cut_messages_and_makespan(report):
    data, _ = report
    rows = {
        row["name"]: row["meta"]
        for row in data["benchmarks"]
        if row["name"].startswith("limit/")
    }
    assert rows
    for workload in LIMIT_WORKLOADS:
        full = rows[f"limit/{workload}:unlimited"]
        cut = rows[f"limit/{workload}:limited"]
        assert cut["messages"] <= full["messages"], workload
        if workload in DEEP_LIMIT_WORKLOADS:
            # Demand propagation must demonstrably stop the pipeline,
            # not merely discard surplus rows after paying for them.
            assert cut["messages"] < full["messages"], workload
            assert cut["elapsed_seconds"] < full["elapsed_seconds"], workload


def test_check_fails_when_limit_stops_saving_messages(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    # Doctor fresh and committed identically so only the demand
    # invariant trips, not the deterministic-metric comparison.
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "limit/deep_bound@3p:limited":
                row["meta"]["messages"] = 10_000
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any(
        "capped run shipped more messages" in failure
        for failure in outcome.failures
    )


def test_check_fails_when_limit_loses_its_makespan_win(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "limit/ask@3p:limited":
                row["meta"]["elapsed_seconds"] = 10_000.0
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any(
        "no strict makespan win" in failure for failure in outcome.failures
    )


def test_check_fails_when_pipelining_changes_messages(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "streaming/deep_sel@3p:pipelined":
                row["meta"]["messages"] += 7
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any(
        "changed the message count" in failure
        for failure in outcome.failures
    )


def test_fault_rows_recover_or_flag(report):
    data, _ = report
    rows = {
        row["name"]: row["meta"]
        for row in data["benchmarks"]
        if row["name"].startswith("faults/")
    }
    assert rows
    for workload in FAULT_WORKLOADS:
        faultfree = rows[f"faults/{workload}:faultfree"]
        faulty = rows[f"faults/{workload}:faulty"]
        # The scenario injected something real and stayed in budget.
        assert faulty["failures"] + faulty["timeouts"] > 0, workload
        assert faulty["messages"] <= faulty["retry_budget"], workload
        if workload in UNRECOVERABLE_FAULT_WORKLOADS:
            assert faulty["partial"] == 1, workload
            assert faulty["unreachable"] >= 1, workload
            assert faulty["results"] <= faultfree["results"], workload
        else:
            assert faulty["partial"] == 0, workload
            assert faulty["results"] == faultfree["results"], workload


def test_check_fails_when_partial_answer_goes_unflagged(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    # Doctor fresh and committed identically so only the faults
    # invariant trips, not the deterministic-metric comparison.
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "faults/blackout@3p:faulty":
                row["meta"]["partial"] = 0
                row["meta"]["unreachable"] = 0
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any(
        "silently wrong subset" in failure for failure in outcome.failures
    )


def test_check_fails_when_recovery_loses_answers(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "faults/flaky@3p:faulty":
                row["meta"]["results"] -= 1
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any(
        "recoverable run did not match" in failure
        for failure in outcome.failures
    )


def test_check_fails_when_retry_traffic_blows_the_budget(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "faults/flaky@3p:faulty":
                row["meta"]["messages"] = 10_000
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any(
        "exceed the retry budget" in failure for failure in outcome.failures
    )


def test_obs_rows_carry_telemetry_flags(report):
    data, _ = report
    rows = {
        row["name"]: row
        for row in data["benchmarks"]
        if row["name"].startswith("obs/")
    }
    assert set(rows) == {f"obs/{w}" for w in OBS_WORKLOADS}
    for row in rows.values():
        meta = row["meta"]
        assert meta["trace_valid"] == 1
        assert meta["trace_stable"] == 1
        assert meta["analyze_stable"] == 1
        assert meta["span_count"] > 0
        assert meta["metrics"]  # cumulative registry snapshot embedded
        assert row["speedup"] > 0


def test_check_fails_when_trace_stability_breaks(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    # Doctor fresh and committed identically so only the obs invariant
    # trips, not the deterministic-metric comparison.
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "obs/serial@3p":
                row["meta"]["trace_stable"] = 0
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any(
        "trace_stable flag is unset" in failure
        for failure in outcome.failures
    )


def test_check_fails_when_instrumented_run_has_no_spans(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "obs/runtime@3p":
                row["meta"]["span_count"] = 0
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any(
        "collected no spans" in failure for failure in outcome.failures
    )


def test_concurrency_rows_carry_gated_metrics(report):
    data, _ = report
    rows = {
        row["name"]: row
        for row in data["benchmarks"]
        if row["name"].startswith("concurrency/")
    }
    any_strict = False
    for load in CONCURRENCY_LOADS:
        adaptive = rows[f"concurrency/load{load}:adaptive"]["meta"]
        assert adaptive["tenants"] == load
        assert adaptive["adjustments"] > 0
        for window in CONCURRENCY_WINDOWS:
            fixed = rows[f"concurrency/load{load}:w{window}"]["meta"]
            assert fixed["tenants"] == load
            assert adaptive["p95_us"] <= fixed["p95_us"]
            any_strict |= adaptive["p95_us"] < fixed["p95_us"]
    assert any_strict
    fifo = rows["concurrency/skew:fifo"]["meta"]
    wrr = rows["concurrency/skew:wrr"]["meta"]
    assert wrr["ratio_x1000"] < fifo["ratio_x1000"]


def test_check_fails_when_adaptive_loses_to_fixed_window(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    # Doctor fresh and committed identically so only the concurrency
    # invariant trips, not the deterministic-metric comparison.
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "concurrency/load4:adaptive":
                row["meta"]["p95_us"] = 10**9
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any(
        "adaptive p95" in failure and "exceeds fixed window" in failure
        for failure in outcome.failures
    )


def test_check_fails_when_wrr_stops_bounding_skew(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "concurrency/skew:wrr":
                row["meta"]["ratio_x1000"] = 10**9
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any(
        "did not improve on FIFO" in failure
        for failure in outcome.failures
    )


def test_columnar_rows_win_and_cache_counters(report):
    data, _ = report
    rows = {
        row["name"]: row
        for row in data["benchmarks"]
        if row["name"].startswith("columnar/")
    }
    assert set(rows) == {"columnar/plan_cache"}
    # A hit skips parse and plan, so the hot run must beat the cold one.
    assert rows["columnar/plan_cache"]["speedup"] > 1.0
    meta = rows["columnar/plan_cache"]["meta"]
    assert meta["hot_misses"] == 0 and meta["hot_hits"] >= 1
    assert meta["cold_hits"] == 0 and meta["cold_misses_last_call"] == 1


def test_check_fails_when_plan_cache_stops_hitting(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    doctored = copy.deepcopy(committed)
    for blob in (fresh["benchmarks"], doctored["smoke"]["benchmarks"]):
        for row in blob:
            if row["name"] == "columnar/plan_cache":
                row["meta"]["hot_misses"] = row["meta"]["hot_hits"]
                row["meta"]["hot_hits"] = 0
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any(
        "not served entirely from the cache" in failure
        for failure in outcome.failures
    )


def test_check_fails_when_bound_loses_message_advantage(report, committed):
    data, _ = report
    fresh = copy.deepcopy(data)
    for row in fresh["benchmarks"]:
        if row["name"].startswith("federation/bound@"):
            row["meta"]["messages"] = 10_000
    # Doctor the committed metas identically so only the invariant trips.
    doctored = copy.deepcopy(committed)
    for row in doctored["smoke"]["benchmarks"]:
        if row["name"].startswith("federation/bound@"):
            row["meta"]["messages"] = 10_000
    outcome = check_against(doctored, fresh=fresh)
    assert not outcome.ok
    assert any("not fewer than naive" in failure for failure in outcome.failures)
