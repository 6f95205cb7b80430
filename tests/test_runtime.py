"""Discrete-event runtime: kernel, channels, overlap scheduler."""

import hashlib
import random

import pytest

from conftest import oracle_replay, scheduler_replay
from replay_oracle import COUNTERS
from repro.errors import SimulationError
from repro.runtime import (
    Channel,
    OverlapScheduler,
    QueryScheduler,
    Request,
    SimKernel,
)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def test_kernel_runs_events_in_time_order():
    kernel = SimKernel()
    fired = []
    kernel.schedule(2.0, lambda: fired.append(("b", kernel.now)))
    kernel.schedule(1.0, lambda: fired.append(("a", kernel.now)))
    kernel.schedule(3.0, lambda: fired.append(("c", kernel.now)))
    assert kernel.run() == 3.0
    assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert kernel.events_processed == 3


def test_kernel_breaks_ties_by_scheduling_order():
    kernel = SimKernel()
    fired = []
    for tag in ("first", "second", "third"):
        kernel.schedule(1.0, lambda tag=tag: fired.append(tag))
    kernel.run()
    assert fired == ["first", "second", "third"]


def test_kernel_callbacks_can_schedule_followups():
    kernel = SimKernel()
    fired = []
    kernel.schedule(1.0, lambda: kernel.schedule(0.5, lambda: fired.append(kernel.now)))
    assert kernel.run() == 1.5
    assert fired == [1.5]


def test_kernel_rejects_past_events():
    kernel = SimKernel()
    with pytest.raises(SimulationError, match="past"):
        kernel.schedule(-1.0, lambda: None)
    kernel.schedule(5.0, lambda: None)
    kernel.run()
    with pytest.raises(SimulationError, match="causality"):
        kernel.schedule_at(1.0, lambda: None)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


def _drain(kernel, channel, durations):
    done = []
    for duration in durations:
        channel.submit(Request(duration=duration, on_complete=done.append))
    makespan = kernel.run()
    return makespan, done


def test_single_lane_serialises_requests():
    kernel = SimKernel()
    channel = Channel(kernel, "p0", concurrency=1)
    makespan, done = _drain(kernel, channel, [1.0, 1.0, 1.0])
    assert makespan == 3.0
    assert [r.started_at for r in done] == [0.0, 1.0, 2.0]
    assert channel.stats.completed == 3
    assert channel.stats.busy_seconds == 3.0


def test_lanes_overlap_up_to_concurrency():
    kernel = SimKernel()
    channel = Channel(kernel, "p0", concurrency=3)
    makespan, done = _drain(kernel, channel, [1.0, 1.0, 1.0, 1.0])
    # Three start immediately, the fourth waits for the first free lane.
    assert makespan == 2.0
    assert sorted(r.started_at for r in done) == [0.0, 0.0, 0.0, 1.0]
    # In-flight counts serving + queued: all four are outstanding at t=0.
    assert channel.stats.peak_in_flight == 4


def test_in_flight_window_defers_admission_not_completion_order():
    kernel = SimKernel()
    channel = Channel(kernel, "p0", concurrency=2, max_in_flight=2)
    makespan, done = _drain(kernel, channel, [1.0] * 6)
    assert makespan == 3.0  # same as without the window (FIFO service)
    assert channel.stats.peak_backlog > 0
    # Admission happened in waves as the window freed.
    assert sorted(r.admitted_at for r in done) == [0, 0, 1, 1, 2, 2]


def test_wait_accounting():
    kernel = SimKernel()
    channel = Channel(kernel, "p0", concurrency=1)
    _, done = _drain(kernel, channel, [2.0, 1.0])
    assert done[1].waited == 2.0
    assert channel.stats.wait_seconds == 2.0


def test_channel_validation():
    kernel = SimKernel()
    with pytest.raises(SimulationError, match="concurrency"):
        Channel(kernel, "p0", concurrency=0)
    with pytest.raises(SimulationError, match="max_in_flight"):
        Channel(kernel, "p0", concurrency=4, max_in_flight=2)


# ---------------------------------------------------------------------------
# Overlap scheduler
# ---------------------------------------------------------------------------


def test_independent_requests_overlap():
    scheduler = OverlapScheduler(concurrency=2)
    scheduler.submit("p0", 1.0)
    scheduler.submit("p1", 2.0)
    assert scheduler.makespan() == 2.0
    assert scheduler.busy_seconds() == 3.0


def test_dependency_chain_serialises():
    scheduler = OverlapScheduler()
    first = scheduler.submit("p0", 1.0)
    second = scheduler.submit("p1", 2.0, after=[first])
    third = scheduler.submit("p0", 0.5, after=[second])
    assert scheduler.makespan() == 3.5
    timeline = scheduler.timeline()
    assert [h.completed_at for h in timeline] == [1.0, 3.0, 3.5]


def test_fan_out_then_join():
    # A wave of three requests, then one request gated on all of them.
    scheduler = OverlapScheduler(concurrency=4)
    wave = [scheduler.submit(f"p{i}", 1.0 + i) for i in range(3)]
    joined = scheduler.submit("p0", 1.0, after=wave)
    assert scheduler.makespan() == 4.0  # slowest dep (3.0) + 1.0
    assert scheduler.timeline()[joined.index].started_at == 3.0


def test_channel_contention_limits_overlap():
    scheduler = OverlapScheduler(concurrency=1)
    for _ in range(4):
        scheduler.submit("p0", 1.0)
    assert scheduler.makespan() == 4.0
    stats = scheduler.channel_stats()["p0"]
    assert stats.completed == 4
    assert stats.busy_seconds == 4.0


def test_replay_is_deterministic_and_cached(monkeypatch):
    replays = []
    replay = QueryScheduler._replay

    def counted(scheduler):
        replays.append(scheduler)
        return replay(scheduler)

    monkeypatch.setattr(QueryScheduler, "_replay", counted)

    def build():
        scheduler = OverlapScheduler(concurrency=2)
        wave = [scheduler.submit("p0", 0.25) for _ in range(5)]
        scheduler.submit("p1", 1.0, after=wave[:2])
        scheduler.submit("p1", 1.0, after=wave)
        return scheduler

    first, second = build(), build()
    # Two lanes on p0 finish the wave at 0.75; p1's second request
    # waits for it and ends at 1.75.
    assert first.makespan() == second.makespan() == 1.75
    assert len(replays) == 2
    assert first.makespan() == 1.75
    assert len(replays) == 2
    # Cached until the DAG changes; a new submit invalidates.  The
    # independent p2 request starts at 0 and outlasts the rest.
    first.submit("p2", 10.0)
    assert first.makespan() == 10.0
    assert len(replays) == 3
    assert first.makespan() == 10.0
    assert replays == [first, second, first]


def test_makespan_never_exceeds_busy_seconds():
    scheduler = OverlapScheduler(concurrency=3)
    previous = []
    for i in range(7):
        previous = [scheduler.submit(f"p{i % 2}", 0.5, after=previous[-1:])]
    assert scheduler.makespan() <= scheduler.busy_seconds() + 1e-12


def test_scheduler_validation():
    with pytest.raises(SimulationError, match="concurrency"):
        OverlapScheduler(concurrency=0)
    scheduler = OverlapScheduler()
    with pytest.raises(SimulationError, match="negative"):
        scheduler.submit("p0", -1.0)


# ---------------------------------------------------------------------------
# Replay regression pins
# ---------------------------------------------------------------------------


def _random_dag(seed, serial=False):
    """A seeded request DAG with the shapes the executor records.

    1-3 endpoints, 1-3 lanes, windows ``None``/c/c+1/c+3, retry
    delays, failed attempts, and durations drawn from a few multiples of
    1/4 so arrival and completion ties are common and every time stays
    exact in binary floating point.  The requests are submitted by one
    tenant, ``serial`` or not.  The pins below are the replay of these
    DAGs by the independent oracle, ``tests/replay_oracle.py``.
    """
    rng = random.Random(seed)
    endpoints = [f"p{i}" for i in range(rng.randint(1, 3))]
    concurrency = rng.randint(1, 3)
    window = rng.choice([None, concurrency, concurrency + 1, concurrency + 3])
    scheduler = QueryScheduler(concurrency, window)
    recorder = scheduler.tenant("", serial=serial)
    handles = []
    for _ in range(rng.randint(1, 24)):
        after = rng.sample(handles, rng.randint(0, min(3, len(handles))))
        handles.append(
            recorder.submit(
                rng.choice(endpoints),
                rng.choice([0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 1.5, 2.0]),
                after=after,
                label=f"r{len(handles)}",
                delay=rng.choice([0.0] * 4 + [0.25, 0.75]),
                failed=rng.random() < 0.1,
            )
        )
    return scheduler


def _digest(replays):
    """One sha256 over replayed timelines and channel counters."""
    digest = hashlib.sha256()
    for replay in replays:
        digest.update(repr(replay["times"]).encode())
        for name, counters in sorted(replay["channels"].items()):
            values = tuple(counters[counter] for counter in COUNTERS)
            digest.update(f"{name}={values!r}".encode())
    return digest.hexdigest()


#: Makespan of ``_random_dag(seed)`` for seeds 0-199, and ``_digest``
#: over every DAG's replay; generated from the independent oracle's
#: replay of those DAGs (``python tests/test_runtime.py`` prints both).
REPLAY_MAKESPANS = (
    3.5, 6.75, 10.25, 7.75, 9.0, 9.5, 5.5, 9.25, 2.0, 4.5,
    12.75, 3.75, 3.0, 8.0, 3.5, 6.75, 7.5, 4.0, 10.75, 9.75,
    3.0, 8.25, 18.5, 13.25, 4.5, 7.5, 7.25, 3.5, 8.0, 8.5,
    9.0, 5.0, 8.0, 6.5, 4.25, 7.0, 8.0, 5.25, 8.5, 2.25,
    4.25, 3.0, 8.25, 6.0, 4.0, 4.75, 9.25, 8.75, 6.5, 2.75,
    6.75, 4.75, 9.25, 7.5, 9.0, 20.25, 8.75, 6.5, 12.75, 0.75,
    3.25, 5.25, 4.0, 5.25, 9.25, 7.0, 4.75, 13.25, 7.75, 5.0,
    8.0, 3.75, 4.75, 10.25, 7.0, 8.5, 3.5, 5.0, 18.25, 8.0,
    6.75, 7.5, 3.0, 5.0, 8.0, 5.5, 9.25, 7.25, 7.75, 2.5,
    7.5, 9.75, 7.25, 2.75, 6.0, 5.75, 3.75, 2.75, 5.25, 5.75,
    4.5, 11.0, 3.75, 7.0, 6.5, 1.0, 10.0, 7.25, 8.0, 7.75,
    3.5, 8.0, 9.75, 0.5, 6.25, 10.25, 0.5, 5.5, 6.75, 1.5,
    10.25, 15.75, 3.0, 5.75, 5.5, 18.75, 4.0, 0.5, 2.25, 0.5,
    9.25, 5.25, 3.0, 6.25, 10.75, 7.5, 8.25, 12.5, 12.75, 8.0,
    0.25, 6.25, 2.0, 5.5, 2.0, 6.5, 2.25, 6.0, 9.0, 7.25,
    4.5, 5.75, 6.75, 6.5, 5.25, 6.25, 4.25, 4.0, 1.75, 6.5,
    4.5, 7.25, 7.5, 5.75, 4.25, 2.75, 7.0, 8.75, 4.0, 3.75,
    5.25, 1.5, 10.0, 7.25, 6.75, 15.0, 6.5, 9.5, 8.5, 1.25,
    20.75, 2.75, 4.5, 10.0, 11.5, 10.0, 6.5, 6.75, 1.0, 4.75,
    13.0, 5.75, 8.0, 7.25, 11.0, 6.0, 5.5, 6.0, 1.75, 7.25,
)
REPLAY_DIGEST = (
    "dd34a012e652273c482c73ccd6fe350eb89d436126236b40db859a5c2db70292"
)


def test_replay_matches_pinned_timelines():
    replays = [scheduler_replay(_random_dag(seed)) for seed in range(200)]
    assert tuple(replay["makespan"] for replay in replays) == REPLAY_MAKESPANS
    assert _digest(replays) == REPLAY_DIGEST


def _check_invariants(scheduler):
    """Every request arrives exactly its delay after its last
    dependency completes, starts no earlier, is served for exactly its
    duration and completes once; no window is ever exceeded, and each
    channel's time accounting is the sum over its requests (exact here:
    every time is a multiple of 1/4)."""
    handles = scheduler.timeline()
    for h in handles:
        ready = max((dep.completed_at for dep in h.after), default=0.0)
        assert h.arrived_at == ready + h.delay
        assert h.arrived_at <= h.started_at
        assert h.completed_at == h.started_at + h.seconds
    for name, stats in scheduler.channel_stats().items():
        served = [h for h in handles if h.endpoint == name]
        assert stats.completed == stats.admitted == len(served)
        assert stats.busy_seconds == sum(h.seconds for h in served)
        assert stats.busy_seconds_sq == sum(h.seconds**2 for h in served)
        assert stats.wait_seconds == sum(
            h.started_at - h.arrived_at for h in served
        )
        if scheduler.max_in_flight is not None:
            assert stats.peak_in_flight <= scheduler.max_in_flight


def test_replay_equals_the_independent_oracle():
    # tests/replay_oracle.py fires the same DAGs as a timed net whose
    # tie-breaks are explicit priorities; the scheduler must agree with
    # it on every request's arrive/start/finish and every channel's
    # counters, on a serial tenant and on a free one, and both keep the
    # replay's invariants.  The pins are the oracle's.
    free = []
    for serial in (False, True):
        for seed in range(200):
            scheduler = _random_dag(seed, serial)
            expected = oracle_replay(scheduler)
            assert scheduler_replay(scheduler) == expected, (seed, serial)
            _check_invariants(scheduler)
            if not serial:
                free.append(expected)
    assert tuple(replay["makespan"] for replay in free) == REPLAY_MAKESPANS
    assert _digest(free) == REPLAY_DIGEST


def test_serial_tenant_replays_the_left_fold():
    # The same 200 DAGs on a serial tenant: one request at a time, so
    # the makespan is the left fold of every request's wait and
    # duration in submission order, and no channel ever holds two
    # requests or makes one wait.
    for seed in range(200):
        scheduler = _random_dag(seed, serial=True)
        clock = 0.0
        for handle in scheduler.timeline():
            clock += handle.delay
            clock += handle.seconds
        assert scheduler.makespan() == clock, seed
        for stats in scheduler.channel_stats().values():
            assert stats.peak_in_flight == 1, seed
            assert stats.wait_seconds == 0, seed
            assert stats.peak_backlog == 0, seed


if __name__ == "__main__":
    replays = [oracle_replay(_random_dag(seed)) for seed in range(200)]
    print(tuple(replay["makespan"] for replay in replays))
    print(_digest(replays))
