"""Adaptive concurrency control: AIMD window and batch-size tuning.

PR 4 gave the runtime fixed constructor knobs — a per-endpoint
``max_in_flight`` window and a bound-join ``batch_size`` — and PR 9's
:class:`~repro.runtime.channel.ChannelStats` started recording exactly
the signals a controller needs to tune them: per-request queueing delay
and service durations.  This module closes the loop, in the style of
ANAPSID's adaptive request dispatch and TCP's AIMD congestion window:

* :class:`AimdController` watches every completion on a channel (the
  :attr:`~repro.runtime.channel.Channel.observer` hook) and, once per
  *epoch* of completions, compares the epoch's mean queueing delay
  against its mean service time.  Congestion — waiting longer than
  being served, scaled by :attr:`AimdSettings.congestion_ratio` and
  sharpened when service-time variance is high — multiplicatively
  shrinks the channel's in-flight window; a calm epoch additively grows
  it.  Adjustments happen *inside the virtual clock* via
  :meth:`~repro.runtime.channel.Channel.set_window`, so the window a
  request sees depends on the live contention that preceded it.

* :meth:`AimdController.recommend_batch` is the between-waves half:
  after a full replay it reads the aggregate channel statistics and
  recommends the next planning round's bound-join batch size — larger
  batches (fewer, heavier messages) when queueing dominates, smaller
  batches (more overlap) when lanes sit idle.

Everything is a pure function of the replayed event order: no wall
clock, no randomness.  Re-running the same recorded DAGs reproduces
every adjustment byte-for-byte, which the multi-tenant determinism
tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.runtime.channel import Channel, ChannelStats, Request

__all__ = ["AimdController", "AimdSettings", "WindowAdjustment"]


@dataclass(frozen=True)
class AimdSettings:
    """Tuning constants of the AIMD window controller.

    Attributes:
        epoch: completions per adjustment window (>= 1).
        increase: additive window growth after a calm epoch.
        decrease: multiplicative back-off factor on congestion
            (0 < decrease < 1).
        congestion_ratio: an epoch is congested when its mean queueing
            delay exceeds ``congestion_ratio`` times its mean service
            time (halved when service-time variance exceeds the
            squared mean — lumpy traffic tolerates less queueing).
        start_window: initial in-flight window per channel (clamped
            below by the channel's lane count).
        max_window: upper bound on the adapted window.
        batch_min/batch_max: clamp for :meth:`recommend_batch`.
    """

    epoch: int = 4
    increase: int = 2
    decrease: float = 0.5
    congestion_ratio: float = 1.0
    start_window: int = 4
    max_window: int = 64
    batch_min: int = 8
    batch_max: int = 256

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise SimulationError(f"epoch must be >= 1: {self.epoch}")
        if not 0.0 < self.decrease < 1.0:
            raise SimulationError(
                f"decrease must be in (0, 1): {self.decrease}"
            )
        if self.increase < 1:
            raise SimulationError(f"increase must be >= 1: {self.increase}")
        if self.start_window < 1 or self.max_window < self.start_window:
            raise SimulationError(
                f"window bounds invalid: start={self.start_window} "
                f"max={self.max_window}"
            )


@dataclass
class WindowAdjustment:
    """One controller decision: a window change on one channel.

    ``epoch_start``/``at`` bound the completion epoch that triggered
    the decision on the virtual clock — the ``controller:`` span the
    trace export renders.
    """

    channel: str
    epoch_start: float
    at: float
    before: int
    after: int
    congested: bool
    queueing_delay: float
    service_variance: float


@dataclass
class _Epoch:
    """Per-channel accumulator for the current completion epoch."""

    started_at: float = 0.0
    completions: int = 0
    wait_seconds: float = 0.0
    busy_seconds: float = 0.0
    busy_seconds_sq: float = 0.0


class AimdController:
    """Additive-increase / multiplicative-decrease window control.

    One controller instance serves every channel of one replay; attach
    it by passing ``observer=controller.observe`` (and
    ``max_in_flight=controller.initial_window(...)``) when building
    channels — :class:`~repro.runtime.scheduler.QueryScheduler` does both
    when given a controller.
    """

    def __init__(self, settings: Optional[AimdSettings] = None) -> None:
        self.settings = settings if settings is not None else AimdSettings()
        self.adjustments: List[WindowAdjustment] = []
        self.epochs: int = 0
        self._state: Dict[str, _Epoch] = {}

    def initial_window(self, concurrency: int) -> int:
        """The window a channel starts from (never below its lanes)."""
        return max(concurrency, self.settings.start_window)

    def observe(self, channel: Channel, request: Request) -> None:
        """Digest one completion; adjust the window on epoch boundaries.

        Runs inside the virtual clock (the channel's completion
        handler), before the freed slot is refilled — so a shrink
        decided here keeps the next backlogged request out of the
        window, and a growth admits more of the backlog at this very
        instant.
        """
        state = self._state.get(channel.name)
        if state is None:
            state = _Epoch(started_at=channel.kernel.now)
            self._state[channel.name] = state
        if state.completions == 0:
            state.started_at = min(state.started_at, request.arrived_at)
        state.completions += 1
        state.wait_seconds += request.waited
        state.busy_seconds += request.duration
        state.busy_seconds_sq += request.duration * request.duration
        if state.completions < self.settings.epoch:
            return
        self._adjust(channel, state)
        self._state[channel.name] = _Epoch(started_at=channel.kernel.now)

    def _adjust(self, channel: Channel, state: _Epoch) -> None:
        settings = self.settings
        self.epochs += 1
        completions = state.completions
        delay = state.wait_seconds / completions
        mean = state.busy_seconds / completions
        variance = max(
            0.0, state.busy_seconds_sq / completions - mean * mean
        )
        # Lumpy service times tolerate less queueing: one oversized
        # transfer behind a wide window stalls the whole queue, so the
        # congestion threshold halves when the spread exceeds the mean.
        ratio = settings.congestion_ratio
        if mean > 0.0 and variance > mean * mean:
            ratio /= 2.0
        congested = delay > ratio * mean
        before = (
            channel.max_in_flight
            if channel.max_in_flight is not None
            else settings.max_window
        )
        if congested:
            after = max(
                channel.concurrency, int(before * settings.decrease)
            )
        else:
            after = min(settings.max_window, before + settings.increase)
        if after != before:
            channel.set_window(after)
            self.adjustments.append(
                WindowAdjustment(
                    channel=channel.name,
                    epoch_start=state.started_at,
                    at=channel.kernel.now,
                    before=before,
                    after=after,
                    congested=congested,
                    queueing_delay=delay,
                    service_variance=variance,
                )
            )

    def recommend_batch(
        self, channel_stats: Dict[str, ChannelStats], current: int
    ) -> int:
        """Next planning round's bound-join batch size.

        Reads the aggregate statistics of a finished replay: when
        queueing delay dominates service time the endpoints are
        saturated, so the controller doubles the batch (fewer, heavier
        messages cut per-message latency overhead and queue slots);
        when requests barely wait, it halves the batch to manufacture
        overlap for the idle lanes.  The result is clamped to
        ``[batch_min, batch_max]`` and returned unchanged in the
        comfortable middle band.
        """
        completed = sum(s.completed for s in channel_stats.values())
        if not completed or current < 1:
            return current
        wait = sum(s.wait_seconds for s in channel_stats.values())
        busy = sum(s.busy_seconds for s in channel_stats.values())
        delay = wait / completed
        mean = busy / completed
        settings = self.settings
        if delay > mean:
            return min(settings.batch_max, current * 2)
        if delay < mean / 4.0:
            return max(settings.batch_min, current // 2)
        return current
