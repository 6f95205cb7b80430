"""Deterministic discrete-event runtime for overlap-aware scheduling.

The simulation layer beneath the federation stack's parallel execution
mode:

* :mod:`repro.runtime.kernel` — the event-queue/virtual-clock kernel;
* :mod:`repro.runtime.channel` — per-endpoint request channels with
  configurable service concurrency and in-flight windows;
* :mod:`repro.runtime.scheduler` — the two-phase query scheduler:
  records N ≥ 1 queries' dependency DAGs of priced requests during
  execution, then replays them through one shared kernel and one
  channel per endpoint into a makespan (``elapsed_seconds``, the
  concurrency-aware counterpart of the network model's summed
  ``busy_seconds``), with pluggable backlog fairness; a single query
  is a one-tenant replay;
* :mod:`repro.runtime.control` — AIMD adaptive concurrency control
  tuning per-channel in-flight windows and the bound-join batch size
  from live queueing delay and service-time variance.
"""

from repro.runtime.channel import (
    Channel,
    ChannelStats,
    FifoDiscipline,
    QueueDiscipline,
    Request,
    RoundRobinDiscipline,
    make_discipline,
)
from repro.runtime.control import (
    AimdController,
    AimdSettings,
    WindowAdjustment,
)
from repro.runtime.kernel import SimKernel
from repro.runtime.scheduler import (
    DEFAULT_CONCURRENCY,
    OverlapScheduler,
    QueryScheduler,
    RequestHandle,
    TenantRecorder,
)

__all__ = [
    "AimdController",
    "AimdSettings",
    "DEFAULT_CONCURRENCY",
    "Channel",
    "ChannelStats",
    "FifoDiscipline",
    "OverlapScheduler",
    "QueryScheduler",
    "QueueDiscipline",
    "Request",
    "RequestHandle",
    "RoundRobinDiscipline",
    "SimKernel",
    "TenantRecorder",
    "WindowAdjustment",
    "make_discipline",
]
