"""Endpoint cardinality statistics with TTL-based staleness.

PR 3's cost model read endpoint cardinalities as *global knowledge*:
every ``count_pattern``/``count_relation`` call saw the live graph and
cost nothing, as if VoID statistics were refreshed out of band at
infinite frequency.  Real federations cache statistics and refresh them
on a schedule, so plans made from a stale catalog can mis-price every
alternative until the next refresh.

:class:`StatisticsCatalog` models exactly that.  Executions are counted
as *epochs* (:meth:`begin_execution`), and each endpoint's cached
statistics age until ``epoch - fetched > ttl``, at which point the next
read triggers a refresh: one real round trip charged to the execution's
:class:`~repro.federation.network.NetworkStats` (via
:meth:`~repro.federation.network.NetworkModel.charge_refresh`), after
which the endpoint's counts are re-read from the live graph.  Between
refreshes, cached counts are served as they were at fetch time — if the
peer's database grew meanwhile, the cost model plans against yesterday's
cardinalities until the next refresh; ``tests/test_federation_stale.py``
shows the stale plan degrading, its answers staying right, and the plan
recovering at the refresh.

``ttl=None`` (the default) preserves the PR-3 semantics: always fresh,
never charged.  ``ttl=0`` refreshes every execution; ``ttl=k`` serves
each fetch for ``k`` further executions.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import FederationError
from repro.federation.endpoint import PeerEndpoint
from repro.federation.network import NetworkModel, NetworkStats
from repro.rdf.triples import TriplePattern

__all__ = ["StatisticsCatalog"]

#: Cache key: (endpoint name, "pattern" | "relation", pattern n3 text).
_Key = Tuple[str, str, str]


class StatisticsCatalog:
    """TTL-cached per-endpoint cardinality statistics.

    Args:
        network: the cost model charging refresh round trips.
        ttl: statistics lifetime in *executions*; ``None`` disables
            caching entirely (always fresh, never charged).

    The catalog is owned by one
    :class:`~repro.federation.executor.FederatedExecutor` and shared
    across its executions, which is what makes staleness observable:
    the first execution fetches, later executions against a mutated
    peer database keep planning from the old numbers until the TTL
    lapses.
    """

    def __init__(
        self, network: NetworkModel, ttl: Optional[int] = None
    ) -> None:
        if ttl is not None and ttl < 0:
            raise FederationError(f"stats ttl must be >= 0 or None: {ttl}")
        self.network = network
        self.ttl = ttl
        self.epoch = 0
        #: Bumped whenever the statistics any plan was priced against
        #: actually change (an endpoint refresh, or an explicit
        #: :meth:`invalidate_plans`).  The federated executor keys its
        #: plan cache on this, so a bump strands every cached plan.
        self.statistics_epoch = 0
        #: Total endpoint refresh round trips charged over the
        #: catalog's lifetime — surfaced through the executor's
        #: :meth:`~repro.federation.executor.FederatedExecutor.metrics`
        #: registry.
        self.refreshes = 0
        self._fetched_epoch: Dict[str, int] = {}
        self._cache: Dict[_Key, int] = {}
        self._stats: Optional[NetworkStats] = None

    @property
    def live(self) -> bool:
        """True when the catalog passes reads straight to the graphs."""
        return self.ttl is None

    def begin_execution(self, stats: NetworkStats) -> None:
        """Start a new epoch; refreshes are charged to ``stats``."""
        self.epoch += 1
        self._stats = stats

    # -- reads ----------------------------------------------------------

    def pattern_count(self, endpoint: PeerEndpoint, tp: TriplePattern) -> int:
        """Match count of ``tp`` at ``endpoint``, as of the last refresh."""
        if self.live:
            return endpoint.count_pattern(tp)
        self._ensure_fresh(endpoint)
        key = (endpoint.name, "pattern", tp.n3())
        value = self._cache.get(key)
        if value is None:
            value = endpoint.count_pattern(tp)
            self._cache[key] = value
        return value

    def relation_count(self, endpoint: PeerEndpoint, tp: TriplePattern) -> int:
        """Source-relation size at ``endpoint``, as of the last refresh."""
        if self.live:
            return endpoint.count_relation(tp)
        self._ensure_fresh(endpoint)
        key = (endpoint.name, "relation", tp.n3())
        value = self._cache.get(key)
        if value is None:
            value = endpoint.count_relation(tp)
            self._cache[key] = value
        return value

    # -- refresh policy -------------------------------------------------

    def stale(self, endpoint_name: str) -> bool:
        """Would a read from this endpoint trigger a refresh right now?"""
        if self.live:
            return False
        fetched = self._fetched_epoch.get(endpoint_name)
        return fetched is None or self.epoch - fetched > self.ttl

    def _ensure_fresh(self, endpoint: PeerEndpoint) -> None:
        if not self.stale(endpoint.name):
            return
        if self._stats is None:
            raise FederationError(
                "statistics read outside an execution; call "
                "begin_execution() first"
            )
        # One real round trip per endpoint per refresh: the endpoint
        # ships its statistics document, and every cached count of that
        # endpoint is re-read from the live graph afterwards.
        self.network.charge_refresh(self._stats, endpoint.name)
        self._fetched_epoch[endpoint.name] = self.epoch
        self.statistics_epoch += 1
        self.refreshes += 1
        stale_keys = [key for key in self._cache if key[0] == endpoint.name]
        for key in stale_keys:
            del self._cache[key]

    def invalidate_plans(self) -> None:
        """Declare every statistics-derived plan stale.

        Bumps :attr:`statistics_epoch` without touching the cached
        counts — the lever for callers that mutate peer databases out
        of band and want prepared plans rebuilt on next use.
        """
        self.statistics_epoch += 1
