"""Cross-query LRU plan cache shared by the local and federated engines.

Parsing, algebra translation and physical planning are pure functions of
(query text, namespace bindings, database state), so identical traffic —
the millions-of-users story the paper targets — should pay for them
once.  :class:`PlanCache` is a small LRU keyed on exactly those inputs
with hit/miss counters, used two ways:

* the local engine (:mod:`repro.sparql.engine`) caches fully-built
  batch plans keyed on ``(graph.serial, graph.epoch, query text,
  namespace fingerprint)`` — the graph's mutation epoch invalidates
  entries the moment the data changes, and the serial keeps distinct
  graphs from colliding;
* the federated executor caches its ``PreparedQuery`` source-selection
  plans keyed on ``(query text, namespace fingerprint, statistics
  epoch)`` — a refresh of the :class:`StatisticsCatalog` bumps the
  epoch and naturally strands stale plans.

Stale entries are never proactively evicted: a changed epoch changes
the *key*, so old entries simply age out of the LRU.  Both engines
surface the counters (``explain`` federation-side,
:func:`plan_cache_stats` locally) so the skip-parse-skip-plan claim is
testable rather than folklore.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

from repro.rdf.namespaces import NamespaceManager

__all__ = [
    "PlanCache",
    "nsm_fingerprint",
    "default_plan_cache",
]


def nsm_fingerprint(
    nsm: Optional[NamespaceManager],
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """A hashable digest of the namespace bindings a parse depends on.

    Two managers with the same prefix->namespace map produce the same
    fingerprint, so equivalent sessions share cache entries; ``None``
    (parse with no manager) is its own distinct key.
    """
    if nsm is None:
        return None
    return tuple(sorted(nsm.namespaces()))


class PlanCache:
    """A bounded LRU mapping plan keys to prepared plans.

    Keys must capture *every* input the cached value was derived from
    (query text, namespace fingerprint, data/statistics epoch); the
    cache itself is policy-free and never inspects them.  ``get`` and
    ``put`` are O(1); eviction discards the least recently used entry.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses")

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached plan for ``key``, or None; counts a hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value`` under ``key``, evicting the LRU entry if full."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        """Counters for ``explain`` surfaces and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "capacity": self.capacity,
        }


#: Process-wide cache used by :func:`repro.sparql.engine.execute` for
#: text queries.  Tests may ``clear()`` it to get deterministic counts.
default_plan_cache = PlanCache(capacity=256)
