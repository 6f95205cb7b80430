"""Simulated SPARQL access points over peer graphs.

A :class:`PeerEndpoint` stands in for one peer's remote SPARQL endpoint.
It answers conjunctions of triple patterns — optionally *bound* by a
batch of partial solutions, the wire format of FedX-style bound joins —
directly at the dictionary-ID level: a :class:`~repro.sparql.batch.
Batch` goes in and a :class:`~repro.sparql.batch.Batch` comes out,
extended by the batch engine's own probe kernel, so the federated
executor joins peer answers on integer columns exactly like the local
engine does.  Sub-queries may carry compiled FILTER masks: the endpoint
applies them to the candidate solutions *before* they travel, which is
how FILTER pushdown saves transfer volume.  The endpoint itself does no
network accounting; the executor charges every call against its
:class:`~repro.federation.network.NetworkModel`.

Endpoints also publish cardinality statistics
(:meth:`PeerEndpoint.count_pattern`, :meth:`PeerEndpoint.count_relation`)
backed by :meth:`repro.rdf.graph.Graph.count_ids`.  Like the peer
schemas, these are treated as global knowledge of the RPS triple —
VoID-style statistics refreshed out of band — so reading them costs the
cost model no messages.

An endpoint may carry *replicas* — further :class:`PeerEndpoint`
instances over the same graph — which the fault-aware request path
(:func:`repro.federation.plan.issue_request`) fails over to when the
primary exhausts its retry budget.  Replica traffic is charged against
the replica's own name, so per-endpoint statistics show where requests
actually landed.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.federation.bindings import (
    CompiledFilter,
    IDBinding,
    as_batch,
    bindings_of,
)
from repro.gpq.evaluation import compile_conjunct
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.batch import Batch, extend_bindings_batch, passing_rows

__all__ = ["PeerEndpoint"]


class PeerEndpoint:
    """One peer's graph exposed as a simulated access point.

    Args:
        name: the peer name (used as the endpoint label in statistics).
        graph: the peer's stored database.
        replicas: failover endpoints serving the same database.  The
            fault-aware request path contacts them, in order, once the
            primary exhausts its retry budget; each replica is itself a
            :class:`PeerEndpoint` with its own name (``"peer0.r1"``)
            and fault behaviour, sharing the primary's graph.
    """

    __slots__ = ("name", "graph", "replicas")

    def __init__(
        self,
        name: str,
        graph: Graph,
        replicas: Sequence["PeerEndpoint"] = (),
    ) -> None:
        self.name = name
        self.graph = graph
        self.replicas = tuple(replicas)

    def __len__(self) -> int:
        return len(self.graph)

    def solutions(
        self,
        patterns: Sequence[TriplePattern],
        batch: Batch,
        filters: Sequence[CompiledFilter] = (),
    ) -> Batch:
        """One sub-query: a conjunction bound by a batch of partial
        solutions, answered in one round trip.

        ``batch`` is what travels with the request — the single empty
        row (``Batch.singleton()``) for an unbound sub-query, a bound
        join's batch otherwise (a UNION of instantiated patterns on a
        real endpoint).  Several ``patterns`` are a FedX exclusive
        group: the endpoint joins them locally and only the joined
        solutions travel.  Every returned row extends one input row
        through *all* the patterns — input-row major, matches in index
        order; the answer's schema is ``batch.schema`` followed by the
        patterns' new variables.  ``filters`` are pushed-down FILTERs;
        they see the *extended* rows, so filters over already-bound
        variables are decidable here, and rejected solutions never
        leave the endpoint.
        """
        for tp in patterns:
            slots = compile_conjunct(self.graph, tp)
            if slots is None:
                return Batch.empty()
            batch, _ = extend_bindings_batch(self.graph, batch, slots)
            if not batch.n:
                return batch
        if not filters:
            return batch
        keep = passing_rows(batch, [f.accept for f in filters])
        return batch if len(keep) == batch.n else batch.gather(keep)

    def bound_solutions(
        self, tp: TriplePattern, batch: Iterable[IDBinding]
    ) -> List[IDBinding]:
        """:meth:`solutions` of one pattern over dict bindings (kept
        for the benchmark's endpoint probes, see
        :mod:`repro.federation.bindings`)."""
        return bindings_of(self.solutions((tp,), as_batch(list(batch))))

    # -- published statistics (free to read, like the peer schemas) -----

    def count_pattern(self, tp: TriplePattern) -> int:
        """Exact match count of an unbound pattern at this endpoint.

        Backed by :meth:`repro.rdf.graph.Graph.count_ids`; the federated
        cost model reads this per conjunct to estimate transfer volumes.
        """
        return self.graph.count_pattern(tp)

    def count_relation(self, tp: TriplePattern) -> int:
        """Size of the pattern's source relation at this endpoint.

        The source relation is every triple sharing the pattern's
        predicate (the whole database when the predicate is a variable)
        — what a *pull* decision would transfer, and the dump size
        :class:`~repro.federation.plan.PullScan` is charged for.
        """
        predicate = tp.predicate
        if isinstance(predicate, Variable):
            return len(self.graph)
        pid = self.graph.term_id(predicate)
        if pid is None:
            return 0
        return self.graph.count_ids(None, pid, None)

    def relation_key(self, tp: TriplePattern) -> Optional[int]:
        """Cache key of the pattern's source relation: the predicate's
        dictionary ID, or ``None`` for a variable predicate (full dump).
        """
        predicate = tp.predicate
        if isinstance(predicate, Variable):
            return None
        return self.graph.term_id(predicate)

    def can_answer(self, tp: TriplePattern, schema) -> bool:
        """Schema-based relevance: does the peer's schema cover every
        ground IRI of the pattern?

        In an RPS the peer schemas are part of the system triple
        ``P = (S, G, E)`` — global knowledge — so source selection reads
        them locally and costs no messages.  A pattern with no ground
        IRI is potentially answerable by every peer.
        """
        for term in (tp.subject, tp.predicate, tp.object):
            if isinstance(term, IRI) and term not in schema:
                return False
        return True

    def __repr__(self) -> str:
        return f"PeerEndpoint({self.name!r}, {len(self.graph)} triples)"
