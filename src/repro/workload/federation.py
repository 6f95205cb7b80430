"""Federation workloads: peers over a shared entity space.

The topology workloads in :mod:`repro.workload.topologies` give every
peer a private entity namespace, so a conjunctive query joining across
peer vocabularies is empty by construction.  Federated execution needs
the opposite: peers that *store facts about the same entities* in their
own predicate vocabularies, so cross-peer joins carry data.  This module
builds such systems, plus the cross-vocabulary path queries the
federation benchmarks and tests run over them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.federation.faults import FaultModel, FaultSpec
from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.rdf.dictionary import default_dictionary
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Literal, Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.peers.system import RPS
from repro.workload.generators import vocabulary_ids
from repro.workload.topologies import peer_namespace

__all__ = [
    "SHARED",
    "blackout_fault_model",
    "federated_rps",
    "federated_ask_sparql",
    "federated_exclusive_query",
    "federated_limit_sparql",
    "federated_optional_filter_sparql",
    "federated_optional_sparql",
    "federated_path_query",
    "federated_selective_query",
    "federated_topk_sparql",
    "federated_union_filter_sparql",
    "flaky_fault_model",
    "grow_knows_relation",
    "outage_fault_model",
]

#: The entity namespace every federation peer describes.
SHARED = Namespace("http://shared.example.org/")


def federated_rps(
    peers: int = 3,
    entities: int = 30,
    facts: int = 60,
    seed: int = 0,
) -> RPS:
    """An RPS whose peers describe one shared entity set.

    Peer *k* stores ``facts`` random ``peerk:knows`` edges between the
    shared entities plus one ``peerk:age`` attribute per entity it
    mentions.  Predicates are peer-private, so schema-based source
    selection routes each triple pattern to exactly one peer, while the
    shared subjects/objects make cross-peer joins non-trivial.
    """
    rng = random.Random(seed)
    dictionary = default_dictionary()
    entity_iris = [SHARED.term(f"e{i}") for i in range(entities)]
    entity_ids = vocabulary_ids(dictionary, entity_iris, "subject")
    # Ages land in entity term order, whatever the IDs.
    in_term_order = sorted(
        entity_ids, key=lambda tid: dictionary.decode(tid).sort_key()
    )
    ages = vocabulary_ids(
        dictionary, [Literal(str(v)) for v in range(10, 81)], "object"
    )
    choice, randint = rng.choice, rng.randint
    graphs: Dict[str, Graph] = {}
    for k in range(peers):
        ns = peer_namespace(k)
        knows, age = vocabulary_ids(
            dictionary, (ns.knows, ns.age), "predicate"
        )
        edges = [
            (choice(entity_ids), knows, choice(entity_ids))
            for _ in range(facts)
        ]
        mentioned = {a for a, _, _ in edges}.union(b for _, _, b in edges)
        graph = Graph(name=f"peer{k}", dictionary=dictionary)
        graph.add_id_triples(edges, dictionary)
        graph.add_id_triples(
            (
                (tid, age, ages[randint(10, 80) - 10])
                for tid in in_term_order
                if tid in mentioned
            ),
            dictionary,
        )
        graphs[f"peer{k}"] = graph
    return RPS.from_graphs(graphs)


def federated_path_query(
    hops: int = 2, project_all: bool = False
) -> GraphPatternQuery:
    """A path query whose i-th hop uses peer i's ``knows`` predicate.

    ``(x0, peer0:knows, x1)(x1, peer1:knows, x2)…`` — each conjunct is
    answerable by exactly one peer, and consecutive conjuncts join on a
    shared variable, the canonical bound-join workload.
    """
    if hops < 1:
        raise ValueError("path query needs at least one hop")
    variables: List[Variable] = [Variable(f"x{i}") for i in range(hops + 1)]
    patterns = [
        (variables[i], peer_namespace(i).knows, variables[i + 1])
        for i in range(hops)
    ]
    head = tuple(variables) if project_all else (variables[0], variables[-1])
    return GraphPatternQuery(head, make_pattern(*patterns), name="fedpath")


def federated_selective_query(
    entity: int = 3, hops: int = 2
) -> GraphPatternQuery:
    """A path query anchored at one shared entity.

    ``(e_k, peer0:knows, x1)(x1, peer1:knows, x2)…`` — the ground
    subject keeps intermediate binding sets tiny, the canonical workload
    where bound joins beat shipping whole relations.
    """
    if hops < 1:
        raise ValueError("selective query needs at least one hop")
    start = SHARED.term(f"e{entity}")
    variables: List[Variable] = [Variable(f"x{i}") for i in range(1, hops + 1)]
    patterns = [(start, peer_namespace(0).knows, variables[0])]
    for i in range(1, hops):
        patterns.append(
            (variables[i - 1], peer_namespace(i).knows, variables[i])
        )
    return GraphPatternQuery(
        tuple(variables), make_pattern(*patterns), name="fedselective"
    )


def federated_exclusive_query(hops: int = 1) -> GraphPatternQuery:
    """A query with two conjuncts exclusive to peer 0 plus a path.

    ``(x0, peer0:knows, x1)(x0, peer0:age, a)(x1, peer1:knows, x2)…`` —
    the first two conjuncts are answerable by exactly one endpoint
    (peer 0 owns both predicates), the canonical FedX *exclusive group*:
    a fused endpoint-side sub-query answers both in one round trip and
    only the joined solutions travel.  The remaining ``hops`` conjuncts
    continue the path through the other peers' ``knows`` predicates.
    """
    if hops < 1:
        raise ValueError("exclusive query needs at least one onward hop")
    ns0 = peer_namespace(0)
    x0, age = Variable("x0"), Variable("a")
    variables: List[Variable] = [Variable(f"x{i}") for i in range(1, hops + 2)]
    patterns = [
        (x0, ns0.knows, variables[0]),
        (x0, ns0.age, age),
    ]
    for i in range(1, hops + 1):
        patterns.append(
            (variables[i - 1], peer_namespace(i).knows, variables[i])
        )
    return GraphPatternQuery(
        (x0, age, variables[-1]), make_pattern(*patterns), name="fedexclusive"
    )


def grow_knows_relation(
    system: RPS,
    peer: int = 0,
    extra_facts: int = 500,
    seed: int = 99,
    hub: Optional[int] = None,
) -> int:
    """Mutate a federated system: bulk-load one peer's ``knows`` relation.

    Models the scenario the statistics-TTL machinery exists for: after a
    :class:`~repro.federation.executor.FederatedExecutor` has fetched a
    peer's cardinalities, the peer's database grows by ``extra_facts``
    edges — so a catalog older than its TTL keeps planning against
    yesterday's (much smaller) counts.

    Two growth shapes:

    * ``hub=None`` — random edges over the entities the relation
      already mentions.  Every cardinality scales roughly uniformly.
    * ``hub=k`` — every new edge leaves one *hub* entity (``e{k}``)
      towards fresh, previously unseen entities.  The relation count
      explodes while the match count of patterns anchored at any other
      entity stays put — the asymmetry that flips a fresh cost model's
      pull-vs-ship decision and leaves a stale one transferring the
      whole grown relation.

    Returns the number of triples actually added (duplicates collapse).
    """
    name = f"peer{peer}"
    if name not in system.peers:
        raise ValueError(f"system has no peer named {name!r}")
    graph = system.peers[name].graph
    knows = peer_namespace(peer).knows
    before = len(graph)
    if hub is not None:
        source = SHARED.term(f"e{hub}")
        for i in range(extra_facts):
            graph.add(Triple(source, knows, SHARED.term(f"hub{peer}_{i}")))
        return len(graph) - before
    pattern = TriplePattern(Variable("s"), knows, Variable("o"))
    mentioned = set()
    for triple in graph.match(pattern):
        mentioned.add(triple.subject)
        mentioned.add(triple.object)
    entities = sorted(mentioned, key=lambda t: t.sort_key())
    if not entities:
        raise ValueError(f"{name} holds no knows edges to grow from")
    rng = random.Random(seed)
    for _ in range(extra_facts):
        a, b = rng.choice(entities), rng.choice(entities)
        graph.add(Triple(a, knows, b))
    return len(graph) - before


def federated_optional_sparql() -> str:
    """A SPARQL query with a federated OPTIONAL across two peers.

    Peer 0's ``knows`` edges, optionally extended with peer 1's ``age``
    of the target entity.  Peer 1 only stores ages for entities its own
    ``knows`` relation mentions, so some rows extend and some keep the
    age cell unbound — exercising the federated ``LeftJoin`` operator's
    keep-unmatched path against the single-graph evaluator.
    """
    p0 = peer_namespace(0).knows.n3()
    a1 = peer_namespace(1).age.n3()
    return (
        "SELECT ?x ?y ?a WHERE { "
        f"?x {p0} ?y OPTIONAL {{ ?y {a1} ?a }} }}"
    )


def federated_optional_filter_sparql(entity: int = 3) -> str:
    """A federated OPTIONAL whose group carries a top-level FILTER.

    Per the SPARQL translation the filter becomes the ``LeftJoin``
    condition and is evaluated on the *merged* row — it references the
    required side's ``?y`` — so rows whose only extensions fail the
    condition fall back to the unextended row instead of disappearing.
    """
    p0 = peer_namespace(0).knows.n3()
    p1 = peer_namespace(1).knows.n3()
    anchor = SHARED.term(f"e{entity}").n3()
    return (
        "SELECT ?x ?y ?z WHERE { "
        f"?x {p0} ?y OPTIONAL {{ ?y {p1} ?z FILTER(?z != {anchor}) }} }}"
    )


def _path_sparql_body(hops: int, anchor: Optional[int] = None) -> str:
    """The WHERE body of the cross-peer path query, as SPARQL text.

    With ``anchor`` set, the first hop's subject is the ground entity
    ``e{anchor}`` instead of a variable — the selective shape that makes
    bound joins the winning plan even without a demand cap.
    """
    if hops < 1:
        raise ValueError("path query needs at least one hop")
    conjuncts = []
    for i in range(hops):
        subject = (
            SHARED.term(f"e{anchor}").n3()
            if i == 0 and anchor is not None
            else f"?x{i}"
        )
        conjuncts.append(
            f"{subject} {peer_namespace(i).knows.n3()} ?x{i + 1}"
        )
    return " . ".join(conjuncts)


def federated_limit_sparql(
    hops: int = 2,
    limit: Optional[int] = None,
    offset: int = 0,
    anchor: Optional[int] = None,
) -> str:
    """The federated path query as SPARQL, with an optional slice.

    Same shape as :func:`federated_path_query` — hop *i* uses peer i's
    ``knows`` predicate, so every conjunct routes to one endpoint and
    bound joins carry the intermediate bindings.  A ``LIMIT`` turns it
    into the demand-propagation workload: the executor should stop
    issuing sub-queries once the window fills.  ``anchor`` grounds the
    first subject (see :func:`federated_selective_query`), keeping the
    unlimited plan on bound joins so limited and unlimited runs ship
    the *same kind* of messages and the slice's savings are isolated.
    """
    first = 0 if anchor is None else 1
    head = " ".join(f"?x{i}" for i in range(first, hops + 1))
    text = f"SELECT {head} WHERE {{ {_path_sparql_body(hops, anchor)} }}"
    if offset:
        text += f" OFFSET {offset}"
    if limit is not None:
        text += f" LIMIT {limit}"
    return text


def federated_topk_sparql(hops: int = 2, limit: int = 5) -> str:
    """A federated top-k: the path query ordered before its slice.

    ``ORDER BY`` names the path's *interior* variable (non-projected),
    so the engine must sort full solutions before projecting; the sort
    is a pipeline breaker, leaving the slice to trim a fully-drained
    result — the contrast case to :func:`federated_limit_sparql`.
    """
    text = f"SELECT ?x0 ?x{hops} WHERE {{ {_path_sparql_body(hops)} }}"
    return text + f" ORDER BY DESC(?x1) ?x0 LIMIT {limit}"


def federated_ask_sparql(hops: int = 2) -> str:
    """An ASK over the federated path: satisfiability, not enumeration.

    The executor answers it with demand one — the first surviving row
    short-circuits the whole bound-join pipeline.
    """
    return f"ASK {{ {_path_sparql_body(hops)} }}"


def federated_union_filter_sparql() -> str:
    """A SPARQL query past the conjunctive fragment: UNION of two peers'
    ``knows`` relations, filtered to distinct endpoints.

    Exercises UNION-branch and FILTER pushdown in the federated
    executor; the filter is decidable per branch pattern, so rejected
    rows never leave their endpoint.
    """
    p0 = peer_namespace(0).knows.n3()
    p1 = peer_namespace(1).knows.n3()
    return (
        "SELECT ?x ?y WHERE { "
        f"{{ ?x {p0} ?y }} UNION {{ ?x {p1} ?y }} . FILTER(?x != ?y) }}"
    )


# -- fault scenarios ---------------------------------------------------------


def flaky_fault_model(
    endpoint: str = "peer1",
    failure_rate: float = 0.25,
    timeout_rate: float = 0.1,
    seed: int = 11,
) -> FaultModel:
    """A probabilistically flaky endpoint (recoverable with retries).

    Error replies and timeouts at the given per-attempt rates; every
    other endpoint is healthy.  With a large enough retry budget the
    execution recovers a complete answer — the ``flaky`` scenarios of
    ``tests/test_federation_faults.py`` assert exactly that.
    """
    return FaultModel(
        specs={
            endpoint: FaultSpec(
                failure_rate=failure_rate, timeout_rate=timeout_rate
            )
        },
        seed=seed,
    )


def outage_fault_model(
    endpoint: str = "peer1",
    start: float = 0.0,
    end: float = 0.3,
    seed: int = 0,
) -> FaultModel:
    """A scripted outage window on one endpoint, in virtual time.

    Attempts landing while the execution's accumulated ``busy_seconds``
    is inside ``[start, end)`` fail deterministically; charged retries
    advance that clock, so a long enough retry budget *escapes* the
    window and recovers the full answer.
    """
    return FaultModel(
        specs={endpoint: FaultSpec(outages=((start, end),))}, seed=seed
    )


def blackout_fault_model(endpoint: str = "peer1", seed: int = 0) -> FaultModel:
    """A permanently dead endpoint: every attempt is an error reply.

    Without replicas no retry budget recovers it, so executions degrade
    to flagged partial answers naming exactly this endpoint; with a
    replica configured, failover recovers the complete answer.
    """
    return FaultModel(specs={endpoint: FaultSpec(failure_rate=1.0)}, seed=seed)
