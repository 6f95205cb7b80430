"""RDF Peer Systems — the paper's primary contribution (Sections 2-3).

Peer schemas and peers, graph mapping assertions and equivalence
mappings, the RPS triple ``(S, G, E)``, Definition-2 solution checking,
the Section-3 data-exchange encoding, the quotient by ``≡ₑ``
(:mod:`~repro.peers.quotient`, shared with the rewriting route),
Algorithm 1 (the RDF-level chase of that quotient to a universal
solution) and certain-answer computation.
"""

from repro.peers.certain_answers import (
    CertainAnswerReport,
    certain_answers,
    certain_answers_report,
    certain_ask,
)
from repro.peers.chase import PeerChaseResult, chase_universal_solution
from repro.peers.data_exchange import (
    DataExchangeSetting,
    RS,
    RT,
    TS,
    TT,
    assertion_to_tgd,
    chase_via_data_exchange,
    equivalence_to_tgds,
    gpq_to_cq,
    graph_to_source_instance,
    rewriting_tgds,
    rps_to_data_exchange,
    target_instance_to_graph,
)
from repro.peers.mappings import (
    EquivalenceMapping,
    GraphMappingAssertion,
    equivalences_from_sameas,
)
from repro.peers.peer import Peer
from repro.peers.schema import PeerSchema
from repro.peers.solutions import SolutionReport, check_solution, is_solution
from repro.peers.system import RPS

__all__ = [
    "CertainAnswerReport",
    "DataExchangeSetting",
    "EquivalenceMapping",
    "GraphMappingAssertion",
    "Peer",
    "PeerChaseResult",
    "PeerSchema",
    "RPS",
    "RS",
    "RT",
    "SolutionReport",
    "TS",
    "TT",
    "assertion_to_tgd",
    "certain_answers",
    "certain_answers_report",
    "certain_ask",
    "chase_universal_solution",
    "chase_via_data_exchange",
    "check_solution",
    "equivalence_to_tgds",
    "equivalences_from_sameas",
    "gpq_to_cq",
    "graph_to_source_instance",
    "is_solution",
    "rewriting_tgds",
    "rps_to_data_exchange",
    "target_instance_to_graph",
]
