"""Workload generators: paper datasets and synthetic scaling workloads.

``film_domain`` encodes Figure 1 / Example 2 verbatim plus a scaled
variant; ``generators`` produce random RDF stores; ``topologies``
arrange synthetic peers in chains, stars and cycles; ``queries``
generates path/star query workloads; ``federation`` and ``tenants``
build the federated systems and tenant mixes.
"""

from repro.workload.film_domain import (
    DB1,
    DB2,
    FOAF,
    PAPER_EXPECTED_ANSWERS,
    PAPER_EXPECTED_NONREDUNDANT,
    example2_assertion,
    example2_rps,
    figure1_graphs,
    figure1_namespaces,
    paper_query_text,
    scaled_film_rps,
)
from repro.workload.generators import (
    GeneratorConfig,
    random_entity_graph,
    random_graph,
)
from repro.workload.federation import (
    SHARED,
    federated_exclusive_query,
    federated_path_query,
    federated_rps,
    federated_selective_query,
    federated_union_filter_sparql,
    grow_knows_relation,
)
from repro.workload.queries import path_query, random_queries, star_query
from repro.workload.tenants import (
    TenantQuery,
    skewed_tenant_workload,
    tenant_workload,
)
from repro.workload.topologies import (
    build_topology_rps,
    chain_rps,
    cycle_rps,
    peer_namespace,
    star_rps,
)

__all__ = [
    "DB1",
    "DB2",
    "FOAF",
    "GeneratorConfig",
    "PAPER_EXPECTED_ANSWERS",
    "PAPER_EXPECTED_NONREDUNDANT",
    "SHARED",
    "TenantQuery",
    "build_topology_rps",
    "chain_rps",
    "cycle_rps",
    "example2_assertion",
    "example2_rps",
    "federated_exclusive_query",
    "federated_path_query",
    "federated_rps",
    "federated_selective_query",
    "federated_union_filter_sparql",
    "figure1_graphs",
    "figure1_namespaces",
    "grow_knows_relation",
    "paper_query_text",
    "path_query",
    "peer_namespace",
    "random_entity_graph",
    "random_graph",
    "random_queries",
    "scaled_film_rps",
    "skewed_tenant_workload",
    "star_query",
    "star_rps",
    "tenant_workload",
]
