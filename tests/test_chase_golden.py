"""Algorithm 1's observable behaviour, pinned.

``chase_golden.json`` holds, for the benchmark's cycle and film systems
and two small chain/cycle systems, the solution size, every counter of
``PeerChaseResult`` and the certain-answer counts of a few queries.  It
regenerates byte-identically from HEAD (CI checks that)::

    PYTHONPATH=src python tests/test_chase_golden.py

The records were migrated when the chase moved onto the quotient by
``≡ₑ`` (one firing per class instead of one per member): the
equivalence-free ``bench_cycle`` record and every ``answers`` block are
those of the pair-wise chase, and the ``parent`` block keeps what that
chase built on the three systems with equivalences, so "a smaller
universal solution" is an assertion: the class chase may never need
more triples, firings or nulls than it did.  The generator carries the
``parent`` block over unchanged.
"""

import json
import pathlib
import sys

import pytest

from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.peers import (
    certain_answers,
    chase_universal_solution,
    chase_via_data_exchange,
    is_solution,
)
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import BlankNode, Variable
from repro.sparql.bridge import sparql_to_gpq
from repro.workload import (
    chain_rps,
    cycle_rps,
    path_query,
    peer_namespace,
    scaled_film_rps,
)

GOLDEN = pathlib.Path(__file__).with_name("chase_golden.json")

#: The benchmark's two systems (``benchmarks/wl_certain_answers.py``,
#: seed 7) and two small topologies (``core_*``: a 6-peer chain and a
#: 5-peer cycle, 40 facts per peer, seed 3) that pin the rounds and
#: solution size of Algorithm 1 on a chain and on a cycle.
SYSTEMS = {
    "bench_cycle": lambda: cycle_rps(
        5, entities=100, facts=300, link_fraction=0.0, seed=7
    ),
    "bench_film": lambda: scaled_film_rps(
        films=60, linked_fraction=0.5, seed=7
    ),
    "core_chain": lambda: chain_rps(6, entities=12, facts=40, seed=3),
    "core_cycle": lambda: cycle_rps(5, entities=12, facts=40, seed=3),
}

COUNTERS = (
    "stored_triples",
    "rounds",
    "assertion_firings",
    "assertion_triples",
    "equivalence_triples",
    "blank_nodes_created",
)


def _film_query(film: int) -> GraphPatternQuery:
    """Listing 1 anchored at one film (the benchmark's ``film_text``)."""
    return sparql_to_gpq(
        "PREFIX DB1: <http://db1.example.org/> "
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
        f"SELECT ?x ?y WHERE {{ DB1:film{film} DB1:starring ?z . "
        "?z DB1:artist ?x . ?x foaf:age ?y }"
    )


def _queries(name: str) -> dict:
    if name == "bench_film":
        queries = {f"film{n}": _film_query(n) for n in (0, 7, 31)}
        x, y = Variable("x"), Variable("y")
        starring = Namespace("http://db1.example.org/").starring
        queries["starring"] = GraphPatternQuery(
            (x, y), make_pattern((x, starring, y))
        )
        return queries
    knows = [peer_namespace(i).knows for i in range(2)]
    return {
        "q1": path_query(knows[:1], project_all=True),
        "q2": path_query(knows, project_all=True),
        "q2_last": path_query([knows[1], knows[1]]),
    }


def _observe(system):
    """One default chase run as a JSON-ready record (plus the result)."""
    result = chase_universal_solution(system)
    record = {counter: getattr(result, counter) for counter in COUNTERS}
    record["solution_triples"] = len(result.solution)
    record["evaluated_mappings"] = result.evaluated_mappings
    record["fired_per_assertion"] = dict(
        sorted(result.fired_per_assertion.items())
    )
    return record, result


def snapshot() -> dict:
    out = {"parent": json.loads(GOLDEN.read_text())["parent"]}
    for name, build in SYSTEMS.items():
        system = build()
        record, result = _observe(system)
        record["answers"] = {
            label: len(certain_answers(system, q, solution=result.solution))
            for label, q in _queries(name).items()
        }
        out[name] = record
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module", params=list(SYSTEMS))
def chased(request):
    system = SYSTEMS[request.param]()
    record, result = _observe(system)
    return request.param, system, record, result


def test_counters_match_parent_commit(chased, golden):
    name, _, record, result = chased
    assert record == {
        k: v for k, v in golden[name].items() if k != "answers"
    }
    for counter, pairwise in golden["parent"].get(name, {}).items():
        assert record[counter] <= pairwise, counter
    assert sum(result.fired_per_assertion.values()) == result.assertion_firings
    assert (
        result.inferred_triples
        == len(result.solution) - result.stored_triples
    )


def test_solution_and_answers_match_relational_chase(chased, golden):
    """Definition 2 holds, and every query agrees with Section 3's chase."""
    name, system, _, result = chased
    assert is_solution(system, result.solution)
    exchanged, _ = chase_via_data_exchange(system)
    for label, query in _queries(name).items():
        answers = certain_answers(system, query, solution=result.solution)
        assert len(answers) == golden[name]["answers"][label], label
        assert answers == certain_answers(
            system, query, solution=exchanged
        ), label
        assert not any(
            isinstance(term, BlankNode) for row in answers for term in row
        )


def test_two_runs_agree(chased, graph_shape):
    """Same system, same counters; solutions equal up to null labels."""
    _, system, record, result = chased
    again, other = _observe(system)
    assert again == record
    assert graph_shape(result.solution) == graph_shape(other.solution)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
