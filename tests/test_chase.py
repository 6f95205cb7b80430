"""Tests for the TGD chase and certain-answer computation.

Covers: restricted-chase termination and output on an acyclic dependency
set, the non-termination guard, weak acyclicity (the syntactic
termination class), and the hand-computed certain answers of the 3-peer
chain fixture (Algorithm 1 + ``Q_D`` semantics).
"""

import pytest

from repro.errors import ChaseNonTerminationError
from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.peers.certain_answers import certain_answers, certain_answers_report, certain_ask
from repro.peers.chase import chase_universal_solution
from repro.peers.solutions import is_solution
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import BlankNode, Variable
from repro.tgd.atoms import (
    Atom,
    Constant,
    Instance,
    LabeledNull,
    RelVar,
    reset_null_counter,
)
from repro.tgd.chase import chase, is_satisfied, violations
from repro.tgd.classes import classify, is_weakly_acyclic
from repro.tgd.dependencies import TGD
from repro.workload.queries import path_query

X, Y = Variable("x"), Variable("y")


@pytest.fixture(autouse=True)
def _fresh_nulls():
    reset_null_counter()
    yield


def rel_vars(*names):
    return tuple(RelVar(n) for n in names)


class TestRelationalChase:
    def test_acyclic_tgds_terminate_with_expected_facts(self):
        x, y, z = rel_vars("x", "y", "z")
        tgds = [
            TGD([Atom("r", x, y)], [Atom("s", y, z)], label="r-to-s"),
            TGD([Atom("s", x, y)], [Atom("t", x, y)], label="s-to-t"),
        ]
        a, b = Constant("a"), Constant("b")
        instance = Instance([Atom("r", a, b)])
        result = chase(instance, tgds)
        assert all(is_satisfied(tgd, result.instance) for tgd in tgds)
        assert violations(tgds, result.instance) == []
        # One null minted for z; s(b, null) and t(b, null) derived.
        assert result.nulls_created == 1
        assert result.facts_added == 2
        (null,) = {
            v for v in result.instance.values() if isinstance(v, LabeledNull)
        }
        assert Atom("s", b, null) in result.instance
        assert Atom("t", b, null) in result.instance
        # The original instance was not mutated (in_place defaults False).
        assert len(instance) == 1

    def test_full_tgd_transitive_closure(self):
        x, y, z = rel_vars("x", "y", "z")
        transitivity = TGD(
            [Atom("edge", x, y), Atom("edge", y, z)], [Atom("edge", x, z)]
        )
        nodes = [Constant(c) for c in "abcd"]
        instance = Instance(
            Atom("edge", nodes[i], nodes[i + 1]) for i in range(3)
        )
        result = chase(instance, [transitivity], in_place=True)
        assert result.instance is instance
        # Closure of a 4-node path has 3+2+1 edges.
        assert len(instance) == 6
        assert result.nulls_created == 0
        assert is_satisfied(transitivity, instance)

    def test_non_terminating_chase_hits_step_budget(self):
        x, y = rel_vars("x", "y")
        # person(x) -> ∃y parent(x, y) ∧ person(y): each null spawns another.
        grower = TGD(
            [Atom("person", x)], [Atom("parent", x, y), Atom("person", y)]
        )
        instance = Instance([Atom("person", Constant("eve"))])
        with pytest.raises(ChaseNonTerminationError):
            chase(instance, [grower], max_steps=50)

    def test_satisfied_tgd_never_fires(self):
        x, y = rel_vars("x", "y")
        tgd = TGD([Atom("r", x, y)], [Atom("s", x, y)])
        instance = Instance(
            [Atom("r", Constant("a"), Constant("b")),
             Atom("s", Constant("a"), Constant("b"))]
        )
        result = chase(instance, [tgd])
        assert result.fired == 0
        assert result.facts_added == 0


class TestWeakAcyclicity:
    """Fagin et al.'s position graph: a special edge on a cycle breaks it.

    ``σ1: R(x,y) → ∃z S(y,z)`` puts a special edge ``R[2] ⇒ S[2]`` in the
    graph and ``σ3: T(a,b) → R(a,b)`` closes cycles through ``σ2``.
    """

    def tgds(self, s_to_t_head):
        x, y, z, a, b, u, v = rel_vars("x", "y", "z", "a", "b", "u", "v")
        return [
            TGD([Atom("R", x, y)], [Atom("S", y, z)], label="σ1"),
            TGD([Atom("S", u, v)], [s_to_t_head(u, v)], label="σ2"),
            TGD([Atom("T", a, b)], [Atom("R", a, b)], label="σ3"),
        ]

    def test_a_regular_cycle_alone_is_weakly_acyclic(self):
        # R[2] → S[1] → T[2] → R[2] is a cycle, but S[2] never reaches R[2].
        tgds = self.tgds(lambda u, v: Atom("T", v, u))
        assert is_weakly_acyclic(tgds)
        assert classify(tgds).weakly_acyclic

    def test_a_special_edge_on_a_cycle_is_not(self):
        # S[2] → T[2] → R[2] closes a cycle through R[2] ⇒ S[2].
        tgds = self.tgds(lambda u, v: Atom("T", u, v))
        assert not is_weakly_acyclic(tgds)
        assert not classify(tgds).weakly_acyclic


class TestThreePeerCertainAnswers:
    """Hand-derived expectations for the conftest 3-peer chain.

    Stored: a k0 b, b k0 c (peer0); d k1 e (peer1); f k2 g (peer2).
    Assertions: k0 ⇝ k1, k1 ⇝ k2.  Equivalence: a ≡ d.
    The chase closure therefore contains, at the k2 level:
    translated peer0 facts (a k2 b, b k2 c), the translated peer1 fact
    (d k2 e), peer2's own (f k2 g), plus the equivalence copies
    (d k2 b) — d gets a's contexts — and (a k2 e) — a gets d's.
    """

    def expected_k2(self, t):
        return {
            (t["a"], t["b"]),
            (t["b"], t["c"]),
            (t["d"], t["e"]),
            (t["f"], t["g"]),
            (t["d"], t["b"]),
            (t["a"], t["e"]),
        }

    def query_k2(self, t):
        return GraphPatternQuery((X, Y), make_pattern((X, t["knows"][2], Y)))

    def test_certain_answers_match_hand_derivation(self, three_peer_chain):
        rps, t = three_peer_chain
        assert certain_answers(rps, self.query_k2(t)) == self.expected_k2(t)

    def test_universal_solution_statistics(self, three_peer_chain):
        rps, t = three_peer_chain
        report = certain_answers_report(rps, self.query_k2(t))
        assert report.answers == self.expected_k2(t)
        chase_stats = report.chase
        assert chase_stats.stored_triples == 4
        assert chase_stats.blank_nodes_created == 0  # no existentials here
        assert chase_stats.rounds >= 2
        assert len(report.universal_solution) > chase_stats.stored_triples

    def test_solution_reuse_skips_rechase(self, three_peer_chain):
        rps, t = three_peer_chain
        solution = chase_universal_solution(rps).solution
        answers = certain_answers(rps, self.query_k2(t), solution=solution)
        assert answers == self.expected_k2(t)

    def test_certain_ask(self, three_peer_chain):
        rps, t = three_peer_chain
        k2 = t["knows"][2]
        assert certain_ask(
            rps, GraphPatternQuery((), make_pattern((t["a"], k2, t["b"])))
        )
        assert not certain_ask(
            rps, GraphPatternQuery((), make_pattern((t["c"], k2, t["a"])))
        )

    def test_existential_target_mints_dropped_blanks(self, three_peer_chain):
        """An assertion with an existential target variable creates
        labelled nulls that Q* keeps and Q (certain answers) drops."""
        from repro.peers.mappings import GraphMappingAssertion
        from repro.gpq.evaluation import evaluate_query, evaluate_query_star

        rps, t = three_peer_chain
        k2, k0 = t["knows"][2], t["knows"][0]
        z = Variable("z")
        # Everyone known at the k2 level must know someone at the k0 level.
        rps.add_assertion(
            GraphMappingAssertion(
                GraphPatternQuery((Y,), make_pattern((X, k2, Y))),
                GraphPatternQuery((Y,), make_pattern((Y, k0, z))),
                label="k2-to-k0-existential",
            )
        )
        solution = chase_universal_solution(rps).solution
        assert any(
            isinstance(term, BlankNode) for term in solution.terms()
        ), "chase should have minted nulls"
        q = GraphPatternQuery((X, Y), make_pattern((X, k0, Y)))
        star = evaluate_query_star(solution, q)
        certain = evaluate_query(solution, q)
        assert certain < star
        assert all(
            not isinstance(term, BlankNode) for row in certain for term in row
        )


class TestSemiNaiveEqualsNaive:
    """``semi_naive`` changes the work, never the result.

    The delta filter decides on IDs which assertions a round may skip;
    a wrong skip loses repairs silently.  Seeded systems from
    ``workload/topologies.py`` and the film domain are chased both
    ways; each topology additionally carries a source conjunct with a
    repeated variable (``?x knows ?x`` — relevance must compare the two
    positions) and an equivalence between two *predicate* IRIs (the
    quotient merges the two predicates, the expansion restores both).
    """

    COUNTERS = (
        "rounds",
        "assertion_firings",
        "assertion_triples",
        "equivalence_triples",
        "blank_nodes_created",
        "fired_per_assertion",
    )

    @staticmethod
    def systems(seed, entities=8, facts=20):
        from repro.peers.mappings import (
            EquivalenceMapping,
            GraphMappingAssertion,
        )
        from repro.workload import (
            chain_rps,
            cycle_rps,
            peer_namespace,
            scaled_film_rps,
        )

        z = Variable("z")
        for name, build in (("chain", chain_rps), ("cycle", cycle_rps)):
            system = build(
                4,
                entities=entities,
                facts=facts,
                link_fraction=0.3,
                seed=seed,
            )
            first, last = peer_namespace(0), peer_namespace(3)
            system.add_assertion(
                GraphMappingAssertion(
                    GraphPatternQuery((X,), make_pattern((X, last.knows, X))),
                    GraphPatternQuery((X,), make_pattern((X, first.age, z))),
                    label="self-loop",
                )
            )
            system.add_equivalence(
                EquivalenceMapping(peer_namespace(1).knows, last.age)
            )
            knows = [peer_namespace(i).knows for i in (2, 3)]
            yield name, system, path_query(knows, project_all=True)
        film = scaled_film_rps(films=6, linked_fraction=0.5, seed=seed)
        db1 = Namespace("http://db1.example.org/")
        query = GraphPatternQuery(
            (X, Y), make_pattern((X, db1.starring, z), (z, db1.artist, Y))
        )
        yield "film", film, query

    @pytest.mark.parametrize("seed", range(6))
    def test_same_counters_solutions_and_answers(self, seed, graph_shape):
        for name, system, query in self.systems(seed):
            semi = chase_universal_solution(system, semi_naive=True)
            naive = chase_universal_solution(system, semi_naive=False)
            for counter in self.COUNTERS:
                assert getattr(semi, counter) == getattr(naive, counter), (
                    name,
                    counter,
                )
            assert naive.evaluated_mappings == naive.rounds * len(
                system.assertions
            )
            assert semi.evaluated_mappings <= naive.evaluated_mappings
            assert is_solution(system, semi.solution), name
            assert is_solution(system, naive.solution), name
            assert graph_shape(semi.solution) == graph_shape(
                naive.solution
            ), name
            answers = certain_answers(system, query, solution=semi.solution)
            assert answers == certain_answers(
                system, query, solution=naive.solution
            ), name
            assert answers, name

    def test_delta_filter_skips_work_somewhere(self):
        """The ablation is not vacuous on these systems."""
        saved = 0
        for _, system, _ in self.systems(0):
            semi = chase_universal_solution(system, semi_naive=True)
            naive = chase_universal_solution(system, semi_naive=False)
            saved += naive.evaluated_mappings - semi.evaluated_mappings
        assert saved > 0

    @pytest.mark.parametrize(
        "loop, fired, evaluated, rounds", [(True, 1, 3, 3), (False, 0, 2, 2)]
    )
    def test_repeated_variable_relevance_is_exact(
        self, loop, fired, evaluated, rounds
    ):
        """``(?x k1 ?x)`` is re-checked exactly when a new ``k1`` triple
        is a loop: a derived ``(a k1 a)`` must reach it in round 2, a
        derived ``(a k1 b)`` must not."""
        from repro.peers import RPS, GraphMappingAssertion
        from repro.rdf.graph import Graph
        from repro.rdf.triples import Triple

        ex = Namespace("http://example.org/")
        z = Variable("z")
        graph = Graph([Triple(ex.a, ex.k0, ex.a if loop else ex.b)])
        system = RPS.from_graphs(
            {"peer": graph},
            assertions=[
                GraphMappingAssertion(
                    GraphPatternQuery((X,), make_pattern((X, ex.k1, X))),
                    GraphPatternQuery((X,), make_pattern((X, ex.mark, z))),
                    label="self-loop",
                ),
                GraphMappingAssertion(
                    GraphPatternQuery((X, Y), make_pattern((X, ex.k0, Y))),
                    GraphPatternQuery((X, Y), make_pattern((X, ex.k1, Y))),
                    label="k0->k1",
                ),
            ],
        )
        result = chase_universal_solution(system)
        assert result.fired_per_assertion == {"self-loop": fired, "k0->k1": 1}
        assert result.evaluated_mappings == evaluated
        assert result.rounds == rounds
        assert is_solution(system, result.solution)

