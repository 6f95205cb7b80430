"""Proposition 2 over the stored ``Graph``: rewriting versus the chase.

The rewritten union is evaluated disjunct by disjunct on the columnar
batch engine, straight over the stored database (no relational copy).
These tests pin what that must preserve: agreement with chase-based
certain answers on the benchmark's cycle system, the blank-dropping
``Q_D`` boundary, constants substituted into answer positions (also
ones no stored triple names, which cross the boundary under a private
negative ID), answer atoms with a repeated variable, the stored graph the
system keeps between rewritings, and the Proposition-3 bounded
rewriting.

Equivalences reach the rewriter as classes (the query, the assertion
TGDs and the stored graph over representatives, answers expanded at the
boundary); Algorithm 1 is the oracle for that on generated systems and
on hand-built corner cases.  It chases the same quotient since ISSUE 24,
so ``tests/test_chase_classes.py`` holds it in turn to the relational
chase with Section 3's six copy TGDs per pair.
"""

import pytest

from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.peers import (
    RPS,
    EquivalenceMapping,
    GraphMappingAssertion,
    Peer,
    certain_answers,
    certain_ask,
    chase_universal_solution,
)
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import BlankNode, Literal, Variable
from repro.rdf.triples import Triple
from repro.rewriting import (
    ancestor_query,
    bounded_rewriting_answers,
    certain_answers_by_rewriting,
    certain_answers_by_tuple_check,
    rewrite_boolean_query,
    transitive_closure_rps,
)
from repro.rewriting.redundancy import EquivalenceQuotient
from repro.workload import (
    chain_rps,
    cycle_rps,
    path_query,
    peer_namespace,
    scaled_film_rps,
    star_rps,
)

EX = Namespace("http://example.org/")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@pytest.mark.parametrize("hops", [1, 2])
def test_rewriting_equals_chase_on_the_benchmark_cycle(hops):
    """``rewriting.q1``/``q2`` of ``benchmarks/wl_certain_answers.py``."""
    system = cycle_rps(5, entities=100, facts=300, link_fraction=0.0, seed=7)
    knows = [peer_namespace(i).knows for i in range(hops)]
    query = path_query(knows, project_all=True)
    rewritten = certain_answers_by_rewriting(system, query)
    assert rewritten.answers == certain_answers(system, query)
    assert rewritten.rewritings == 1 and rewritten.disjuncts > 1


@pytest.mark.parametrize("link_fraction", [0.3, 1.0])
@pytest.mark.parametrize("build", [cycle_rps, chain_rps, star_rps])
def test_rewriting_equals_chase_under_equivalences(build, link_fraction):
    for seed in range(3):
        system = build(
            4, entities=8, facts=16, link_fraction=link_fraction, seed=seed
        )
        assert system.equivalences
        solution = chase_universal_solution(system).solution
        for start, hops in [(0, 1), (1, 1), (0, 2), (3, 2)]:
            knows = [peer_namespace((start + i) % 4).knows for i in range(hops)]
            query = path_query(knows, project_all=True)
            rewritten = certain_answers_by_rewriting(system, query)
            assert rewritten.answers == certain_answers(
                system, query, solution=solution
            ), (seed, start, hops)
            assert rewritten.nonredundant <= rewritten.answers


@pytest.mark.parametrize("linked_fraction", [0.5, 1.0])
def test_rewriting_equals_chase_on_the_film_system(linked_fraction):
    """``film_text`` of ``benchmarks/wl_certain_answers.py``, by rewriting."""
    for seed in range(3):
        system = scaled_film_rps(
            films=12, linked_fraction=linked_fraction, seed=seed
        )
        solution = chase_universal_solution(system).solution
        for film in range(0, 12, 3):
            text = (
                "PREFIX DB1: <http://db1.example.org/> "
                "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
                f"SELECT ?x ?y WHERE {{ DB1:film{film} DB1:starring ?z . "
                "?z DB1:artist ?x . ?x foaf:age ?y }"
            )
            rewritten = certain_answers_by_rewriting(system, text)
            assert rewritten.answers == certain_answers(
                system, text, solution=solution
            ), (seed, film)


def _translation(source, target, label):
    return GraphMappingAssertion(
        GraphPatternQuery((X, Y), make_pattern((X, source, Y))),
        GraphPatternQuery((X, Y), make_pattern((X, target, Y))),
        label=label,
    )


class TestTupleCheckSkipsOnlyIllTypedCandidates:
    """``bind_tuple`` failures: a literal predicate is skipped, a bug is not."""

    def system(self) -> RPS:
        graph = Graph(
            [Triple(EX.a, EX.p, EX.b), Triple(EX.a, EX.label, Literal("a"))],
            name="source",
        )
        return RPS.from_graphs(
            {"source": graph}, assertions=[_translation(EX.p, EX.q, "p->q")]
        )

    def test_literal_candidate_in_predicate_position_is_no_answer(self):
        system = self.system()
        query = GraphPatternQuery((X,), make_pattern((EX.a, X, EX.b)))
        checked = certain_answers_by_tuple_check(system, query)
        assert checked.answers == {(EX.p,), (EX.q,)}
        assert checked.answers == certain_answers(system, query)
        # Five candidates (a, b, label, p, q as IRIs) were rewritten;
        # the literal was never turned into a Boolean query.
        assert checked.rewritings == 5

    def test_unexpected_failure_propagates(self, monkeypatch):
        def broken(self, values):
            raise RuntimeError("a refactor went wrong")

        monkeypatch.setattr(GraphPatternQuery, "bind_tuple", broken)
        query = GraphPatternQuery((X,), make_pattern((EX.a, X, EX.b)))
        with pytest.raises(RuntimeError, match="refactor"):
            certain_answers_by_tuple_check(self.system(), query)


class TestStoredBlanksNeverSurface:
    """A blank node of the stored database is a null, not an answer."""

    def system(self) -> RPS:
        source = Graph(
            [
                Triple(EX.a, EX.p, EX.b),
                Triple(EX.a, EX.p, BlankNode("source")),
            ],
            name="source",
        )
        target = Graph(
            [
                Triple(EX.d, EX.q, BlankNode("target")),
                Triple(BlankNode("target"), EX.q, EX.e),
            ],
            name="target",
        )
        return RPS.from_graphs(
            {"source": source, "target": target},
            assertions=[_translation(EX.p, EX.q, "p->q")],
        )

    def test_answer_positions_drop_blanks(self):
        system = self.system()
        query = GraphPatternQuery((X, Y), make_pattern((X, EX.q, Y)))
        answers = certain_answers_by_rewriting(system, query).answers
        assert answers == {(EX.a, EX.b)}
        assert answers == certain_answers(system, query)
        assert answers == certain_answers_by_tuple_check(system, query).answers

    def test_a_blank_only_answer_position_has_no_certain_answer(self):
        """``(d q ?y)`` matches only the stored blank: no answer, and
        ``certain_ask`` says so; the Boolean form still holds."""
        system = self.system()
        query = GraphPatternQuery((Y,), make_pattern((EX.d, EX.q, Y)))
        assert certain_answers_by_rewriting(system, query).answers == set()
        assert certain_answers(system, query) == set()
        assert certain_answers_by_tuple_check(system, query).answers == set()
        assert not certain_ask(system, query)
        holds = GraphPatternQuery((), make_pattern((EX.d, EX.q, Y)))
        assert certain_ask(system, holds)
        assert certain_answers_by_rewriting(system, holds).answers == {()}
        assert certain_answers(system, holds) == {()}

    def test_nor_through_an_equivalence_class(self):
        """``b ≡ e`` widens the answers; the blanks still stay out."""
        system = self.system()
        system.add_equivalence(EquivalenceMapping(EX.b, EX.e))
        query = GraphPatternQuery((X, Y), make_pattern((X, EX.q, Y)))
        answers = certain_answers_by_rewriting(system, query).answers
        assert answers == {(EX.a, EX.b), (EX.a, EX.e)}
        assert answers == certain_answers(system, query)
        assert answers == certain_answers_by_tuple_check(system, query).answers
        joined = GraphPatternQuery(
            (X, Y), make_pattern((X, EX.q, Z), (Z, EX.q, Y))
        )
        answers = certain_answers_by_rewriting(system, joined).answers
        assert answers == {(EX.d, EX.e), (EX.d, EX.b)}
        assert answers == certain_answers(system, joined)

    def test_blank_still_joins_as_an_existential(self):
        """?z may bind a stored blank; only answer positions drop it."""
        system = self.system()
        query = GraphPatternQuery(
            (X, Y), make_pattern((X, EX.q, Z), (Z, EX.q, Y))
        )
        answers = certain_answers_by_rewriting(system, query).answers
        assert answers == {(EX.d, EX.e)}
        assert answers == certain_answers(system, query)
        stored = system.stored_database()
        hit = GraphPatternQuery(
            (), make_pattern((EX.d, EX.q, Z), (Z, EX.q, EX.e))
        )
        assert rewrite_boolean_query(system, hit).evaluate(stored)
        miss = GraphPatternQuery((), make_pattern((EX.e, EX.q, Z)))
        assert not rewrite_boolean_query(system, miss).evaluate(stored)


def test_mapping_constant_lands_in_an_answer_position():
    """``(x p y) ⇝ (x kind K)``: K occurs in no stored triple, so the
    stored dictionary lacks it, yet it is an answer — it crosses the
    boundary under a private negative ID, and nothing interns it."""
    kind = EX.KindThatOnlyAMappingNames
    assertion = GraphMappingAssertion(
        GraphPatternQuery((X,), make_pattern((X, EX.p, Y))),
        GraphPatternQuery((X,), make_pattern((X, EX.kind, kind))),
        label="p->kind",
    )
    system = RPS.from_graphs(
        {
            "source": Graph([Triple(EX.a, EX.p, EX.b)], name="source"),
            "target": Graph([Triple(EX.d, EX.kind, EX.D)], name="target"),
        },
        assertions=[assertion],
    )
    assert system.stored_graph().term_id(kind) is None
    query = GraphPatternQuery((X, Y), make_pattern((X, EX.kind, Y)))
    answers = certain_answers_by_rewriting(system, query).answers
    assert system.stored_graph().term_id(kind) is None
    assert answers == {(EX.a, kind), (EX.d, EX.D)}
    assert answers == certain_answers(system, query)
    assert answers == certain_answers_by_tuple_check(system, query).answers


def test_an_answer_atom_with_a_repeated_variable():
    """``(x p y) ⇝ (x q x)`` rewrites ``(?x q ?y)`` to ``_ans(x, x)``
    over ``(x p y)``: one column fills both answer positions."""
    assertion = GraphMappingAssertion(
        GraphPatternQuery((X,), make_pattern((X, EX.p, Y))),
        GraphPatternQuery((X,), make_pattern((X, EX.q, X))),
        label="p->loop",
    )
    system = RPS.from_graphs(
        {
            "source": Graph(
                [Triple(EX.a, EX.p, EX.b), Triple(EX.c, EX.p, EX.a)],
                name="source",
            ),
            "target": Graph([Triple(EX.d, EX.q, EX.e)], name="target"),
        },
        assertions=[assertion],
    )
    query = GraphPatternQuery((X, Y), make_pattern((X, EX.q, Y)))
    rewritten = certain_answers_by_rewriting(system, query)
    assert rewritten.answers == {(EX.a, EX.a), (EX.c, EX.c), (EX.d, EX.e)}
    assert rewritten.answers == certain_answers(system, query)
    assert (
        rewritten.answers
        == certain_answers_by_tuple_check(system, query).answers
    )


class TestEquivalencesAsClasses:
    """Hand-built corners of the quotient, each against Algorithm 1."""

    def system(self, equivalences):
        source = Graph(
            [Triple(EX.a, EX.p, EX.x1), Triple(EX.c, EX.p2, EX.x2)],
            name="source",
        )
        target = Graph([Triple(EX.b, EX.q, EX.y1)], name="target")
        return RPS.from_graphs(
            {"source": source, "target": target},
            assertions=[_translation(EX.p, EX.q, "p->q")],
            equivalences=equivalences,
        )

    def agree(self, system, query):
        rewritten = certain_answers_by_rewriting(system, query)
        assert rewritten.answers == certain_answers(system, query)
        checked = certain_answers_by_tuple_check(system, query)
        assert checked.answers == rewritten.answers
        assert checked.nonredundant == rewritten.nonredundant
        return rewritten

    def test_a_chain_of_pairs_is_one_class(self):
        system = self.system(
            [EquivalenceMapping(EX.a, EX.b), EquivalenceMapping(EX.b, EX.c)]
        )
        query = GraphPatternQuery((X, Y), make_pattern((X, EX.q, Y)))
        rewritten = self.agree(system, query)
        assert rewritten.nonredundant == {(EX.a, EX.x1), (EX.a, EX.y1)}
        assert rewritten.answers == {
            (s, o) for s in (EX.a, EX.b, EX.c) for o in (EX.x1, EX.y1)
        }

    def test_an_equivalence_on_a_predicate(self):
        """``p2 ≡ p``: the assertion's source now also reads ``p2`` edges."""
        system = self.system([EquivalenceMapping(EX.p2, EX.p)])
        query = GraphPatternQuery((X, Y), make_pattern((X, EX.q, Y)))
        assert self.agree(system, query).answers == {
            (EX.a, EX.x1), (EX.c, EX.x2), (EX.b, EX.y1),
        }
        by_variable = GraphPatternQuery((Z,), make_pattern((EX.c, Z, EX.x2)))
        assert self.agree(system, by_variable).answers == {
            (EX.p,), (EX.p2,), (EX.q,),
        }

    def test_an_equivalence_on_a_query_constant(self):
        system = self.system([EquivalenceMapping(EX.b, EX.a)])
        for anchor in (EX.a, EX.b):
            query = GraphPatternQuery((Y,), make_pattern((anchor, EX.q, Y)))
            assert self.agree(system, query).answers == {(EX.x1,), (EX.y1,)}

    def test_pair_order_and_direction_do_not_matter(self):
        pairs = [(EX.a, EX.b), (EX.b, EX.c), (EX.x1, EX.y1)]
        query = GraphPatternQuery((X, Y), make_pattern((X, EX.q, Y)))
        results = [
            self.agree(
                self.system([EquivalenceMapping(*pair) for pair in variant]),
                query,
            )
            for variant in (
                pairs,
                pairs[::-1],
                [pair[::-1] for pair in pairs],
            )
        ]
        assert results[0].answers == results[1].answers == results[2].answers
        assert (
            results[0].nonredundant
            == results[1].nonredundant
            == results[2].nonredundant
            == {(EX.a, EX.x1)}
        )

    def test_expand_without_classes_is_a_fresh_equal_set(self):
        quotient = EquivalenceQuotient(self.system([]))
        assert not quotient.classes
        rows = {(EX.a, EX.x1), (EX.c, EX.x2)}
        expanded = quotient.expand(rows)
        assert expanded == rows and expanded is not rows
        assert quotient.expand([(EX.a, EX.x1), (EX.a, EX.x1)]) == {
            (EX.a, EX.x1)
        }

    def test_expand_with_classes_multiplies_rows_out(self):
        quotient = EquivalenceQuotient(
            self.system([EquivalenceMapping(EX.b, EX.a)])
        )
        rows = {(EX.a, EX.x1), (EX.c, EX.x2)}
        assert quotient.expand(rows) == {
            (EX.a, EX.x1), (EX.b, EX.x1), (EX.c, EX.x2),
        }


class TestTheKeptStoredGraph:
    """The system keeps D and its quotient between rewritings; every
    mutation must show in the next answer exactly as in a new system."""

    QUERY = GraphPatternQuery((X, Y), make_pattern((X, EX.q, Y)))

    def system(self):
        source = Graph(
            [Triple(EX.a, EX.p, EX.b), Triple(EX.g, EX.r, EX.h)],
            name="source",
        )
        target = Graph([Triple(EX.d, EX.q, EX.e)], name="target")
        return RPS.from_graphs(
            {"source": source, "target": target},
            assertions=[_translation(EX.p, EX.q, "p->q")],
        )

    def fresh(self, system):
        """The same state as a new system over copies of its graphs."""
        return RPS(
            [
                Peer(peer.schema, peer.graph.copy())
                for peer in system.peers.values()
            ],
            system.assertions,
            system.equivalences,
        )

    def answers(self, system):
        return certain_answers_by_rewriting(system, self.QUERY).answers

    def changes(self, mutate):
        system = self.system()
        before = self.answers(system)
        mutate(system)
        after = self.answers(system)
        assert after != before
        assert after == self.answers(self.fresh(system))
        assert after == certain_answers(system, self.QUERY)
        return after

    def test_graph_add(self):
        added = Triple(EX.c, EX.p, EX.f)
        after = self.changes(lambda s: s.peers["source"].graph.add(added))
        assert (EX.c, EX.f) in after

    def test_graph_remove(self):
        removed = Triple(EX.d, EX.q, EX.e)
        after = self.changes(lambda s: s.peers["target"].graph.remove(removed))
        assert (EX.d, EX.e) not in after

    def test_add_assertion(self):
        r_to_q = _translation(EX.r, EX.q, "r->q")
        after = self.changes(lambda s: s.add_assertion(r_to_q))
        assert (EX.g, EX.h) in after

    def test_add_equivalence(self):
        b_is_e = EquivalenceMapping(EX.b, EX.e)
        after = self.changes(lambda s: s.add_equivalence(b_is_e))
        assert {(EX.a, EX.e), (EX.d, EX.b)} <= after

    def test_replacing_a_peer_graph(self):
        def replace(system):
            system.peers["target"].graph = Graph(
                [Triple(EX.d, EX.q, EX.b)], name="target"
            )

        after = self.changes(replace)
        assert (EX.d, EX.b) in after and (EX.d, EX.e) not in after

    def test_a_second_call_reuses_the_graph(self, monkeypatch):
        builds = []
        build = RPS.stored_database

        def counted(system):
            builds.append(None)
            return build(system)

        monkeypatch.setattr(RPS, "stored_database", counted)
        system = self.system()
        first = self.answers(system)
        kept = system.stored_graph()
        assert self.answers(system) == first
        assert system.stored_graph() is kept
        assert system.stored_quotient() is kept  # E is empty
        assert len(builds) == 1

    def test_a_changed_kept_graph_is_rebuilt(self):
        """The kept graph is read-only; one that was written to anyway
        is not trusted again."""
        system = self.system()
        kept = system.stored_graph()
        kept.add(Triple(EX.x1, EX.q, EX.y1))
        rebuilt = system.stored_graph()
        assert rebuilt is not kept
        assert Triple(EX.x1, EX.q, EX.y1) not in rebuilt
        assert self.answers(system) == self.answers(self.fresh(system))


def test_multi_head_assertion_needs_a_factorisation_step():
    """Example 2's ``Q₂ ⇝ Q₁``: the two atoms over the starring node
    rewrite to one auxiliary atom only after they are unified, so a
    rewriter that never expands a factorised (hence dominated) query
    loses the ``actor`` edge."""
    system = RPS.from_graphs(
        {
            "source1": Graph(
                [
                    Triple(EX.film, EX.starring, BlankNode("n")),
                    Triple(BlankNode("n"), EX.artist, EX.one),
                ],
                name="source1",
            ),
            "source2": Graph(
                [Triple(EX.film, EX.actor, EX.two)], name="source2"
            ),
        },
        assertions=[
            GraphMappingAssertion(
                GraphPatternQuery((X, Y), make_pattern((X, EX.actor, Y))),
                GraphPatternQuery(
                    (X, Y),
                    make_pattern((X, EX.starring, Z), (Z, EX.artist, Y)),
                ),
                label="Q2~>Q1",
            )
        ],
    )
    query = GraphPatternQuery(
        (Y,), make_pattern((EX.film, EX.starring, Z), (Z, EX.artist, Y))
    )
    answers = certain_answers_by_rewriting(system, query).answers
    assert answers == {(EX.one,), (EX.two,)} == certain_answers(system, query)


def test_mapping_constant_with_an_equivalent_lands_with_its_class():
    """``(x p y) ⇝ (x kind C)`` and ``C ≡ C′``: the assertion's own
    constant is replaced by its representative and expanded again."""
    assertion = GraphMappingAssertion(
        GraphPatternQuery((X,), make_pattern((X, EX.p, Y))),
        GraphPatternQuery((X,), make_pattern((X, EX.kind, EX.C))),
        label="p->kind",
    )
    system = RPS.from_graphs(
        {
            "source": Graph([Triple(EX.a, EX.p, EX.b)], name="source"),
            "target": Graph(
                [Triple(EX.d, EX.kind, EX.D), Triple(EX.B, EX.kind, EX.C)],
                name="target",
            ),
        },
        assertions=[assertion],
        equivalences=[EquivalenceMapping(EX.C, EX.B)],
    )
    query = GraphPatternQuery((X, Y), make_pattern((X, EX.kind, Y)))
    rewritten = certain_answers_by_rewriting(system, query)
    assert rewritten.answers == certain_answers(system, query)
    assert rewritten.nonredundant == {(EX.a, EX.B), (EX.d, EX.D), (EX.B, EX.B)}
    assert (EX.a, EX.C) in rewritten.answers and (EX.C, EX.B) in rewritten.answers


def test_literal_moved_into_predicate_position_matches_nothing():
    """``(x ?p y) ⇝ (x q ?p)`` rewrites ``(e q "5")`` to ``(e "5" ?y)``:
    a well-formed ``tt`` atom that is no triple pattern.  The disjunct
    must count as empty, not raise."""
    p = Variable("p")
    assertion = GraphMappingAssertion(
        GraphPatternQuery((X, p), make_pattern((X, p, Y))),
        GraphPatternQuery((X, p), make_pattern((X, EX.q, p))),
        label="predicate->object",
    )
    system = RPS.from_graphs(
        {
            "source": Graph([Triple(EX.a, EX.r, EX.b)], name="source"),
            "target": Graph([Triple(EX.d, EX.q, Literal("5"))], name="target"),
        },
        assertions=[assertion],
    )
    stored = system.stored_database()
    five = Literal("5")
    miss = GraphPatternQuery((), make_pattern((EX.e, EX.q, five)))
    rewriting = rewrite_boolean_query(system, miss)
    assert len(rewriting) == 2
    assert not rewriting.evaluate(stored)
    query = GraphPatternQuery((X,), make_pattern((X, EX.q, five)))
    answers = certain_answers_by_rewriting(
        system, query, require_fo_rewritable=False
    ).answers
    assert answers == {(EX.d,)} == certain_answers(system, query)


def test_bounded_rewriting_misses_long_chains():
    """Proposition 3: a depth-d rewriting reaches only so far."""
    short, long_ = transitive_closure_rps(3), transitive_closure_rps(6)
    assert not bounded_rewriting_answers(short, ancestor_query(0, 3), 1)[0]
    holds, stats = bounded_rewriting_answers(short, ancestor_query(0, 3), 2)
    assert holds and len(stats.ucq) > 1
    assert not bounded_rewriting_answers(long_, ancestor_query(0, 6), 3)[0]
