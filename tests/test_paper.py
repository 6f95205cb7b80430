"""The paper's own example through both of the paper's routes.

Example 2 / Figure 1 (one assertion ``Q₂ ⇝ Q₁``, four harvested
equivalences, 13 stored triples) with the Listing-1 query: the chase
(Algorithm 1), the answer-atom rewriting and the Example-3 tuple check
must all give the six published answers, and the rewriting's
un-expanded rows must be Listing 1's "Result without redundancy".
Example 3 / Listing 2: the Boolean rewriting of the query bound to one
candidate tuple is a handful of ASK blocks over the stored data.
Section 4: Proposition 2 applies to the film and cycle systems but not
to the transitive-closure one, whose partial rewritings grow with depth
(Proposition 3), and the TGD classes are incomparable with RPS
dependency sets.
"""

import pytest

from repro.peers import certain_answers
from repro.rdf.terms import Literal
from repro.rewriting import (
    ancestor_query,
    certain_answers_by_rewriting,
    certain_answers_by_tuple_check,
    check_fo_rewritable,
    deduplicate_answers,
    rewrite_boolean_query,
    rewriting_growth,
    transitive_closure_rps,
)
from repro.rewriting.redundancy import EquivalenceQuotient
from repro.sparql.bridge import sparql_to_gpq
from repro.tgd.classes import classify
from repro.workload import (
    PAPER_EXPECTED_ANSWERS,
    PAPER_EXPECTED_NONREDUNDANT,
    cycle_rps,
    example2_rps,
    figure1_namespaces,
    paper_query_text,
    scaled_film_rps,
)
from repro.workload.film_domain import DB1, FOAF


@pytest.fixture
def system():
    return example2_rps()


class TestListing1:
    def test_chase_and_rewriting_give_the_published_answers(self, system):
        text = paper_query_text()
        rewritten = certain_answers_by_rewriting(system, text)
        assert certain_answers(system, text) == PAPER_EXPECTED_ANSWERS
        assert rewritten.answers == PAPER_EXPECTED_ANSWERS
        assert rewritten.rewritings == 1 and rewritten.disjuncts <= 4

    def test_unexpanded_rows_are_the_result_without_redundancy(self, system):
        rewritten = certain_answers_by_rewriting(system, paper_query_text())
        assert rewritten.nonredundant == PAPER_EXPECTED_NONREDUNDANT
        assert rewritten.nonredundant == deduplicate_answers(
            system, rewritten.answers
        )

    def test_tuple_check_agrees(self, system):
        checked = certain_answers_by_tuple_check(system, paper_query_text())
        assert checked.answers == PAPER_EXPECTED_ANSWERS
        assert checked.nonredundant == PAPER_EXPECTED_NONREDUNDANT
        assert checked.rewritings > len(PAPER_EXPECTED_ANSWERS)


class TestListing2:
    def rewriting(self, system, candidate):
        query = sparql_to_gpq(paper_query_text()).bind_tuple(candidate)
        return rewrite_boolean_query(system, query)

    def test_a_published_answer_holds_over_the_stored_data(self, system):
        rewriting = self.rewriting(system, (FOAF.Toby_Maguire, Literal("39")))
        assert 2 <= len(rewriting) <= 4
        assert rewriting.evaluate(system.stored_database())

    def test_a_wrong_tuple_does_not(self, system):
        rewriting = self.rewriting(system, (DB1.Toby_Maguire, Literal("32")))
        assert len(rewriting) <= 4
        assert not rewriting.evaluate(system.stored_database())

    def test_surface_form_is_a_union_of_ask_blocks(self, system):
        rewriting = self.rewriting(system, (FOAF.Willem_Dafoe, Literal("59")))
        text = rewriting.to_sparql(figure1_namespaces())
        assert text.startswith("ASK {{") and text.endswith("}}")
        assert text.count("\nUNION\n") == len(rewriting) - 1
        # The mapped disjunct reads Source 2's ``actor`` edge directly.
        assert "DB2:actor" in text and "DB1:starring" in text


class TestSection4:
    @pytest.mark.parametrize("build, rewritable", [
        (example2_rps, True),
        (lambda: scaled_film_rps(60), True),
        (lambda: cycle_rps(4), True),
        (lambda: transitive_closure_rps(6), False),
    ])
    def test_proposition2_applies_to_linear_and_sticky_systems(self, build, rewritable):
        assert check_fo_rewritable(build()) is rewritable

    def test_proposition3_partial_rewritings_grow_with_depth(self):
        growth = rewriting_growth(
            ancestor_query(0, 6), transitive_closure_rps(6), [0, 1, 2, 3, 4]
        )
        assert growth == {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}

    def test_example2_is_linear_and_sticky_but_not_weakly_acyclic(self, system):
        flags = classify(EquivalenceQuotient(system).tgds)
        assert flags.linear and flags.sticky
        assert not flags.weakly_acyclic

    def test_transitive_closure_is_full_and_weakly_acyclic_only(self):
        flags = classify(EquivalenceQuotient(transitive_closure_rps(6)).tgds)
        assert flags.full and flags.weakly_acyclic
        assert not (flags.linear or flags.sticky or flags.guarded)
