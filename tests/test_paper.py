"""The paper's own example through both of the paper's routes.

Example 2 / Figure 1 (one assertion ``Q₂ ⇝ Q₁``, four harvested
equivalences, 13 stored triples) with the Listing-1 query: the chase
(Algorithm 1), the answer-atom rewriting and the Example-3 tuple check
must all give the six published answers, and the rewriting's
un-expanded rows must be Listing 1's "Result without redundancy".
Example 3 / Listing 2: the Boolean rewriting of the query bound to one
candidate tuple is a handful of ASK blocks over the stored data.
"""

import pytest

from repro.peers import certain_answers
from repro.rdf.terms import Literal
from repro.rewriting import (
    certain_answers_by_rewriting,
    certain_answers_by_tuple_check,
    deduplicate_answers,
    rewrite_boolean_query,
)
from repro.sparql.bridge import sparql_to_gpq
from repro.workload import (
    PAPER_EXPECTED_ANSWERS,
    PAPER_EXPECTED_NONREDUNDANT,
    example2_rps,
    figure1_namespaces,
    paper_query_text,
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
