"""Property-style tests for the dictionary-encoded Graph.

The central invariant: after ANY add/remove sequence, ``match()`` agrees
with a naive scan over ``iter(graph)`` for all 8 pattern shapes, and the
three ID indexes agree with the triple set.
"""

import random

import pytest

from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Literal, Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.workload.generators import random_graph

EX = Namespace("http://example.org/")

S, P, O = Variable("s"), Variable("p"), Variable("o")


def naive_match(graph, pattern):
    """Oracle: scan every triple and apply the pattern definition."""
    return {t for t in graph if pattern.matches(t) is not None}


def all_shape_patterns(triple):
    """The 8 ground/variable shape combinations anchored at one triple."""
    s, p, o = triple.subject, triple.predicate, triple.object
    return [
        TriplePattern(S, P, O),
        TriplePattern(s, P, O),
        TriplePattern(S, p, O),
        TriplePattern(S, P, o),
        TriplePattern(s, p, O),
        TriplePattern(s, P, o),
        TriplePattern(S, p, o),
        TriplePattern(s, p, o),
    ]


def random_mutation_graph(seed, operations=400):
    """Apply a random add/remove sequence over a small term universe."""
    rng = random.Random(seed)
    entities = [EX.term(f"e{i}") for i in range(12)]
    predicates = [EX.term(f"p{i}") for i in range(4)]
    objects = entities + [Literal(str(i)) for i in range(6)]
    graph = Graph(name=f"mut{seed}")
    for _ in range(operations):
        triple = Triple(
            rng.choice(entities), rng.choice(predicates), rng.choice(objects)
        )
        if rng.random() < 0.35:
            graph.remove(triple)
        else:
            graph.add(triple)
    return graph


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_match_agrees_with_naive_scan_all_shapes(seed):
    graph = random_mutation_graph(seed)
    assert len(graph) > 0
    rng = random.Random(seed + 100)
    anchors = rng.sample(sorted(graph.sorted_triples(), key=Triple.sort_key), 5)
    for anchor in anchors:
        for pattern in all_shape_patterns(anchor):
            assert set(graph.match(pattern)) == naive_match(graph, pattern)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_index_coherence_after_mutations(seed):
    graph = random_mutation_graph(seed)
    assert graph.check_index_coherence()
    # Removing everything must empty the indexes too.
    for triple in list(graph):
        assert graph.remove(triple)
    assert len(graph) == 0
    assert graph.check_index_coherence()
    assert not graph.subjects() and not graph.predicates() and not graph.objects()


def test_count_agrees_with_naive_scan():
    graph = random_mutation_graph(7)
    anchor = min(graph, key=Triple.sort_key)
    s, p, o = anchor.subject, anchor.predicate, anchor.object
    cases = [
        (None, None, None),
        (s, None, None),
        (None, p, None),
        (None, None, o),
        (s, p, None),
        (s, None, o),
        (None, p, o),
        (s, p, o),
    ]
    for cs, cp, co in cases:
        expected = sum(
            1
            for t in graph
            if (cs is None or t.subject == cs)
            and (cp is None or t.predicate == cp)
            and (co is None or t.object == co)
        )
        assert graph.count(cs, cp, co) == expected


def test_add_remove_report_membership_change():
    graph = Graph()
    t = Triple(EX.term("a"), EX.term("p"), EX.term("b"))
    assert graph.add(t) is True
    assert graph.add(t) is False
    assert t in graph
    assert graph.remove(t) is True
    assert graph.remove(t) is False
    assert t not in graph


def test_remove_of_never_interned_triple_is_noop():
    graph = Graph([Triple(EX.term("a"), EX.term("p"), EX.term("b"))])
    foreign = Triple(
        EX.term("never-stored-subject-xyzzy"),
        EX.term("never-stored-predicate-xyzzy"),
        EX.term("never-stored-object-xyzzy"),
    )
    assert foreign not in graph
    assert graph.remove(foreign) is False
    assert len(graph) == 1


def test_repeated_variable_pattern_only_matches_equal_positions():
    a, p = EX.term("a"), EX.term("p")
    graph = Graph([Triple(a, p, EX.term("b")), Triple(a, p, a)])
    x = Variable("x")
    assert set(graph.match(TriplePattern(x, p, x))) == {Triple(a, p, a)}


def test_literal_subject_pattern_matches_nothing():
    graph = Graph([Triple(EX.term("a"), EX.term("p"), Literal("5"))])
    assert list(graph.match(TriplePattern(Literal("5"), P, O))) == []


def test_set_algebra_matches_python_sets():
    g1 = random_graph(triples=80, seed=1)
    g2 = random_graph(triples=80, seed=2)
    s1, s2 = set(g1), set(g2)
    assert set(g1 | g2) == s1 | s2
    assert set(g1 & g2) == s1 & s2
    assert set(g1 - g2) == s1 - s2
    assert g1.issubset(g1 | g2)
    assert not (g1 | g2).issubset(g1) or s2 <= s1


def test_set_algebra_across_distinct_dictionaries():
    from repro.rdf.dictionary import TermDictionary

    triples = [
        Triple(EX.term("a"), EX.term("p"), EX.term("b")),
        Triple(EX.term("b"), EX.term("p"), EX.term("c")),
    ]
    shared = Graph(triples)
    private = Graph(triples[:1], dictionary=TermDictionary())
    assert private == Graph(triples[:1])
    assert set(shared - private) == {triples[1]}
    assert set(shared & private) == {triples[0]}
    assert private.issubset(shared)


def test_copy_is_independent():
    graph = random_graph(triples=50, seed=3)
    clone = graph.copy(name="clone")
    extra = Triple(EX.term("only-in-clone"), EX.term("p"), EX.term("x"))
    clone.add(extra)
    assert extra in clone and extra not in graph
    assert clone.check_index_coherence() and graph.check_index_coherence()
    clone.remove(extra)
    assert clone == graph


def test_graph_equality_and_unhashability(medium_random_graph):
    same = Graph(medium_random_graph)
    assert same == medium_random_graph
    same.add(Triple(EX.term("zz"), EX.term("p"), EX.term("zz")))
    assert same != medium_random_graph
    with pytest.raises(TypeError):
        hash(medium_random_graph)


def test_derived_views_agree_with_scan(blanky_random_graph):
    graph = blanky_random_graph
    assert graph.subjects() == {t.subject for t in graph}
    assert graph.predicates() == {t.predicate for t in graph}
    assert graph.objects() == {t.object for t in graph}
    expected_terms = set()
    for t in graph:
        expected_terms.update(t.terms())
    assert graph.terms() == expected_terms
    assert graph.iris() | graph.blank_nodes() | graph.literals() == expected_terms


def test_predicate_histogram(medium_random_graph):
    histogram = medium_random_graph.predicate_histogram()
    for predicate, count in histogram.items():
        assert count == medium_random_graph.count(predicate=predicate)
    assert sum(histogram.values()) == len(medium_random_graph)


def test_count_pattern_agrees_with_match(medium_random_graph):
    graph = medium_random_graph
    for triple in list(graph)[:20]:
        for pattern in all_shape_patterns(triple):
            assert graph.count_pattern(pattern) == sum(
                1 for _ in graph.match(pattern)
            )


def test_count_pattern_repeated_variable_and_edge_cases():
    graph = Graph()
    x = Variable("x")
    graph.add(Triple(EX.term("a"), EX.term("p"), EX.term("a")))
    graph.add(Triple(EX.term("a"), EX.term("p"), EX.term("b")))
    # Repeated variable: only the reflexive triple counts.
    assert graph.count_pattern(TriplePattern(x, EX.term("p"), x)) == 1
    # Literal subject can never match.
    assert graph.count_pattern(TriplePattern(Literal("a"), P, O)) == 0
    # Uninterned ground term counts zero without touching indexes.
    assert graph.count_pattern(TriplePattern(EX.term("ghost"), P, O)) == 0


def test_add_id_triples_bulk_and_dictionary_guard():
    source = Graph([Triple(EX.term("a"), EX.term("p"), EX.term("b"))])
    sink = Graph(dictionary=source.dictionary)
    ids = list(source.triples_ids())
    assert sink.add_id_triples(ids, source.dictionary) == 1
    assert sink.add_id_triples(ids, source.dictionary) == 0  # idempotent
    assert set(sink) == set(source)
    from repro.rdf.dictionary import TermDictionary

    with pytest.raises(ValueError, match="own dictionary"):
        sink.add_id_triples(ids, TermDictionary())


def test_add_id_triples_bulk_path_matches_one_at_a_time():
    # Row order downstream depends on index leaf iteration order, so
    # the bulk path must leave every index level, the position counts
    # and the epoch exactly as triple-by-triple insertion does — on an
    # empty graph, onto existing content, and with duplicates inside
    # the batch.
    source = random_graph(triples=400, seed=21)
    ids = list(source.triples_ids())
    rng = random.Random(4)
    rng.shuffle(ids)
    first, second = ids[:150], ids[100:] + ids[:20]
    one_by_one = Graph(dictionary=source.dictionary)
    bulk = Graph(dictionary=source.dictionary)
    for batch in (first, second, second):
        added = sum(1 for t in batch if one_by_one._add_ids(t))
        assert bulk.add_id_triples(iter(batch), source.dictionary) == added
        assert bulk.epoch == one_by_one.epoch
        assert list(bulk.triples_ids()) == list(one_by_one.triples_ids())
        for order in ("spo", "pos", "osp"):
            got, want = bulk.runs(order), one_by_one.runs(order)
            assert list(got) == list(want)
            for key, level in want.items():
                assert list(got[key]) == list(level)
                for inner, run in level.items():
                    assert list(got[key][inner]) == list(run)
        for s, p, o in ids[:50]:
            for probe in ((s, None, None), (None, p, None), (None, None, o)):
                assert bulk.count_ids(*probe) == one_by_one.count_ids(*probe)
    assert set(bulk) == set(source)
