"""Property-style tests for the dictionary-encoded Graph.

The central invariant: after ANY add/remove sequence, ``match()`` agrees
with a naive scan over ``iter(graph)`` for all 8 pattern shapes, and the
three ID indexes agree with the triple set.  The order contract — every
probe shape iterates in an order fixed by the add sequence alone, however
late an ordering was first read — is checked against a reference model
that keeps all three orderings eagerly.
"""

import itertools
import random
import tracemalloc

import pytest

from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Literal, Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.workload.generators import random_graph

EX = Namespace("http://example.org/")

S, P, O = Variable("s"), Variable("p"), Variable("o")

#: Which positions are ground, for the eight probe shapes; the six with
#: one or two ground positions are the ones an ordering answers.
SHAPES = list(itertools.product((False, True), repeat=3))
KEYED_SHAPES = [shape for shape in SHAPES if 0 < sum(shape) < 3]


def probe_key(ids, shape):
    """An ID triple with the positions ``shape`` leaves free set to None."""
    return [tid if ground else None for tid, ground in zip(ids, shape)]


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
    with pytest.raises(ValueError, match="own dictionary"):
        sink.add_id_triples(ids, TermDictionary())


def test_add_id_triples_collapses_duplicates_inside_one_call():
    dictionary = TermDictionary()
    a, b, c, p = (dictionary.encode(EX.term(n)) for n in "abcp")
    graph = Graph(dictionary=dictionary)
    assert graph.add_id_triples([(a, p, b)], dictionary) == 1
    batch = [(b, p, c), (a, p, b), (b, p, c), (c, p, a), (c, p, a)]
    assert graph.add_id_triples(iter(batch), dictionary) == 2
    assert list(graph.id_triples()) == [(a, p, b), (b, p, c), (c, p, a)]
    assert graph.epoch == 3
    assert [graph.count_ids(s, None, None) for s in (a, b, c)] == [1, 1, 1]
    assert graph.count_ids(None, p, None) == 3


def test_add_id_triples_keeps_what_landed_when_the_input_raises():
    dictionary = TermDictionary()
    a, b, p = (dictionary.encode(EX.term(n)) for n in "abp")
    graph = Graph(dictionary=dictionary)
    graph.add_id_triples([(a, p, a)], dictionary)
    list(graph.triples_ids(None, p, None))  # POS exists before the load

    def broken():
        yield (a, p, b)
        raise RuntimeError("input failed")

    with pytest.raises(RuntimeError, match="input failed"):
        graph.add_id_triples(broken(), dictionary)
    assert list(graph.id_triples()) == [(a, p, a), (a, p, b)]
    assert graph.count_ids(a, None, None) == 2 and graph.epoch == 2
    assert graph.check_index_coherence()


def test_add_id_triples_bulk_path_matches_one_at_a_time():
    # Row order downstream depends on run iteration order, so the bulk
    # path must leave every keyed probe shape, the position counts and
    # the epoch exactly as triple-by-triple insertion does — on an
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
        for triple in one_by_one.triples_ids():
            for shape in KEYED_SHAPES:
                key = probe_key(triple, shape)
                assert list(bulk.triples_ids(*key)) == list(
                    one_by_one.triples_ids(*key)
                )
        for s, p, o in ids[:50]:
            for probe in ((s, None, None), (None, p, None), (None, None, o)):
                assert bulk.count_ids(*probe) == one_by_one.count_ids(*probe)
    assert set(bulk) == set(source)


class ReferenceStore:
    """The order contract, executable: three eagerly maintained nested
    dicts with insertion-ordered leaves (the layout before runs were
    inlined and orderings became lazy)."""

    def __init__(self, triples=()):
        self.ids, self.spo, self.pos, self.osp = {}, {}, {}, {}
        self.epoch = 0
        for triple in triples:
            self.add(triple)
        self.epoch = 0  # a copy starts a new history

    def add(self, triple):
        if triple in self.ids:
            return
        s, p, o = triple
        self.ids[triple] = None
        self.spo.setdefault(s, {}).setdefault(p, {})[o] = None
        self.pos.setdefault(p, {}).setdefault(o, {})[s] = None
        self.osp.setdefault(o, {}).setdefault(s, {})[p] = None
        self.epoch += 1

    def triples(self, s, p, o):
        ground = (s is not None, p is not None, o is not None)
        if all(ground):
            return [(s, p, o)] if (s, p, o) in self.ids else []
        if ground == (True, True, False):
            return [(s, p, c) for c in self.spo.get(s, {}).get(p, ())]
        if ground == (False, True, True):
            return [(c, p, o) for c in self.pos.get(p, {}).get(o, ())]
        if ground == (True, False, True):
            return [(s, c, o) for c in self.osp.get(o, {}).get(s, ())]
        if s is not None:
            level = self.spo.get(s, {})
            return [(s, b, c) for b, run in level.items() for c in run]
        if p is not None:
            level = self.pos.get(p, {})
            return [(c, p, b) for b, run in level.items() for c in run]
        if o is not None:
            level = self.osp.get(o, {})
            return [(b, c, o) for b, run in level.items() for c in run]
        return list(self.ids)


def assert_same_reads(graph, model, keys):
    for key in keys:
        want = model.triples(*key)
        assert list(graph.triples_ids(*key)) == want
        assert graph.count_ids(*key) == len(want)
    assert graph.epoch == model.epoch


@pytest.mark.parametrize("block", range(4))
def test_iteration_order_matches_eager_reference_model(block):
    # Writes through both paths, copies and reads interleave at random,
    # so each ordering is first built at a different point of every
    # history — and must read as if it had been there from the start.
    dictionary = TermDictionary()
    universe = [dictionary.encode(EX.term(f"t{i}")) for i in range(7)]
    for seed in range(block * 40, block * 40 + 40):
        rng = random.Random(seed)

        def triple():
            return tuple(rng.choice(universe) for _ in range(3))

        graph, model = Graph(dictionary=dictionary), ReferenceStore()
        for _ in range(rng.randrange(5, 60)):
            op = rng.random()
            if op < 0.35:
                fresh = triple()
                graph.add(dictionary.decode_triple(fresh))
                model.add(fresh)
            elif op < 0.6:
                batch = [triple() for _ in range(rng.randrange(1, 9))]
                batch += rng.sample(batch, rng.randrange(len(batch)))
                graph.add_id_triples(iter(batch), dictionary)
                for fresh in batch:
                    model.add(fresh)
            elif op < 0.7:
                graph, model = graph.copy(), ReferenceStore(model.ids)
            else:
                shape = rng.choice(SHAPES)
                assert_same_reads(graph, model, [probe_key(triple(), shape)])
        anchors = list(model.ids)[:10] + [triple() for _ in range(5)]
        assert_same_reads(
            graph,
            model,
            [probe_key(t, shape) for t in anchors for shape in SHAPES],
        )
        assert graph.check_index_coherence()


def test_orderings_are_built_by_the_first_read_that_needs_them():
    source = random_graph(triples=300, seed=5)
    ids = list(source.triples_ids())
    graph = Graph(dictionary=source.dictionary)
    graph.add_id_triples(ids, source.dictionary)
    graph.add(Triple(EX.term("late"), EX.term("p"), EX.term("late")))
    assert not any(s["built"] for s in graph.index_stats().values())
    predicate = ids[0][1]
    scanned = list(graph.triples_ids(None, predicate, None))
    stats = graph.index_stats()
    assert [o for o, s in stats.items() if s["built"]] == ["pos"]
    assert stats["pos"]["keys"] == len(graph.predicates())
    assert stats["pos"]["runs"] == len({(p, o) for _, p, o in graph.triples_ids()})
    assert 0 < stats["pos"]["inlined"] <= stats["pos"]["runs"]
    assert stats["spo"] == {"built": False, "keys": 0, "runs": 0, "inlined": 0}
    # Counts by one position come from the counters, not an ordering.
    assert graph.count_ids(subject=ids[0][0]) > 0
    assert graph.count_ids(predicate=predicate) == len(scanned)
    assert [o for o, s in graph.index_stats().items() if s["built"]] == ["pos"]
    with pytest.raises(ValueError, match="unknown index order"):
        graph.run("sop", 0, 0)


def test_run_group_probe_return_fresh_columns():
    a, b, c, p = (EX.term(n) for n in "abcp")
    graph = Graph([Triple(a, p, b), Triple(a, p, c), Triple(b, p, c)])
    ia, ib, ic, ip = (graph.term_id(t) for t in (a, b, c, p))

    def reads():
        return (
            graph.run("spo", ia, ip),  # a two-member run (a list inside)
            graph.run("spo", ib, ip),  # an inlined one
            graph.run("spo", ic, ip),  # an absent one
            graph.group("pos", ip),
            graph.probe("spo", [ia, ic, ib], [ip, ip, ip]),
        )

    expected = (
        [ib, ic],
        [ic],
        [],
        ([ib, ic, ic], [ia, ia, ib]),
        ([0, 0, 2], [ib, ic, ic]),
    )
    before = reads()
    assert before == expected
    for column in (*before[:3], *before[3], *before[4]):
        column.append(-1)
        column.reverse()
    assert reads() == expected
    held = graph.run("spo", ia, ip), graph.group("spo", ib)
    graph.add(Triple(a, p, a))
    graph.add(Triple(b, p, a))
    assert held == ([ib, ic], ([ip], [ic]))
    assert graph.run("spo", ia, ip) == [ib, ic, ia]
    assert graph.check_index_coherence()


def test_order_after_remove_ignores_when_orderings_were_built():
    rng = random.Random(9)
    triples = [
        Triple(EX.term(f"e{rng.randrange(6)}"), EX.term(f"p{rng.randrange(2)}"),
               EX.term(f"e{rng.randrange(6)}"))
        for _ in range(60)
    ]
    dictionary = TermDictionary()
    early, late = Graph(dictionary=dictionary), Graph(dictionary=dictionary)
    for graph in (early, late):
        graph.add_all(triples)
    keys = [
        probe_key(ids, shape)
        for ids in list(early.triples_ids())
        for shape in KEYED_SHAPES
    ]
    for key in keys:  # early has all three orderings before the removals
        list(early.triples_ids(*key))
    for victim in triples[::3]:
        assert early.remove(victim) == late.remove(victim)
    early.add(triples[0])
    late.add(triples[0])
    for key in keys:
        assert list(early.triples_ids(*key)) == list(late.triples_ids(*key))
    assert early.check_index_coherence() and late.check_index_coherence()


def test_copy_shares_no_run_with_its_source():
    a, b, c, p = (EX.term(n) for n in "abcp")
    graph = Graph([Triple(a, p, b), Triple(a, p, c)])
    key = (graph.term_id(a), graph.term_id(p), None)
    assert len(list(graph.triples_ids(*key))) == 2  # the run is a list now
    clone = graph.copy()
    clone.add(Triple(a, p, a))
    graph.add(Triple(a, p, p))
    assert [t[2] for t in graph.triples_ids(*key)] == [
        graph.term_id(t) for t in (b, c, p)
    ]
    assert [t[2] for t in clone.triples_ids(*key)] == [
        graph.term_id(t) for t in (b, c, a)
    ]
    assert clone.epoch == 1 and len(clone) == 3


def test_set_algebra_keeps_the_left_operands_private_dictionary():
    triples = [
        Triple(EX.term(f"private-{i}"), EX.term("private-p"), Literal(str(i)))
        for i in range(3)
    ]
    left = Graph(triples, dictionary=TermDictionary())
    right = Graph(triples[1:], dictionary=TermDictionary())
    for result, expected in (
        (left & right, triples[1:]),
        (left - right, triples[:1]),
        (left | right, triples),
    ):
        assert result.dictionary is left.dictionary
        assert set(result) == set(expected)
        # ... so it can take ID triples straight from its left operand.
        result.add_id_triples(left.triples_ids(), left.dictionary)
        assert set(result) == set(triples)
    assert Graph().term_id(EX.term("private-0")) is None


def test_store_allocation_budget_per_triple():
    # 20k triples built and read by subject and by predicate: the triple
    # set, the counts and two orderings.  Three eager orderings with a
    # dict per run cost ~860 bytes per triple here.
    from repro.workload.generators import GeneratorConfig, random_entity_graph

    config = GeneratorConfig(
        entities=5_000, predicates=8, triples=17_000, attributes=3_000, seed=3
    )
    random_entity_graph(config)  # warm the shared dictionary
    tracemalloc.start()
    try:
        graph = random_entity_graph(config)
        s, p, _ = next(graph.id_triples())
        assert list(graph.triples_ids(s, None, None))
        assert list(graph.triples_ids(None, p, None))
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stats = graph.index_stats()
    assert stats["spo"]["built"] and stats["pos"]["built"]
    assert not stats["osp"]["built"]
    assert allocated / len(graph) < 400
