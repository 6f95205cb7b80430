"""Tests for the term dictionary and the Graph ID-level access path."""

import random
import sys
import threading

import pytest

from repro.errors import TermError
from repro.rdf.dictionary import TermDictionary, default_dictionary
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import BlankNode, IRI, Literal, Term, Variable
from repro.rdf.triples import Triple

EX = Namespace("http://example.org/")


def test_encode_decode_round_trip():
    d = TermDictionary()
    terms = [
        IRI("http://example.org/a"),
        BlankNode("b0"),
        Literal("plain"),
        Literal("tagged", language="en"),
        Literal("5", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer")),
    ]
    ids = [d.encode(t) for t in terms]
    assert ids == list(range(5))
    assert [d.decode(i) for i in ids] == terms
    assert len(d) == 5


def test_encode_is_idempotent_and_lookup_is_side_effect_free():
    d = TermDictionary()
    a = EX.term("a")
    tid = d.encode(a)
    assert d.encode(IRI(str(a))) == tid
    assert len(d) == 1
    assert d.lookup(EX.term("not-interned")) is None
    assert len(d) == 1  # lookup must never intern
    assert a in d and EX.term("not-interned") not in d


def test_equal_but_distinct_literals_get_distinct_ids():
    d = TermDictionary()
    plain = d.encode(Literal("x"))
    tagged = d.encode(Literal("x", language="en"))
    typed = d.encode(
        Literal("x", datatype=IRI("http://www.w3.org/2001/XMLSchema#string"))
    )
    assert len({plain, tagged, typed}) == 3


def test_variables_are_rejected():
    d = TermDictionary()
    with pytest.raises(TermError):
        d.encode(Variable("x"))


def test_decode_unknown_id_raises():
    d = TermDictionary()
    with pytest.raises(KeyError):
        d.decode(42)
    d.encode(EX.term("only"))
    # Negative IDs must not wrap around to the end of the term list.
    with pytest.raises(KeyError):
        d.decode(-1)


def test_chase_solution_uses_private_dictionary(three_peer_chain):
    """Fresh chase blanks must not leak into the shared dictionary."""
    from repro.peers.chase import chase_universal_solution

    rps, _ = three_peer_chain
    solution = chase_universal_solution(rps).solution
    assert solution.dictionary is not default_dictionary()


def test_triple_round_trip():
    d = TermDictionary()
    t = Triple(EX.term("s"), EX.term("p"), Literal("o"))
    assert d.decode_triple(d.encode_triple(t)) == t


def test_graphs_share_default_dictionary():
    g1, g2 = Graph(), Graph()
    assert g1.dictionary is g2.dictionary is default_dictionary()
    t = Triple(EX.term("shared"), EX.term("p"), EX.term("x"))
    g1.add(t)
    assert g1.term_id(t.subject) == g2.term_id(t.subject)


def test_graph_id_level_access_agrees_with_term_level():
    g = Graph(
        [
            Triple(EX.term("a"), EX.term("p"), EX.term("b")),
            Triple(EX.term("a"), EX.term("q"), EX.term("c")),
        ]
    )
    a_id = g.term_id(EX.term("a"))
    assert a_id is not None
    rows = list(g.triples_ids(subject=a_id))
    assert len(rows) == 2
    decoded = {g.dictionary.decode_triple(row) for row in rows}
    assert decoded == set(g.triples(subject=EX.term("a")))
    assert g.decode_id(a_id) == EX.term("a")


def test_private_dictionary_isolation():
    private = TermDictionary()
    g = Graph(dictionary=private)
    g.add(Triple(EX.term("iso"), EX.term("p"), EX.term("x")))
    assert private.lookup(EX.term("iso")) is not None
    assert len(private) == 3


# ---------------------------------------------------------------------------
# ranks(): the term order on integers
# ---------------------------------------------------------------------------

XSD_INT = IRI("http://www.w3.org/2001/XMLSchema#integer")


def random_terms(rng, count):
    """Mixed IRIs, blank nodes and plain/typed/tagged literals."""
    out = []
    for _ in range(count):
        n = rng.randint(0, 60)
        out.append(
            rng.choice(
                [
                    lambda: EX.term(f"rank/e{n}"),
                    lambda: IRI(f"http://other.example.org/rank{n}"),
                    lambda: BlankNode(f"rank{n}"),
                    lambda: Literal(str(n)),
                    lambda: Literal(str(n), datatype=XSD_INT),
                    lambda: Literal(str(n), language=rng.choice(["en", "de"])),
                ]
            )()
        )
    return out


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shared", [False, True])
def test_ranks_sort_like_sort_keys_across_incremental_merges(seed, shared):
    rng = random.Random(seed)
    d = default_dictionary() if shared else TermDictionary()
    ids = []
    for _ in range(4):  # rank, intern more, rank again: the merge path
        ids.extend(d.encode(t) for t in random_terms(rng, rng.randint(1, 40)))
        ranks = d.rank_tables()[0]
        assert len(ranks) == len(d)
        assert d.rank_tables()[0] is ranks  # nothing interned: the same table
        assert min(ranks) >= 1  # 0 is left for "unbound"
        sample = ids + [rng.randrange(len(d)) for _ in range(20)]
        rng.shuffle(sample)
        assert sorted(sample, key=ranks.__getitem__) == sorted(
            sample, key=lambda tid: d.decode(tid).sort_key()
        )
    distinct = sorted(set(ids), key=ranks.__getitem__)
    keys = [d.decode(tid).sort_key() for tid in distinct]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert len({ranks[tid] for tid in distinct}) == len(distinct)


def test_ranks_are_dense_and_empty_dictionary_has_none():
    d = TermDictionary()
    assert d.rank_tables()[0] == []
    ids = [d.encode(t) for t in (Literal("b"), EX.term("z"), BlankNode("a"))]
    # IRIs sort before blank nodes before literals.
    assert [d.rank_tables()[0][tid] for tid in ids] == [3, 1, 2]
    d.encode(EX.term("a"))
    assert d.rank_tables()[0] == [4, 2, 3, 1]


def test_equal_sort_keys_rank_in_interning_order():
    class Alias(Term):
        """A second term class whose instances sort like an IRI."""

        __slots__ = ("value",)

        def __init__(self, value):
            self.value = value

        def sort_key(self):
            return IRI(self.value).sort_key()

    d = TermDictionary()
    a = d.encode(EX.term("a"))
    twin = d.encode(Alias(str(EX.term("a"))))
    b = d.encode(EX.term("b"))
    ranks = d.rank_tables()[0]
    assert (ranks[a], ranks[twin], ranks[b]) == (1, 2, 3)
    later = d.encode(Alias(str(EX.term("b"))))  # a tie met by the merge
    ranks, ids_by_rank = d.rank_tables()
    assert (ranks[a], ranks[twin], ranks[b], ranks[later]) == (1, 2, 3, 4)
    assert ids_by_rank == [None, a, twin, b, later]


def test_ranks_stay_consistent_while_other_threads_intern():
    d = TermDictionary()
    failures = []

    def intern(worker):
        for n in range(150):
            d.encode(EX.term(f"w{worker}/e{n * 7919 % 150}"))

    def rank():
        for _ in range(60):
            ranks, ids_by_rank = d.rank_tables()
            ids = list(range(len(ranks)))  # the IDs this pair covers
            by_rank = sorted(ids, key=ranks.__getitem__)
            by_key = sorted(ids, key=lambda tid: d.decode(tid).sort_key())
            inverse = [ids_by_rank[ranks[tid]] for tid in ids]
            if (
                by_rank != by_key
                or len(set(ranks)) != len(ranks)
                or inverse != ids
                or ids_by_rank[0] is not None
                or len(ids_by_rank) != len(ranks) + 1
            ):
                failures.append(ranks)

    threads = [
        threading.Thread(target=intern, args=(w,)) for w in range(6)
    ] + [threading.Thread(target=rank) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert len(d) == 6 * 150 and sorted(d.rank_tables()[0]) == list(range(1, 901))
