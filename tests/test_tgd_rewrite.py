"""The UCQ rewriter and the containment machinery under it, directly.

``rewrite_ucq``, ``UnionOfCQs.deduplicate`` and
``ConjunctiveQuery.is_contained_in`` were only ever exercised through
``certain_answers_by_rewriting``.  Pinned here: containment on
hand-made pairs; the signature-filtered ``deduplicate`` against the
all-pairs loop it replaced (kept below as the reference); the exact
rewriting of the benchmark's two queries — counts, disjunct order and a
digest of the canonical forms taken at the commit before the rewriter
was indexed — and how little work it now takes; the rewritings of the
cycle, Example 2 and the 12-film system disjunct for disjunct, as
literals; that nothing in a rewriting depends on what the process
rewrote before; and what an exhausted budget does and does not say.
"""

import hashlib
import random
import re

import pytest

from repro.errors import NotRewritableError, RewritingError
from repro.peers.data_exchange import gpq_to_cq, rewriting_tgds
from repro.rewriting import (
    ANS,
    ancestor_query,
    bounded_rewriting_answers,
    certain_answers_by_rewriting,
    transitive_closure_rps,
)
from repro.rewriting.redundancy import EquivalenceQuotient
from repro.sparql.bridge import sparql_to_gpq
from repro.tgd import rewrite as rewrite_module
from repro.tgd.atoms import Atom, Constant, RelVar
from repro.tgd.cq import ConjunctiveQuery, UnionOfCQs
from repro.tgd.dependencies import TGD
from repro.tgd.rewrite import decompose_heads, rewrite_ucq
from repro.workload import (
    cycle_rps,
    example2_rps,
    paper_query_text,
    path_query,
    peer_namespace,
    scaled_film_rps,
)

A, B = Constant("a"), Constant("b")
X, Y, Z, W = (RelVar(name) for name in "xyzw")


def reify(gpq, base=None):
    """``gpq`` as the Boolean query ``certain_answers_by_rewriting`` rewrites."""
    base = base or gpq_to_cq(gpq, label="q")
    answer = Atom(ANS, *[RelVar(v.name) for v in gpq.head])
    return ConjunctiveQuery([], list(base.body) + [answer], label="q_ans")


class TestContainment:
    def test_more_atoms_is_more_specific(self):
        path = ConjunctiveQuery([X], [Atom("r", X, Y), Atom("r", Y, Z)])
        edge = ConjunctiveQuery([X], [Atom("r", X, Y)])
        assert path.is_contained_in(edge)
        assert not edge.is_contained_in(path)

    def test_constant_is_more_specific_than_variable(self):
        ground = ConjunctiveQuery([X], [Atom("r", X, A)])
        free = ConjunctiveQuery([X], [Atom("r", X, Y)])
        assert ground.is_contained_in(free)
        assert not free.is_contained_in(ground)
        assert not ground.is_contained_in(ConjunctiveQuery([X], [Atom("r", X, B)]))

    def test_head_must_map_to_head(self):
        forward = ConjunctiveQuery([X], [Atom("r", X, Y)])
        backward = ConjunctiveQuery([Y], [Atom("r", X, Y)])
        assert not forward.is_contained_in(backward)
        assert not forward.is_contained_in(
            ConjunctiveQuery([X, Y], [Atom("r", X, Y)])
        )

    def test_renaming_and_redundant_atoms_are_equivalent(self):
        one = ConjunctiveQuery([X], [Atom("r", X, Y)])
        other = ConjunctiveQuery([Z], [Atom("r", Z, W), Atom("r", Z, Y)])
        assert one.is_equivalent_to(other)
        assert len(other.minimize().body) == 1

    def test_signature_is_necessary_for_containment(self):
        ground = ConjunctiveQuery([X], [Atom("r", X, A), Atom("s", X)])
        free = ConjunctiveQuery([X], [Atom("r", X, Y)])
        assert free.containment_signature() <= ground.containment_signature()
        assert not ground.containment_signature() <= free.containment_signature()


def all_pairs_deduplicate(disjuncts):
    """``UnionOfCQs.deduplicate`` as it was: every pair searched."""
    unique, seen = [], set()
    for cq in disjuncts:
        key = cq.canonical_form()
        if key not in seen:
            seen.add(key)
            unique.append(cq)
    kept = []
    for i, cq in enumerate(unique):
        redundant = False
        for j, other in enumerate(unique):
            if i == j:
                continue
            if cq.is_contained_in(other):
                # On mutual containment, keep the earlier one only.
                if other.is_contained_in(cq) and i < j:
                    continue
                redundant = True
                break
        if not redundant:
            kept.append(cq)
    return kept


def random_cq(rng):
    """A Boolean-or-unary CQ over ``r/2`` and ``s/2`` with few terms, so
    containments, equivalences and repeated variables are all common."""
    terms = [X, Y, Z, A, B]
    body = [
        Atom(rng.choice("rs"), rng.choice(terms), rng.choice(terms))
        for _ in range(rng.randint(1, 3))
    ]
    variables = sorted(
        {arg for atom in body for arg in atom.variables()}, key=lambda v: v.name
    )
    if not variables:
        body.append(Atom("r", X, rng.choice(terms)))
        variables = [X]
    return ConjunctiveQuery([rng.choice(variables)], body)


@pytest.mark.parametrize("seed", range(8))
def test_deduplicate_equals_the_all_pairs_reference(seed):
    rng = random.Random(seed)
    disjuncts = [random_cq(rng) for _ in range(24)]
    kept = UnionOfCQs(disjuncts).deduplicate().disjuncts
    reference = all_pairs_deduplicate(disjuncts)
    assert [id(cq) for cq in kept] == [id(cq) for cq in reference]
    assert 1 <= len(kept) < len(disjuncts)


def test_deduplicate_keeps_the_earlier_of_two_equivalent_disjuncts():
    first = ConjunctiveQuery([X], [Atom("r", X, Y)])
    second = ConjunctiveQuery([X], [Atom("r", X, Y), Atom("r", X, Z)])
    narrower = ConjunctiveQuery([X], [Atom("r", X, A)])
    for order in ([first, second, narrower], [second, narrower, first]):
        kept = UnionOfCQs(order).deduplicate().disjuncts
        assert len(kept) == 1 and kept[0] is order[0]


class TestBenchmarkRewriting:
    """``rewriting.q1``/``q2`` of ``benchmarks/wl_certain_answers.py``."""

    #: sha256 of ``repr([cq.canonical_form() for cq in ucq])`` at the
    #: commit before the rewriter was indexed (d42e818).
    DIGEST = {
        1: "f1f7f1e96730bd9cc527ba92c8bbdb55270386bb0975cdfa5af10148002dc14b",
        2: "4c9843417e665f312d615174b09a0ae0e12baead50b6f6b63010f1af1b7efbdb",
    }

    @pytest.fixture(scope="class")
    def tgds(self):
        system = cycle_rps(
            5, entities=100, facts=300, link_fraction=0.0, seed=7
        )
        # Equivalence-free: the oracle's TGDs and the rewriter's coincide.
        assert rewriting_tgds(system) == EquivalenceQuotient(system).tgds
        return rewriting_tgds(system)

    def query(self, hops):
        knows = [peer_namespace(i).knows for i in range(hops)]
        return reify(path_query(knows, project_all=True))

    @pytest.mark.parametrize(
        "hops, explored, disjuncts, steps", [(1, 5, 5, 5), (2, 30, 25, 60)]
    )
    def test_same_rewriting_as_before(self, tgds, hops, explored, disjuncts, steps):
        result = rewrite_ucq(self.query(hops), tgds)
        assert (result.explored, len(result.ucq)) == (explored, disjuncts)
        assert (result.rewrite_steps, result.factorization_steps) == (steps, 0)
        assert result.complete
        forms = repr([cq.canonical_form() for cq in result.ucq])
        assert hashlib.sha256(forms.encode()).hexdigest() == self.DIGEST[hops]

    def test_one_hop_disjuncts_walk_the_cycle_backwards(self, tgds):
        result = rewrite_ucq(self.query(1), tgds)
        predicates = [
            next(a for a in cq.body if a.predicate != ANS).args[1].value
            for cq in result.ucq
        ]
        assert predicates == [
            peer_namespace(i).knows for i in (0, 4, 3, 2, 1)
        ]

    def test_it_takes_a_fraction_of_the_searches_and_renamings(
        self, tgds, monkeypatch
    ):
        searches, renamings = [], []
        contained = ConjunctiveQuery.is_contained_in
        rename = rewrite_module.rename_apart

        def counted_containment(self, other):
            searches.append(None)
            return contained(self, other)

        def counted_rename(tgd, taken):
            renamings.append(tgd)
            return rename(tgd, taken)

        monkeypatch.setattr(
            ConjunctiveQuery, "is_contained_in", counted_containment
        )
        monkeypatch.setattr(rewrite_module, "rename_apart", counted_rename)
        result = rewrite_ucq(self.query(2), tgds)
        assert len(result.ucq) == 25
        assert len(searches) <= 150  # 807 when every pair was searched
        assert len(renamings) == len(decompose_heads(tgds))


def snapshot(result):
    """Everything observable about a rewriting, variable names included."""
    return (
        result.explored,
        result.rewrite_steps,
        result.factorization_steps,
        result.complete,
        [repr(cq) for cq in result.ucq],
    )


class TestNoProcessWideState:
    def example2(self):
        quotient = EquivalenceQuotient(example2_rps())
        gpq = sparql_to_gpq(paper_query_text())
        return reify(gpq, quotient.query(gpq)), quotient.tgds

    def test_decompose_heads_numbers_auxiliaries_per_call(self):
        _, tgds = self.example2()
        first, second = decompose_heads(tgds), decompose_heads(tgds)
        assert first == second and len(first) == 3
        assert first[0].head[0].predicate == "_aux_1_1"

    def test_a_rewriting_does_not_depend_on_earlier_ones(self):
        query, tgds = self.example2()
        before = snapshot(rewrite_ucq(query, tgds))
        unrelated = TGD(
            [Atom("r", X, Y)], [Atom("s", X, Z), Atom("s", Z, Y)], label="split"
        )
        for _ in range(50):
            rewrite_ucq(
                ConjunctiveQuery([X], [Atom("s", X, Y), Atom("s", Y, W)]),
                [unrelated],
            )
        assert snapshot(rewrite_ucq(query, tgds)) == before
        assert before[0] == 6 and len(before[4]) == 2


#: Namespaces of the pinned rewritings, as their renderings shorten them.
PREFIXES = {
    "http://db1.example.org/": "DB1:",
    "http://db2.example.org/": "DB2:",
    "http://xmlns.com/foaf/0.1/": "foaf:",
    **{f"http://peer{i}.example.org/": f"peer{i}:" for i in range(5)},
}
CONSTANT_IRI = re.compile(r"Constant\(IRI\('(.*/)([^/]*)'\)\)")


def rendered(cq):
    """``cq.canonical_form()`` on one line: ``?n`` for the n-th variable,
    an IRI constant by its prefixed name."""
    head, atoms = cq.canonical_form()
    assert head == ()  # every pinned query is reified, hence Boolean

    def cell(kind, value):
        if kind == "v":
            return f"?{value}"
        namespace, local = CONSTANT_IRI.fullmatch(value).groups()
        return PREFIXES[namespace] + local

    return " ".join(
        f"{predicate}({','.join(cell(*c) for c in cells)})"
        for predicate, cells in atoms
    )


def film_text(film):
    """``benchmarks/wl_certain_answers.py``'s Listing-1 query at one film."""
    return (
        "PREFIX DB1: <http://db1.example.org/> "
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
        f"SELECT ?x ?y WHERE {{ DB1:film{film} DB1:starring ?z . "
        "?z DB1:artist ?x . ?x foaf:age ?y }"
    )


class TestPinnedRewritings:
    """``rewrite_ucq`` on the paper's systems, disjunct for disjunct.

    The renderings, their order and the counters are literals taken at
    commit 361e64b, before the containment search kept each query's
    plan and before atoms, constants and queries kept what they are
    asked again and again (variables, ``repr``, canonical form): none
    of that may change what the rewriter returns.
    """

    CASES = {
        "cycle q1": (
            (5, 5, 0),
            [
                "_ans(?0,?1) tt(?0,peer0:knows,?1)",
                "_ans(?0,?1) tt(?0,peer4:knows,?1)",
                "_ans(?0,?1) tt(?0,peer3:knows,?1)",
                "_ans(?0,?1) tt(?0,peer2:knows,?1)",
                "_ans(?0,?1) tt(?0,peer1:knows,?1)",
            ],
        ),
        "cycle q2": (
            (30, 60, 0),
            [
                "_ans(?0,?1,?2) tt(?0,peer0:knows,?1) tt(?1,peer1:knows,?2)",
                "_ans(?0,?1,?2) tt(?0,peer0:knows,?1) tt(?1,peer0:knows,?2)",
                "_ans(?0,?1,?2) tt(?1,peer1:knows,?2) tt(?0,peer4:knows,?1)",
                "_ans(?0,?1,?2) tt(?1,peer0:knows,?2) tt(?0,peer4:knows,?1)",
                "_ans(?0,?1,?2) tt(?0,peer0:knows,?1) tt(?1,peer4:knows,?2)",
                "_ans(?0,?1,?2) tt(?1,peer1:knows,?2) tt(?0,peer3:knows,?1)",
                "_ans(?0,?1,?2) tt(?1,peer0:knows,?2) tt(?0,peer3:knows,?1)",
                "_ans(?0,?1,?2) tt(?0,peer4:knows,?1) tt(?1,peer4:knows,?2)",
                "_ans(?0,?1,?2) tt(?0,peer0:knows,?1) tt(?1,peer3:knows,?2)",
                "_ans(?0,?1,?2) tt(?1,peer1:knows,?2) tt(?0,peer2:knows,?1)",
                "_ans(?0,?1,?2) tt(?1,peer0:knows,?2) tt(?0,peer2:knows,?1)",
                "_ans(?0,?1,?2) tt(?0,peer3:knows,?1) tt(?1,peer4:knows,?2)",
                "_ans(?0,?1,?2) tt(?1,peer3:knows,?2) tt(?0,peer4:knows,?1)",
                "_ans(?0,?1,?2) tt(?0,peer0:knows,?1) tt(?1,peer2:knows,?2)",
                "_ans(?0,?1,?2) tt(?1,peer1:knows,?2) tt(?0,peer1:knows,?1)",
                "_ans(?0,?1,?2) tt(?1,peer0:knows,?2) tt(?0,peer1:knows,?1)",
                "_ans(?0,?1,?2) tt(?0,peer2:knows,?1) tt(?1,peer4:knows,?2)",
                "_ans(?0,?1,?2) tt(?0,peer3:knows,?1) tt(?1,peer3:knows,?2)",
                "_ans(?0,?1,?2) tt(?1,peer2:knows,?2) tt(?0,peer4:knows,?1)",
                "_ans(?0,?1,?2) tt(?0,peer1:knows,?1) tt(?1,peer4:knows,?2)",
                "_ans(?0,?1,?2) tt(?0,peer2:knows,?1) tt(?1,peer3:knows,?2)",
                "_ans(?0,?1,?2) tt(?1,peer2:knows,?2) tt(?0,peer3:knows,?1)",
                "_ans(?0,?1,?2) tt(?0,peer1:knows,?1) tt(?1,peer3:knows,?2)",
                "_ans(?0,?1,?2) tt(?0,peer2:knows,?1) tt(?1,peer2:knows,?2)",
                "_ans(?0,?1,?2) tt(?0,peer1:knows,?1) tt(?1,peer2:knows,?2)",
            ],
        ),
        "example 2": (
            (6, 5, 1),
            [
                "_ans(?0,?1) tt(DB1:Spiderman,DB1:starring,?2) tt(?2,DB1:artist,?0) tt(?0,foaf:age,?1)",
                "_ans(?0,?1) tt(DB1:Spiderman,DB2:actor,?0) tt(?0,foaf:age,?1)",
            ],
        ),
        "12 films": (
            (6, 5, 1),
            [
                "_ans(?0,?1) tt(DB1:film0,DB1:starring,?2) tt(?2,DB1:artist,?0) tt(?0,foaf:age,?1)",
                "_ans(?0,?1) tt(DB1:film0,DB2:actor,?0) tt(?0,foaf:age,?1)",
            ],
        ),
    }

    def system_and_query(self, case):
        if case.startswith("cycle"):
            system = cycle_rps(
                5, entities=100, facts=300, link_fraction=0.0, seed=7
            )
            hops = int(case[-1])
            knows = [peer_namespace(i).knows for i in range(hops)]
            return system, path_query(knows, project_all=True)
        if case == "example 2":
            return example2_rps(), sparql_to_gpq(paper_query_text())
        return scaled_film_rps(12), sparql_to_gpq(film_text(0))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_rewriting_is_the_pinned_one(self, case):
        counters, disjuncts = self.CASES[case]
        system, gpq = self.system_and_query(case)
        quotient = EquivalenceQuotient(system)
        query = reify(gpq, quotient.query(gpq))
        result = rewrite_ucq(query, quotient.tgds)
        assert [rendered(cq) for cq in result.ucq] == disjuncts
        assert (
            result.explored,
            result.rewrite_steps,
            result.factorization_steps,
        ) == counters
        assert result.complete


class TestBudget:
    def test_exhaustion_reports_the_budget_and_nothing_else(self):
        # Linear (one body atom), hence inside the Proposition-2 fragment.
        tgds = [
            TGD([Atom("p%d" % i, X, Y)], [Atom("p%d" % (i + 1), X, Y)])
            for i in range(6)
        ]
        query = ConjunctiveQuery([X], [Atom("p6", X, Y)])
        with pytest.raises(RewritingError) as raised:
            rewrite_ucq(query, tgds, max_queries=3)
        assert not isinstance(raised.value, NotRewritableError)
        assert "budget of 3" in str(raised.value)
        assert "3 explored" in str(raised.value)
        assert "Proposition 3" not in str(raised.value)
        partial = rewrite_ucq(query, tgds, max_queries=3, strict=False)
        assert not partial.complete and partial.explored == 3
        assert rewrite_ucq(query, tgds).explored == 7

    def test_out_of_fragment_is_refused_upfront_citing_proposition_3(self):
        system = transitive_closure_rps(3)
        with pytest.raises(NotRewritableError, match="Proposition 3"):
            certain_answers_by_rewriting(system, ancestor_query(0, 3))
        holds, stats = bounded_rewriting_answers(system, ancestor_query(0, 3), 1)
        assert not holds and not stats.complete
