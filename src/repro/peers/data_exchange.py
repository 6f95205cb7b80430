"""Section 3: encoding an RPS as a relational data-exchange setting.

The encoding uses source alphabet ``Rs = {ts, rs}`` and target alphabet
``Rt = {tt, rt}``:

* ``ts(s, p, o)`` / ``tt(s, p, o)`` — stored / inferred RDF triples;
* ``rs(u)`` / ``rt(u)`` — stored / inferred *identified resources*
  (IRIs and literals; blank nodes are not identified resources).

Source-to-target dependencies copy ts→tt and rs→rt.  Target dependencies
encode the peer mappings:

* each graph mapping assertion Q ⇝ Q′ becomes
  ``Qbody(x,y) ∧ rt(x₁) ∧ … ∧ rt(xₙ) → ∃z Q′body(x,z)``;
* each equivalence mapping c ≡ₑ c′ becomes the six positional copy TGDs.

The module also produces the *rewriting view* of the dependencies — the
same TGDs with the ``rt`` guards dropped, valid under the paper's
Section-4 assumption that sources contain no blank nodes ("for any D we
have that D ⊨ ∀x rt(x)") — in two forms: :func:`rewriting_tgds`, the
whole target set with six copy TGDs per equivalence (the relational
reading, kept as the oracle), and :func:`quotient_tgds`, the assertion
TGDs alone with every constant replaced by the representative of its
``≡ₑ`` class, which is what the UCQ rewriter is given
(:class:`repro.rewriting.redundancy.EquivalenceQuotient`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.errors import TGDError
from repro.gpq.query import GraphPatternQuery
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import BlankNode, Term, Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.tgd.atoms import Atom, Constant, Instance, LabeledNull, RelTerm, RelVar
from repro.tgd.chase import ChaseResult, chase
from repro.tgd.cq import ConjunctiveQuery
from repro.tgd.dependencies import TGD
from repro.peers.mappings import EquivalenceMapping, GraphMappingAssertion
from repro.peers.system import RPS

__all__ = [
    "DataExchangeSetting",
    "TS",
    "TT",
    "RS",
    "RT",
    "rps_to_data_exchange",
    "graph_to_source_instance",
    "assertion_to_tgd",
    "equivalence_to_tgds",
    "target_instance_to_graph",
    "chase_via_data_exchange",
    "gpq_to_cq",
    "rewriting_tgds",
    "quotient_atoms",
    "quotient_tgds",
]

TS = "ts"
TT = "tt"
RS = "rs"
RT = "rt"


def _term_to_rel(term: Term) -> RelTerm:
    """Ground RDF term → relational constant (blank nodes included:
    stored blanks are constants of the instance, not chase nulls)."""
    return Constant(term)


def _pattern_term_to_rel(
    term: Term, variables: Dict[Variable, RelVar]
) -> RelTerm:
    if isinstance(term, Variable):
        if term not in variables:
            variables[term] = RelVar(term.name)
        return variables[term]
    return Constant(term)


def triple_pattern_to_atom(
    pattern: TriplePattern,
    variables: Dict[Variable, RelVar],
    predicate: str = TT,
) -> Atom:
    """A triple pattern becomes a ``tt`` (or ``ts``) atom."""
    return Atom(
        predicate,
        _pattern_term_to_rel(pattern.subject, variables),
        _pattern_term_to_rel(pattern.predicate, variables),
        _pattern_term_to_rel(pattern.object, variables),
    )


def gpq_to_cq(
    query: GraphPatternQuery, predicate: str = TT, label: str = "q"
) -> ConjunctiveQuery:
    """The paper's ``Qbody``: a graph pattern query as a relational CQ."""
    variables: Dict[Variable, RelVar] = {}
    body = [
        triple_pattern_to_atom(tp, variables, predicate)
        for tp in query.conjuncts()
    ]
    head = [
        _pattern_term_to_rel(v, variables)
        for v in query.head
    ]
    rel_head: List[RelVar] = []
    for item in head:
        assert isinstance(item, RelVar)
        rel_head.append(item)
    return ConjunctiveQuery(rel_head, body, label=label)


def graph_to_source_instance(graph: Graph) -> Instance:
    """The source instance: ``ts`` facts plus ``rs`` facts.

    ``rs(u)`` holds for every IRI and literal occurring in the graph
    (blank nodes are excluded — they are not identified resources).
    """
    instance = Instance()
    for triple in graph:
        instance.add(
            Atom(
                TS,
                _term_to_rel(triple.subject),
                _term_to_rel(triple.predicate),
                _term_to_rel(triple.object),
            )
        )
        for term in triple.terms():
            if not isinstance(term, BlankNode):
                instance.add(Atom(RS, _term_to_rel(term)))
    return instance


def source_to_target_tgds() -> List[TGD]:
    """``ts(x,y,z) → tt(x,y,z)`` and ``rs(x) → rt(x)``."""
    x, y, z = RelVar("x"), RelVar("y"), RelVar("z")
    return [
        TGD([Atom(TS, x, y, z)], [Atom(TT, x, y, z)], label="copy-triples"),
        TGD([Atom(RS, x)], [Atom(RT, x)], label="copy-resources"),
    ]


def assertion_to_tgd(
    assertion: GraphMappingAssertion,
    with_rt_guards: bool = True,
    label: str = "",
) -> TGD:
    """``Qbody(x,y) ∧ rt(x₁) ∧ … → ∃z Q′body(x,z)``.

    Source and target variable scopes are kept apart except for the
    frontier (the shared head positions x), exactly as in the paper's
    construction.
    """
    source_vars: Dict[Variable, RelVar] = {}
    body = [
        triple_pattern_to_atom(tp, source_vars)
        for tp in assertion.source.conjuncts()
    ]
    frontier: List[RelVar] = []
    for var in assertion.source.head:
        rel = source_vars[var]
        frontier.append(rel)
        if with_rt_guards:
            body.append(Atom(RT, rel))

    # Target variables: head positions reuse the frontier variables;
    # existential variables get fresh names.
    target_vars: Dict[Variable, RelVar] = {}
    for src_head_var, frontier_var in zip(assertion.target.head, frontier):
        target_vars[src_head_var] = frontier_var
    used = {v.name for v in source_vars.values()}
    for var in sorted(
        assertion.target.existential_variables(), key=lambda v: v.name
    ):
        name = var.name
        while name in used:
            name = name + "_t"
        used.add(name)
        target_vars[var] = RelVar(name)
    head = [
        triple_pattern_to_atom(tp, target_vars)
        for tp in assertion.target.conjuncts()
    ]
    return TGD(body, head, label=label or assertion.label or "assertion")


def equivalence_to_tgds(
    equivalence: EquivalenceMapping, label: str
) -> List[TGD]:
    """The six positional copy dependencies for ``c ≡ₑ c′``."""
    c = Constant(equivalence.left)
    c_prime = Constant(equivalence.right)
    x, y = RelVar("x"), RelVar("y")
    out: List[TGD] = []
    for position, (first, second) in enumerate(
        ((c, c_prime), (c_prime, c))
    ):
        direction = "fwd" if position == 0 else "bwd"
        out.append(
            TGD(
                [Atom(TT, first, x, y)],
                [Atom(TT, second, x, y)],
                label=f"{label}:subj:{direction}",
            )
        )
        out.append(
            TGD(
                [Atom(TT, x, first, y)],
                [Atom(TT, x, second, y)],
                label=f"{label}:pred:{direction}",
            )
        )
        out.append(
            TGD(
                [Atom(TT, x, y, first)],
                [Atom(TT, x, y, second)],
                label=f"{label}:obj:{direction}",
            )
        )
    return out


@dataclass
class DataExchangeSetting:
    """The full Section-3 setting for one RPS.

    Attributes:
        source_to_target: the two copy dependencies.
        target: assertion TGDs followed by equivalence TGDs.
        assertion_tgds / equivalence_tgds: the two groups separately
            (classification and rewriting need them apart).
    """

    source_to_target: List[TGD]
    assertion_tgds: List[TGD]
    equivalence_tgds: List[TGD]

    @property
    def target(self) -> List[TGD]:
        return self.assertion_tgds + self.equivalence_tgds

    def all_tgds(self) -> List[TGD]:
        return self.source_to_target + self.target


def _assertion_tgds(system: RPS, with_rt_guards: bool) -> List[TGD]:
    return [
        assertion_to_tgd(a, with_rt_guards, label=a.label or f"gma#{i}")
        for i, a in enumerate(system.assertions)
    ]


def rps_to_data_exchange(
    system: RPS, with_rt_guards: bool = True
) -> DataExchangeSetting:
    """Encode the RPS as a data-exchange setting (Section 3)."""
    assertion_tgds = _assertion_tgds(system, with_rt_guards)
    equivalence_tgds: List[TGD] = []
    for i, equivalence in enumerate(system.equivalences):
        equivalence_tgds.extend(
            equivalence_to_tgds(equivalence, label=f"eq#{i}")
        )
    return DataExchangeSetting(
        source_to_target=source_to_target_tgds(),
        assertion_tgds=assertion_tgds,
        equivalence_tgds=equivalence_tgds,
    )


def rewriting_tgds(system: RPS) -> List[TGD]:
    """Target dependencies without ``rt`` guards: assertions, then six
    copy TGDs per equivalence.

    Valid under the Section-4 assumption that sources are blank-free, in
    which case ``∀x rt(x)`` holds and the guards are vacuous.  This is
    the relational reading of G ∪ E; the rewriter itself is given
    :func:`quotient_tgds`, which coincides with it when E is empty.
    """
    setting = rps_to_data_exchange(system, with_rt_guards=False)
    return setting.target


def quotient_atoms(
    atoms: Iterable[Atom], representative: Mapping[Term, Term]
) -> List[Atom]:
    """The atoms with each constant replaced by its class representative."""
    return [
        Atom(
            atom.predicate,
            *(
                Constant(representative.get(arg.value, arg.value))
                if isinstance(arg, Constant)
                else arg
                for arg in atom.args
            ),
        )
        for atom in atoms
    ]


def quotient_tgds(
    system: RPS, representative: Mapping[Term, Term]
) -> List[TGD]:
    """The guard-free assertion TGDs over class representatives.

    No copy TGD appears here: ``≡ₑ`` is a congruence, so G alone over
    the quotient, expanded by class, gives what G ∪ E gives.
    """
    return [
        TGD(
            quotient_atoms(tgd.body, representative),
            quotient_atoms(tgd.head, representative),
            label=tgd.label,
        )
        for tgd in _assertion_tgds(system, with_rt_guards=False)
    ]


def target_instance_to_graph(instance: Instance, name: str = "") -> Graph:
    """Read the ``tt`` facts of a chased instance back as an RDF graph.

    Labelled nulls become blank nodes ``_:nullN`` (the paper's "newly
    created blank nodes").

    Raises:
        TGDError: if a tt fact has a shape no RDF triple allows (cannot
            happen for instances produced by the encoding).
    """
    # Chase-minted nulls become fresh blank nodes; a private dictionary
    # keeps them out of the process-wide shared one (see peers/chase.py).
    graph = Graph(name=name or "exchange-target", dictionary=TermDictionary())
    for fact in instance.facts_with_predicate(TT):
        terms: List[Term] = []
        for arg in fact.args:
            if isinstance(arg, LabeledNull):
                terms.append(BlankNode(f"null{arg.id}"))
            elif isinstance(arg, Constant):
                terms.append(arg.value)
            else:  # pragma: no cover - instances are ground
                raise TGDError(f"non-ground fact {fact!r}")
        graph.add(Triple(terms[0], terms[1], terms[2]))
    return graph


def chase_via_data_exchange(
    system: RPS, max_steps: int = 1_000_000
) -> Tuple[Graph, ChaseResult]:
    """Materialise the universal solution through the relational encoding.

    This is the slow, by-the-book path used to cross-validate the direct
    Algorithm-1 implementation: both must yield the same certain answers
    for every query (property-tested).
    """
    setting = rps_to_data_exchange(system)
    instance = graph_to_source_instance(system.stored_database())
    result = chase(instance, setting.all_tgds(), max_steps=max_steps)
    graph = target_instance_to_graph(result.instance)
    return graph, result
