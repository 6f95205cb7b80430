"""UCQ perfect rewriting of conjunctive queries under TGDs.

Implements the rewriting algorithm the paper invokes for Proposition 2
(after Gottlob, Orsi & Pieris: *Ontological queries: rewriting and
optimization*): given a CQ ``q`` and a set Σ of TGDs, produce a union of
CQs ``q_Σ`` such that evaluating ``q_Σ`` over any source database D gives
exactly the certain answers ``q(chase(D, Σ))``.

Pipeline:

1. **Head decomposition** — every TGD is normalised to single-head TGDs
   whose head has at most one existential variable occurring once, via a
   chain of auxiliary predicates (the logspace transformation the GOP
   paper describes).  Auxiliary atoms are internal: disjuncts still
   mentioning them at the end are discarded.
2. **Rewriting step** — unify a query atom with a TGD head under the
   *applicability* condition: classes of the unifier that touch an
   existential head variable may contain only that existential variable
   and non-shared query variables (no constants, no second existential,
   no frontier variable).  The atom is then replaced by the TGD body
   under the unifier.  The TGDs are renamed apart from the input query
   once per call and indexed by the constants of their head, so an
   atom only meets the heads its own constants do not rule out.
3. **Factorisation step** — two body atoms sharing a variable at an
   existential position of some TGD head are unified into one, producing
   a more specific (hence sound) disjunct that enables further rewriting
   steps blocked by the shared-variable condition.
4. **Dedup & budget** — disjuncts are deduplicated up to variable
   renaming; a query budget bounds non-terminating inputs.

Termination is guaranteed for linear and sticky TGD sets (the
Proposition-2 fragment).  An exhausted budget raises
:class:`~repro.errors.RewritingError` and says only that: whether the
set is first-order rewritable at all is for
:func:`repro.tgd.classes.classify` to say, and callers that know it is
not raise :class:`~repro.errors.NotRewritableError` before rewriting.
"""

from __future__ import annotations

import itertools
from collections import deque
from operator import attrgetter
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import RewritingError
from repro.tgd.atoms import Atom, Constant, RelTerm, RelVar
from repro.tgd.cq import ConjunctiveQuery, UnionOfCQs
from repro.tgd.dependencies import TGD, rename_apart

__all__ = ["RewriteResult", "rewrite_ucq", "decompose_heads", "AUX_PREFIX"]

AUX_PREFIX = "_aux_"


# ---------------------------------------------------------------------------
# Head decomposition
# ---------------------------------------------------------------------------


def decompose_heads(tgds: Sequence[TGD]) -> List[TGD]:
    """Normalise TGDs to single-head, single-existential-occurrence form.

    A TGD ``body → ∃z₁…zₖ h₁ ∧ … ∧ hₘ`` becomes a chain

    .. code-block:: text

        body                →  ∃z₁ aux₁(x, z₁)
        aux₁(x, z₁)         →  ∃z₂ aux₂(x, z₁, z₂)
        ...
        auxₖ(x, z₁…zₖ)      →  hᵢ          (one full TGD per head atom)

    where x is the frontier.  TGDs already in normal form pass through
    unchanged.  Auxiliary predicate names start with :data:`AUX_PREFIX`,
    are numbered within this call (equal input, equal output) and must
    not occur in user queries.
    """
    out: List[TGD] = []
    decomposed = 0
    for tgd in tgds:
        existentials = sorted(tgd.existential_variables(), key=lambda v: v.name)
        single_existential_once = False
        if len(tgd.head) == 1 and len(existentials) <= 1:
            if not existentials:
                single_existential_once = True
            else:
                occurrences = sum(
                    1 for arg in tgd.head[0].args if arg == existentials[0]
                )
                single_existential_once = occurrences == 1
        if single_existential_once:
            out.append(tgd)
            continue
        decomposed += 1
        stem = f"{AUX_PREFIX}{decomposed}"
        frontier = sorted(tgd.frontier(), key=lambda v: v.name)
        carried: List[RelVar] = list(frontier)
        previous_body: Tuple[Atom, ...] = tgd.body
        for depth, z in enumerate(existentials, start=1):
            aux_atom = Atom(f"{stem}_{depth}", *carried, z)
            out.append(
                TGD(
                    previous_body,
                    [aux_atom],
                    label=f"{tgd.label or 'tgd'}#aux{depth}",
                )
            )
            carried = carried + [z]
            previous_body = (aux_atom,)
        if not existentials:
            # Multi-head but full: emit one full TGD per head atom.
            for i, head_atom in enumerate(tgd.head, start=1):
                out.append(
                    TGD(tgd.body, [head_atom], label=f"{tgd.label or 'tgd'}#h{i}")
                )
            continue
        for i, head_atom in enumerate(tgd.head, start=1):
            out.append(
                TGD(previous_body, [head_atom], label=f"{tgd.label or 'tgd'}#h{i}")
            )
    return out


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------


class _UnionFind:
    """Union-find over relational terms; constants clash on merge.

    ``parent`` never maps a term to an equal one, so a root is the term
    ``parent`` does not hold and an identity test finds it.
    """

    def __init__(self) -> None:
        self.parent: Dict[RelTerm, RelTerm] = {}

    def find(self, term: RelTerm) -> RelTerm:
        parent = self.parent
        root = term
        step = parent.get(root)
        while step is not None:
            root = step
            step = parent.get(root)
        # Path compression.
        while term is not root:
            step = parent.get(term)
            if step is None or step is root:
                break
            parent[term] = root
            term = step
        return root

    def union(self, a: RelTerm, b: RelTerm) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        if isinstance(ra, Constant) and isinstance(rb, Constant):
            return False
        # Keep constants as roots.
        if isinstance(ra, Constant):
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb
        return True

    def classes(self) -> Dict[RelTerm, Set[RelTerm]]:
        """Root → its class, for every term that was merged."""
        groups: Dict[RelTerm, Set[RelTerm]] = {}
        find = self.find
        for term in list(self.parent):
            root = find(term)
            members = groups.get(root)
            if members is None:
                groups[root] = {term, root}
            else:
                members.add(term)
        return groups


def _unify_positionwise(
    a: Atom, b: Atom
) -> Optional[Dict[RelTerm, Set[RelTerm]]]:
    """The classes of the most general unifier of two atoms, or None
    when they cannot unify (see :meth:`_UnionFind.classes`)."""
    if a.predicate != b.predicate or a.arity != b.arity:
        return None
    uf = _UnionFind()
    for left, right in zip(a.args, b.args):
        if not uf.union(left, right):
            return None
    return uf.classes()


# ---------------------------------------------------------------------------
# Rewriting steps
# ---------------------------------------------------------------------------


class _Rule:
    """One normalised TGD, renamed apart once for a whole rewriting run.

    The variable sets every rewriting step asks for are read off the
    TGD here, once; ``order`` is the TGD's place in the normalised list,
    which fixes the order attempts are made in.
    """

    __slots__ = (
        "order",
        "head",
        "body",
        "variables",
        "existentials",
        "frontier",
        "local",
    )

    def __init__(self, order: int, tgd: TGD) -> None:
        self.order = order
        self.head = tgd.head[0]
        self.body = tgd.body
        self.variables = tgd.body_variables() | tgd.head_variables()
        self.existentials = tgd.existential_variables()
        self.frontier = tgd.frontier()
        #: Body variables the head does not mention: each application
        #: introduces them under fresh names.
        self.local = sorted(
            tgd.body_variables() - self.frontier, key=lambda v: v.name
        )


class _HeadIndex:
    """Rules by head relation, then by the constants of their head.

    A query atom unifies with a head only if no position holds two
    different constants.  Heads are grouped by *which* positions are
    ground, then keyed by the constants there, so an atom that is ground
    on those positions finds its heads by one lookup and the heads whose
    constants clash with it are never unified, let alone renamed.
    """

    def __init__(self, rules: Sequence[_Rule]) -> None:
        self._groups: Dict[
            Tuple[str, int],
            Dict[Tuple[int, ...], Dict[Tuple[RelTerm, ...], List[_Rule]]],
        ] = {}
        for rule in rules:
            head = rule.head
            ground = [
                i for i, arg in enumerate(head.args) if isinstance(arg, Constant)
            ]
            self._groups.setdefault((head.predicate, head.arity), {}).setdefault(
                tuple(ground), {}
            ).setdefault(tuple(head.args[i] for i in ground), []).append(rule)

    def candidates(self, atom: Atom) -> Iterator[_Rule]:
        """The rules whose head constants do not clash with ``atom``'s."""
        groups = self._groups.get((atom.predicate, atom.arity), {})
        for positions, by_constants in groups.items():
            probe = tuple(atom.args[i] for i in positions)
            if all(isinstance(arg, Constant) for arg in probe):
                yield from by_constants.get(probe, ())
                continue
            for constants, rules in by_constants.items():
                if all(
                    arg == constant or not isinstance(arg, Constant)
                    for arg, constant in zip(probe, constants)
                ):
                    yield from rules


_name = attrgetter("name")


def _build_substitution(
    classes: Dict[RelTerm, Set[RelTerm]],
    answer_vars: Set[RelVar],
    rule_vars: FrozenSet[RelVar] = frozenset(),
) -> Dict[RelVar, RelTerm]:
    """Choose representatives: constant > answer var > other variable.

    Variables of the applied rule never represent a class (each class of
    a head unifier holds a term of the query atom), so no rule variable
    survives into the rewritten query.
    """
    substitution: Dict[RelVar, RelTerm] = {}
    for members in classes.values():
        # A class holds at most one constant: two clash in the unifier.
        rep: Optional[RelTerm] = next(
            (m for m in members if isinstance(m, Constant)), None
        )
        if rep is None:
            variables = [
                m for m in members if isinstance(m, RelVar) and m not in rule_vars
            ]
            if answer_vars:
                variables = [m for m in variables if m in answer_vars] or variables
            rep = variables[0] if len(variables) == 1 else min(variables, key=_name)
        for member in members:
            if member is not rep and isinstance(member, RelVar):
                substitution[member] = rep
    return substitution


def _applicable(
    shared: FrozenSet[RelVar],
    answer_vars: Set[RelVar],
    rule: _Rule,
    classes: Dict[RelTerm, Set[RelTerm]],
) -> bool:
    """GOP applicability: existential classes are clean.

    Every unification class containing an existential head variable must
    consist of that variable (once) plus non-shared query variables only.
    Answer variables must not be bound to constants.
    """
    existentials, frontier = rule.existentials, rule.frontier
    for members in classes.values():
        touching = existentials.intersection(members)
        if touching:
            if len(touching) > 1:
                return False
            for member in members:
                if member in touching:
                    continue
                if (
                    not isinstance(member, RelVar)
                    or member in frontier
                    or member in shared
                ):
                    return False
        elif (
            answer_vars
            and not answer_vars.isdisjoint(members)
            and any(isinstance(m, Constant) for m in members)
        ):
            # Answer variables must survive as variables.
            return False
    return True


def _distinct(atoms: Iterable[Atom]) -> List[Atom]:
    """The atoms without repeats, first occurrences in order."""
    return list(dict.fromkeys(atoms))


def _rewrite_step(
    query: ConjunctiveQuery,
    shared: FrozenSet[RelVar],
    atom: Atom,
    rule: _Rule,
    fresh: Iterator[RelVar],
) -> Optional[ConjunctiveQuery]:
    """Replace ``atom`` by the rule's body when the head unifies applicably.

    ``shared`` is ``query.shared_variables()``, computed once per query;
    ``fresh`` supplies the names the rule's body-only variables take in
    the rewritten query.
    """
    classes = _unify_positionwise(atom, rule.head)
    if classes is None:
        return None
    answer_vars = set(query.head)
    if not _applicable(shared, answer_vars, rule, classes):
        return None
    substitution = _build_substitution(classes, answer_vars, rule.variables)
    for var in rule.local:
        substitution[var] = next(fresh)
    new_body = [a.substitute(substitution) for a in query.body if a != atom]
    new_body.extend(a.substitute(substitution) for a in rule.body)
    head = [substitution.get(v, v) for v in query.head]
    return ConjunctiveQuery(head, _distinct(new_body), label=query.label)


def _existential_positions(tgds: Sequence[TGD]) -> Dict[str, Set[int]]:
    """Positions (predicate → 1-based indexes) that can hold chase nulls."""
    out: Dict[str, Set[int]] = {}
    for tgd in tgds:
        existentials = tgd.existential_variables()
        for atom in tgd.head:
            for i, arg in enumerate(atom.args, start=1):
                if isinstance(arg, RelVar) and arg in existentials:
                    out.setdefault(atom.predicate, set()).add(i)
    return out


def _factorize_step(
    query: ConjunctiveQuery,
    a1: Atom,
    a2: Atom,
    existential_positions: Dict[str, Set[int]],
) -> Optional[ConjunctiveQuery]:
    """Unify two atoms sharing a variable at an existential position."""
    if a1.predicate != a2.predicate or a1 == a2:
        return None
    positions = existential_positions.get(a1.predicate)
    if not positions:
        return None
    shares_existential_var = any(
        i in positions
        and isinstance(a1.args[i - 1], RelVar)
        and a1.args[i - 1] == a2.args[i - 1]
        for i in range(1, a1.arity + 1)
    )
    if not shares_existential_var:
        return None
    classes = _unify_positionwise(a1, a2)
    if classes is None:
        return None
    substitution = _build_substitution(classes, set(query.head))
    head = [substitution.get(v, v) for v in query.head]
    if any(not isinstance(h, RelVar) for h in head):
        return None
    new_body = _distinct(a.substitute(substitution) for a in query.body)
    return ConjunctiveQuery(head, new_body, label=query.label)


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


@dataclass
class RewriteResult:
    """Outcome of a rewriting run.

    Attributes:
        ucq: the final union of CQs (auxiliary-free, deduplicated).
        explored: how many distinct CQs were generated (incl. internal
            disjuncts mentioning auxiliary predicates).
        rewrite_steps: number of successful atom/TGD rewriting steps.
        factorization_steps: number of successful factorisations.
        complete: True when the rewriting closure was fully explored;
            False when a depth/size bound truncated it (the UCQ is then
            a *sound under-approximation* of the perfect rewriting).
    """

    ucq: UnionOfCQs
    explored: int = 0
    rewrite_steps: int = 0
    factorization_steps: int = 0
    complete: bool = True


def rewrite_ucq(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    max_queries: int = 20_000,
    max_depth: Optional[int] = None,
    strict: bool = True,
) -> RewriteResult:
    """Compute the UCQ perfect rewriting of ``query`` under ``tgds``.

    Args:
        query: the input CQ (answer variables allowed; the Proposition-2
            pipeline feeds Boolean queries, per the paper's Example 3).
        tgds: the dependency set (multi-head TGDs are decomposed
            internally).
        max_queries: exploration budget.
        max_depth: bound on rewriting-step chains from the input query
            (``None`` = unbounded).  Bounded runs return a *partial*
            rewriting with ``complete=False`` — the tool behind the
            Proposition-3 demonstration that no finite depth suffices.
        strict: raise on budget exhaustion instead of returning the
            partial result.

    Raises:
        RewritingError: when ``strict`` and the budget is exhausted
            before the rewriting closure is complete.
    """
    for atom in query.body:
        if atom.predicate.startswith(AUX_PREFIX):
            raise RewritingError(
                f"query must not mention auxiliary predicate {atom.predicate}"
            )
    normalised = decompose_heads(tgds)
    existential_positions = _existential_positions(normalised)
    # Every explored query draws its variables from the input query's
    # and from ``fresh``; the rules are renamed away from the former
    # here, once, and the prefix keeps the latter away from both.
    taken = query.variables()
    rules = [
        _Rule(order, rename_apart(tgd, taken))
        for order, tgd in enumerate(normalised)
    ]
    reserved = {v.name for v in taken}.union(
        v.name for rule in rules for v in rule.variables
    )
    prefix = "_v"
    while any(name.startswith(prefix) for name in reserved):
        prefix += "_"
    fresh = (RelVar(f"{prefix}{n}") for n in itertools.count())
    index = _HeadIndex(rules)

    result_queries: List[ConjunctiveQuery] = []
    seen: Set[Tuple] = set()
    queue: deque = deque()
    stats = RewriteResult(ucq=UnionOfCQs([query]))

    def push(cq: ConjunctiveQuery, depth: int) -> None:
        key = cq.canonical_form()
        if key in seen:
            return
        if len(seen) >= max_queries:
            if strict:
                raise RewritingError(
                    f"rewriting exceeded the budget of {max_queries} queries "
                    f"({stats.explored} explored)"
                )
            stats.complete = False
            return
        seen.add(key)
        queue.append((cq, depth))
        stats.explored += 1
        result_queries.append(cq)

    push(query, 0)
    while queue:
        current, depth = queue.popleft()
        if max_depth is not None and depth >= max_depth:
            stats.complete = False
            continue
        # Rewriting steps, rule by rule and atom by atom within a rule.
        body = current.body
        shared = current.shared_variables()
        attempts = sorted(
            (rule.order, position)
            for position, atom in enumerate(body)
            for rule in index.candidates(atom)
        )
        for order, position in attempts:
            rewritten = _rewrite_step(
                current, shared, body[position], rules[order], fresh
            )
            if rewritten is not None:
                stats.rewrite_steps += 1
                push(rewritten, depth + 1)
        # Factorisation steps (do not consume rewrite depth).
        for i in range(len(body)):
            for j in range(i + 1, len(body)):
                factored = _factorize_step(
                    current, body[i], body[j], existential_positions
                )
                if factored is not None:
                    stats.factorization_steps += 1
                    push(factored, depth)

    final = [
        cq
        for cq in result_queries
        if not any(a.predicate.startswith(AUX_PREFIX) for a in cq.body)
    ]
    stats.ucq = UnionOfCQs(final, label=query.label).deduplicate()
    return stats
