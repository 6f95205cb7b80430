"""In-memory indexed RDF graph (triple store), dictionary-encoded.

The store interns every term into an integer ID through a
:class:`~repro.rdf.dictionary.TermDictionary` and keeps three
nested-dictionary indexes — SPO, POS and OSP — over those IDs, so any
triple pattern with at least one ground position is answered by integer
dictionary lookups instead of a scan over Python term objects.  This is
the classic Hexastore-lite layout used by in-memory RDF engines; three of
the six orderings suffice because each covers two access paths:

* ``SPO`` answers ``(s, ?, ?)`` and ``(s, p, ?)``;
* ``POS`` answers ``(?, p, ?)`` and ``(?, p, o)``;
* ``OSP`` answers ``(?, ?, o)`` and ``(s, ?, o)``.

Fully ground lookups probe the ID-triple set directly and fully unbound
lookups scan it.  All mutation goes through :meth:`Graph.add` /
:meth:`Graph.remove` so the indexes can never drift from the triple set
(a property-tested invariant).

The triple set and the index leaves are insertion-ordered mappings, not
hash sets, so every iteration order is a pure function of the sequence
of ``add`` calls.  With hash sets of integers the order would follow
the ID *values*, which depend on what else was interned into the shared
process-wide dictionary first — and that turned demand-driven
(order-sensitive) federated executions into functions of unrelated
earlier work in the same process.

The public API is term-level and unchanged from the pre-dictionary store:
callers pass and receive :class:`~repro.rdf.triples.Triple` objects and
never see IDs.  The ID-level access path (:meth:`Graph.triples_ids`,
:meth:`Graph.term_id`, :meth:`Graph.decode_id`) is exposed for the query
evaluator, which joins on integers and decodes only final answer rows.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.rdf.dictionary import IDTriple, TermDictionary, default_dictionary
from repro.rdf.terms import BlankNode, IRI, Literal, Term, Variable
from repro.rdf.triples import Triple, TriplePattern

__all__ = ["Graph"]

# The leaf level is an insertion-ordered Dict[int, None] used as an
# ordered set: iteration must not depend on the ID values (see module
# docstring).
_Leaf = Dict[int, None]
_Index = Dict[int, Dict[int, _Leaf]]


def _index_add(index: _Index, a: int, b: int, c: int) -> None:
    index.setdefault(a, {}).setdefault(b, {})[c] = None


def _index_remove(index: _Index, a: int, b: int, c: int) -> None:
    level1 = index.get(a)
    if level1 is None:
        return
    level2 = level1.get(b)
    if level2 is None:
        return
    level2.pop(c, None)
    if not level2:
        del level1[b]
        if not level1:
            del index[a]


def _copy_index(index: _Index) -> _Index:
    return {
        a: {b: dict(c) for b, c in level1.items()}
        for a, level1 in index.items()
    }


class Graph:
    """A mutable set of RDF triples with pattern-matching access.

    Args:
        triples: optional initial triples.
        name: optional graph name (used by :class:`repro.rdf.dataset.Dataset`
            and in diagnostics).
        dictionary: term dictionary to encode against; defaults to the
            process-wide shared dictionary, so independently built graphs
            agree on IDs and set algebra between them stays integer-level.

    The class supports the container protocol (``len``, ``in``, iteration)
    plus set-style algebra (``|``, ``&``, ``-``) which returns new graphs.
    """

    __slots__ = (
        "_dict",
        "_ids",
        "_spo",
        "_pos",
        "_osp",
        "_s_counts",
        "_p_counts",
        "_o_counts",
        "_epoch",
        "serial",
        "name",
    )

    #: Process-wide source of per-instance serial numbers: together with
    #: the mutation epoch this identifies a graph *state*, which is what
    #: the cross-query plan cache keys on.
    _serials = itertools.count(1)

    def __init__(
        self,
        triples: Optional[Iterable[Triple]] = None,
        name: str = "",
        dictionary: Optional[TermDictionary] = None,
    ) -> None:
        self._dict: TermDictionary = (
            dictionary if dictionary is not None else default_dictionary()
        )
        self._ids: Dict[IDTriple, None] = {}
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        # Aggregate triple counts per term-in-position, maintained
        # incrementally so single-position count_ids probes are O(1).
        self._s_counts: Dict[int, int] = {}
        self._p_counts: Dict[int, int] = {}
        self._o_counts: Dict[int, int] = {}
        self._epoch: int = 0
        self.serial: int = next(Graph._serials)
        self.name = name
        if triples is not None:
            for triple in triples:
                self.add(triple)

    @property
    def epoch(self) -> int:
        """Mutation counter: bumps on every successful add/remove/clear.

        ``(serial, epoch)`` identifies a graph state; the plan cache uses
        it to invalidate prepared plans when the data changes.
        """
        return self._epoch

    # ------------------------------------------------------------------
    # Dictionary access
    # ------------------------------------------------------------------

    @property
    def dictionary(self) -> TermDictionary:
        """The term dictionary this graph encodes against."""
        return self._dict

    def term_id(self, term: Term) -> Optional[int]:
        """The ID of ``term``, or ``None`` if it was never interned.

        A ``None`` result means no triple of this graph (nor of any other
        graph sharing the dictionary) can contain the term, which lets
        the evaluator prune whole patterns before touching an index.
        """
        return self._dict.lookup(term)

    def decode_id(self, tid: int) -> Term:
        """The term with dictionary ID ``tid``."""
        return self._dict.decode(tid)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Add a triple; returns True if it was not already present."""
        return self._add_ids(self._dict.encode_triple(triple))

    def _add_ids(self, ids: IDTriple) -> bool:
        if ids in self._ids:
            return False
        self._ids[ids] = None
        s, p, o = ids
        _index_add(self._spo, s, p, o)
        _index_add(self._pos, p, o, s)
        _index_add(self._osp, o, s, p)
        counts = self._s_counts
        counts[s] = counts.get(s, 0) + 1
        counts = self._p_counts
        counts[p] = counts.get(p, 0) + 1
        counts = self._o_counts
        counts[o] = counts.get(o, 0) + 1
        self._epoch += 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns how many were new."""
        if isinstance(triples, Graph) and triples._dict is self._dict:
            return sum(1 for t in triples._ids if self._add_ids(t))
        return sum(1 for t in triples if self.add(t))

    def remove(self, triple: Triple) -> bool:
        """Remove a triple; returns True if it was present."""
        ids = self._lookup_ids(triple)
        if ids is None or ids not in self._ids:
            return False
        del self._ids[ids]
        s, p, o = ids
        _index_remove(self._spo, s, p, o)
        _index_remove(self._pos, p, o, s)
        _index_remove(self._osp, o, s, p)
        for counts, key in (
            (self._s_counts, s),
            (self._p_counts, p),
            (self._o_counts, o),
        ):
            left = counts[key] - 1
            if left:
                counts[key] = left
            else:
                del counts[key]
        self._epoch += 1
        return True

    def clear(self) -> None:
        self._ids.clear()
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._s_counts.clear()
        self._p_counts.clear()
        self._o_counts.clear()
        self._epoch += 1

    def _lookup_ids(self, triple: Triple) -> Optional[IDTriple]:
        """Encode a triple without interning; None if any term is unknown."""
        lookup = self._dict.lookup
        s = lookup(triple.subject)
        if s is None:
            return None
        p = lookup(triple.predicate)
        if p is None:
            return None
        o = lookup(triple.object)
        if o is None:
            return None
        return (s, p, o)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, triple: Triple) -> bool:
        ids = self._lookup_ids(triple)
        return ids is not None and ids in self._ids

    def __iter__(self) -> Iterator[Triple]:
        decode = self._dict.decode_triple
        for ids in self._ids:
            yield decode(ids)

    def __bool__(self) -> bool:
        return bool(self._ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if other._dict is self._dict:
            return self._ids == other._ids
        return set(self) == set(other)

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("Graph is unhashable; use canonical_hash() instead")

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} with {len(self)} triples>"

    # ------------------------------------------------------------------
    # Pattern access
    # ------------------------------------------------------------------

    def triples_ids(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ) -> Iterator[IDTriple]:
        """Iterate over ID-triples matching the given ground-ID positions.

        ``None`` in a position is a wildcard.  The most selective index
        available is used.  This is the integer-level access path the
        query evaluator joins on.
        """
        if subject is not None and predicate is not None and object is not None:
            candidate = (subject, predicate, object)
            if candidate in self._ids:
                yield candidate
            return

        if subject is not None:
            by_pred = self._spo.get(subject)
            if not by_pred:
                return
            if predicate is not None:
                for obj in by_pred.get(predicate, ()):
                    yield (subject, predicate, obj)
            elif object is not None:
                by_subj = self._osp.get(object)
                if not by_subj:
                    return
                for pred in by_subj.get(subject, ()):
                    yield (subject, pred, object)
            else:
                for pred, objs in by_pred.items():
                    for obj in objs:
                        yield (subject, pred, obj)
            return

        if predicate is not None:
            by_obj = self._pos.get(predicate)
            if not by_obj:
                return
            if object is not None:
                for subj in by_obj.get(object, ()):
                    yield (subj, predicate, object)
            else:
                for obj, subjs in by_obj.items():
                    for subj in subjs:
                        yield (subj, predicate, obj)
            return

        if object is not None:
            by_subj = self._osp.get(object)
            if not by_subj:
                return
            for subj, preds in by_subj.items():
                for pred in preds:
                    yield (subj, pred, object)
            return

        yield from self._ids

    def _resolve(self, term: Optional[Term]) -> Tuple[Optional[int], bool]:
        """Map a term-level position to (ID, known): Variables and None are
        wildcards; a ground term absent from the dictionary is unknown."""
        if term is None or isinstance(term, Variable):
            return None, True
        tid = self._dict.lookup(term)
        return tid, tid is not None

    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Iterate over triples matching the given ground positions.

        ``None`` (or a :class:`Variable`) in a position acts as a wildcard.
        The most selective index available is used.
        """
        s, known = self._resolve(subject)
        if not known:
            return
        p, known = self._resolve(predicate)
        if not known:
            return
        o, known = self._resolve(object)
        if not known:
            return
        decode = self._dict.decode_triple
        for ids in self.triples_ids(s, p, o):
            yield decode(ids)

    def match(self, pattern: TriplePattern) -> Iterator[Triple]:
        """Iterate over triples matching a :class:`TriplePattern`.

        Ground positions (IRIs, literals, blank nodes) constrain the lookup;
        variable positions are wildcards.  Repeated variables are checked
        (e.g. ``(?x, p, ?x)`` only matches triples with equal subject and
        object) — at the integer level, before any decoding.  A literal in
        the subject position matches nothing, since triples cannot have
        literal subjects.
        """
        terms = (pattern.subject, pattern.predicate, pattern.object)
        if isinstance(terms[0], Literal):
            return
        lookup = self._dict.lookup
        args: List[Optional[int]] = [None, None, None]
        seen: Dict[Variable, int] = {}
        constraints: List[Tuple[int, int]] = []
        for pos, term in enumerate(terms):
            if isinstance(term, Variable):
                first = seen.get(term)
                if first is None:
                    seen[term] = pos
                else:
                    constraints.append((first, pos))
            else:
                tid = lookup(term)
                if tid is None:
                    return
                args[pos] = tid
        decode = self._dict.decode_triple
        if constraints:
            for ids in self.triples_ids(args[0], args[1], args[2]):
                if all(ids[i] == ids[j] for i, j in constraints):
                    yield decode(ids)
        else:
            for ids in self.triples_ids(args[0], args[1], args[2]):
                yield decode(ids)

    def count_ids(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object: Optional[int] = None,
    ) -> int:
        """Count ID-triples matching the given ground-ID positions.

        Every shape is answered without materialising triples or walking
        an index level: single-position counts come from the maintained
        per-position aggregate count dictionaries (O(1)), two-position
        counts are a leaf length, and the fully ground case is a
        membership probe.  This is the cardinality oracle the SPARQL
        planner orders joins with, so it must stay O(1) per probe.
        """
        s, p, o = subject, predicate, object
        if s is None and p is None and o is None:
            return len(self._ids)
        if s is not None:
            if p is not None and o is not None:
                return 1 if (s, p, o) in self._ids else 0
            if p is not None:
                return len(self._spo.get(s, {}).get(p, ()))
            if o is not None:
                return len(self._osp.get(o, {}).get(s, ()))
            return self._s_counts.get(s, 0)
        if p is not None:
            if o is not None:
                return len(self._pos.get(p, {}).get(o, ()))
            return self._p_counts.get(p, 0)
        return self._o_counts.get(o, 0)

    def count_pattern(self, pattern: TriplePattern) -> int:
        """Exact match count of a triple pattern.

        Ground positions resolve through the dictionary and the count
        comes straight from :meth:`count_ids` — O(1), no triple
        materialisation.  Repeated variables (e.g. ``(?x, p, ?x)``) are
        answered from index *leaf* lengths and membership probes — one
        probe per distinct key of the relevant index level, never one
        per matching triple.  A literal subject or an uninterned ground
        term counts zero.  This is the per-endpoint cardinality oracle
        of the federated cost model.
        """
        terms = (pattern.subject, pattern.predicate, pattern.object)
        if isinstance(terms[0], Literal):
            return 0
        args: List[Optional[int]] = [None, None, None]
        seen: Dict[Variable, int] = {}
        constraints: List[Tuple[int, int]] = []
        for pos, term in enumerate(terms):
            if isinstance(term, Variable):
                first = seen.get(term)
                if first is None:
                    seen[term] = pos
                else:
                    constraints.append((first, pos))
            else:
                tid = self._dict.lookup(term)
                if tid is None:
                    return 0
                args[pos] = tid
        if not constraints:
            return self.count_ids(args[0], args[1], args[2])
        return self._count_repeated(args, constraints)

    def _count_repeated(
        self, args: List[Optional[int]], constraints: List[Tuple[int, int]]
    ) -> int:
        """Count matches of a pattern with repeated variables.

        Each shape is answered from one index level with membership
        probes or leaf lengths — O(distinct keys), never O(matches).
        Ground positions never participate in a constraint (a repeated
        variable occupies both constrained positions), so the dispatch
        below is exhaustive over the repeat shapes.
        """
        shape = frozenset(constraints)
        s, p, o = args
        if shape == {(0, 2)}:  # (?x, ·, ?x): subject == object
            if p is not None:
                by_obj = self._pos.get(p, {})
                return sum(1 for obj, subjs in by_obj.items() if obj in subjs)
            osp = self._osp
            return sum(
                len(osp.get(subj, {}).get(subj, ())) for subj in self._spo
            )
        if shape == {(0, 1)}:  # (?x, ?x, ·): subject == predicate
            if o is not None:
                by_subj = self._osp.get(o, {})
                return sum(
                    1 for subj, preds in by_subj.items() if subj in preds
                )
            return sum(
                len(by_pred.get(subj, ()))
                for subj, by_pred in self._spo.items()
            )
        if shape == {(1, 2)}:  # (·, ?x, ?x): predicate == object
            if s is not None:
                by_pred = self._spo.get(s, {})
                return sum(
                    1 for pred, objs in by_pred.items() if pred in objs
                )
            return sum(
                len(by_obj.get(pred, ()))
                for pred, by_obj in self._pos.items()
            )
        # (?x, ?x, ?x): all three positions equal.
        return sum(
            1
            for subj, by_pred in self._spo.items()
            if subj in by_pred.get(subj, ())
        )

    def add_id_triples(
        self, ids: Iterable[IDTriple], dictionary: TermDictionary
    ) -> int:
        """Bulk-add already-encoded ID triples; returns how many were new.

        The caller must pass the dictionary the IDs were encoded against
        so a cross-dictionary mix-up fails loudly instead of silently
        storing garbage.  Used by the federated executor to land pulled
        peer relations in its local cache graph without decoding.

        Raises:
            ValueError: if ``dictionary`` is not this graph's dictionary.
        """
        if dictionary is not self._dict:
            raise ValueError(
                "add_id_triples requires the graph's own dictionary; "
                "IDs from a foreign dictionary are meaningless here"
            )
        known = self._ids
        fresh = [t for t in dict.fromkeys(ids) if t not in known]
        if not fresh:
            return 0
        known.update(dict.fromkeys(fresh))
        # One pass builds the leaves of all three indexes in the order
        # ``_add_ids`` would have inserted them one triple at a time
        # (leaf iteration order is row order downstream); the
        # per-position counts follow in one bulk update each.
        spo, pos, osp = self._spo, self._pos, self._osp
        for s, p, o in fresh:
            level = spo.get(s)
            if level is None:
                level = spo[s] = {}
            leaf = level.get(p)
            if leaf is None:
                leaf = level[p] = {}
            leaf[o] = None
            level = pos.get(p)
            if level is None:
                level = pos[p] = {}
            leaf = level.get(o)
            if leaf is None:
                leaf = level[o] = {}
            leaf[s] = None
            level = osp.get(o)
            if level is None:
                level = osp[o] = {}
            leaf = level.get(s)
            if leaf is None:
                leaf = level[s] = {}
            leaf[p] = None
        for position, counts in enumerate(
            (self._s_counts, self._p_counts, self._o_counts)
        ):
            for tid, added in Counter(
                map(itemgetter(position), fresh)
            ).items():
                counts[tid] = counts.get(tid, 0) + added
        self._epoch += len(fresh)
        return len(fresh)

    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> int:
        """Count matching triples without materialising them all.

        Resolves the term-level positions to IDs and delegates to
        :meth:`count_ids`.
        """
        s, known = self._resolve(subject)
        if not known:
            return 0
        p, known = self._resolve(predicate)
        if not known:
            return 0
        o, known = self._resolve(object)
        if not known:
            return 0
        return self.count_ids(s, p, o)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def subjects(self) -> Set[Term]:
        decode = self._dict.decode
        return {decode(i) for i in self._spo.keys()}

    def predicates(self) -> Set[Term]:
        decode = self._dict.decode
        return {decode(i) for i in self._pos.keys()}

    def objects(self) -> Set[Term]:
        decode = self._dict.decode
        return {decode(i) for i in self._osp.keys()}

    def _term_ids(self) -> Set[int]:
        out: Set[int] = set()
        for s, p, o in self._ids:
            out.add(s)
            out.add(p)
            out.add(o)
        return out

    def terms(self) -> Set[Term]:
        """All terms occurring in any position."""
        decode = self._dict.decode
        return {decode(i) for i in self._term_ids()}

    def iris(self) -> Set[IRI]:
        """All IRIs occurring in the graph — the peer schema of Section 2.2."""
        return {t for t in self.terms() if isinstance(t, IRI)}

    def blank_nodes(self) -> Set[BlankNode]:
        return {t for t in self.terms() if isinstance(t, BlankNode)}

    def literals(self) -> Set[Literal]:
        return {t for t in self.terms() if isinstance(t, Literal)}

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------

    def copy(self, name: str = "") -> "Graph":
        out = Graph(name=name or self.name, dictionary=self._dict)
        out._ids = dict(self._ids)
        out._spo = _copy_index(self._spo)
        out._pos = _copy_index(self._pos)
        out._osp = _copy_index(self._osp)
        out._s_counts = dict(self._s_counts)
        out._p_counts = dict(self._p_counts)
        out._o_counts = dict(self._o_counts)
        return out

    def _from_ids(self, ids: Iterable[IDTriple], name: str = "") -> "Graph":
        out = Graph(name=name, dictionary=self._dict)
        for t in ids:
            out._add_ids(t)
        return out

    def __or__(self, other: "Graph") -> "Graph":
        out = self.copy()
        out.add_all(other)
        return out

    def __and__(self, other: "Graph") -> "Graph":
        if other._dict is self._dict:
            small, large = (
                (self, other) if len(self) <= len(other) else (other, self)
            )
            return self._from_ids(
                t for t in small._ids if t in large._ids
            )
        small, large = (
            (self, other) if len(self) <= len(other) else (other, self)
        )
        return Graph(t for t in small if t in large)

    def __sub__(self, other: "Graph") -> "Graph":
        if other._dict is self._dict:
            return self._from_ids(
                t for t in self._ids if t not in other._ids
            )
        return Graph(t for t in self if t not in other)

    def issubset(self, other: "Graph") -> bool:
        if other._dict is self._dict:
            return self._ids.keys() <= other._ids.keys()
        return all(t in other for t in self)

    # ------------------------------------------------------------------
    # Columnar run access (used by the batch execution engine)
    # ------------------------------------------------------------------

    def runs(self, order: str) -> _Index:
        """One nested index as grouped runs — READ-ONLY.

        ``order`` is ``"spo"``, ``"pos"`` or ``"osp"``.  The returned
        nested mapping is the live index: two dictionary levels keyed by
        ID, whose leaves are insertion-ordered ID runs.  The batch
        engine consumes whole runs at a time (bulk ``extend`` into
        columns, group-at-a-time merge joins keyed on the second index
        level), which is why the accessor exposes the index structure
        instead of an iterator of triples.  Runs are grouped by their
        index key and their iteration order is the deterministic
        insertion order — callers must never mutate them.

        Raises:
            ValueError: for an unknown order name.
        """
        if order == "spo":
            return self._spo
        if order == "pos":
            return self._pos
        if order == "osp":
            return self._osp
        raise ValueError(f"unknown index order {order!r}")

    def contains_ids(self, subject: int, predicate: int, object: int) -> bool:
        """Membership probe on an already-encoded ID triple — O(1)."""
        return (subject, predicate, object) in self._ids

    def id_triples(self) -> Iterator[IDTriple]:
        """All ID triples in deterministic insertion order."""
        return iter(self._ids)

    # ------------------------------------------------------------------
    # Statistics (used by the SPARQL planner)
    # ------------------------------------------------------------------

    def predicate_histogram(self) -> Dict[Term, int]:
        """Triple count per predicate, for join-order selectivity."""
        decode = self._dict.decode
        return {
            decode(pred): count for pred, count in self._p_counts.items()
        }

    def sorted_triples(self) -> List[Triple]:
        """Triples in the deterministic library-wide order."""
        return sorted(self, key=Triple.sort_key)

    # ------------------------------------------------------------------
    # Debug / verification helpers
    # ------------------------------------------------------------------

    def check_index_coherence(self) -> bool:
        """Verify all three indexes agree with the ID-triple set.

        Used by property tests; O(n) in the graph size.
        """
        spo = {
            (s, p, o)
            for s, by_p in self._spo.items()
            for p, objs in by_p.items()
            for o in objs
        }
        pos = {
            (s, p, o)
            for p, by_o in self._pos.items()
            for o, subjs in by_o.items()
            for s in subjs
        }
        osp = {
            (s, p, o)
            for o, by_s in self._osp.items()
            for s, preds in by_s.items()
            for p in preds
        }
        ids = set(self._ids)
        return spo == ids and pos == ids and osp == ids
