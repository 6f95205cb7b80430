"""In-memory indexed RDF graph (triple store), dictionary-encoded.

The store interns every term into an integer ID through a
:class:`~repro.rdf.dictionary.TermDictionary`.  What it keeps eagerly is
small: the insertion-ordered set of ID triples and one triple count per
term and position.  Pattern access goes through three *orderings* of
that set, each covering two access paths:

* ``SPO`` answers ``(s, ?, ?)`` and ``(s, p, ?)``;
* ``POS`` answers ``(?, p, ?)`` and ``(?, p, o)``;
* ``OSP`` answers ``(?, ?, o)`` and ``(s, ?, o)``.

Fully ground lookups probe the ID-triple set directly and fully unbound
lookups scan it.

**Lazy orderings.**  An ordering is built from the triple set by the
first read that needs it and maintained incrementally from then on, so
loading a graph costs the triple set and the counts, a graph that is
only ever scanned by ``(?, p, ?)`` carries one ordering, and ``OSP``
exists only where a caller scans by object.  A finished ordering is
published with one assignment: a concurrent reader sees none of it or
all of it.

**Runs.**  An ordering is two dictionary levels keyed by its first and
second component; what sits under a key pair is the *run* of third
components.  Most runs have one member (on a 120k-triple entity graph
four in five SPO/POS runs and practically every OSP run), so a run is
the bare ID while it has one member and a ``list`` from the second
member on.  That branch lives in this module only: readers outside it
get fresh columns from :meth:`Graph.run`, :meth:`Graph.group` and
:meth:`Graph.probe`, never a live level or run.

**Order contract.**  Every iteration order is a pure function of the
sequence of ``add``/``remove`` calls: the triple set is an
insertion-ordered mapping, first- and second-level keys come in
first-seen order and a run is in insertion order — the same whether the
ordering was built lazily or grown triple by triple.  ``remove`` drops
the built orderings (the next read rebuilds them from the triple set),
so the order never depends on *when* an ordering was first read.  With
hash sets of integers the order would follow the ID *values*, which
depend on what else was interned into the shared process-wide
dictionary first — and that turned demand-driven (order-sensitive)
federated executions into functions of unrelated earlier work in the
same process.

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
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.rdf.dictionary import IDTriple, TermDictionary, default_dictionary
from repro.rdf.terms import BlankNode, IRI, Literal, Term, Variable
from repro.rdf.triples import Triple, TriplePattern

__all__ = ["Graph"]

# A run is the bare ID while it has one member, a list from the second
# member on (see module docstring).
_Run = Union[int, List[int]]
_Index = Dict[int, Dict[int, _Run]]

#: Ordering name -> an (s, p, o) ID triple read in that ordering.
_PERMUTE = {
    "spo": itemgetter(0, 1, 2),
    "pos": itemgetter(1, 2, 0),
    "osp": itemgetter(2, 0, 1),
}

#: Shared default for a missing first-level key; never written to.
_NO_LEVEL: Dict[int, _Run] = {}


def _index_extend(index: _Index, keyed: Iterable[IDTriple]) -> None:
    """Append ``(first, second, third)`` entries, all new, to an ordering."""
    for a, b, c in keyed:
        level = index.get(a)
        if level is None:
            index[a] = {b: c}
            continue
        run = level.get(b)
        if run is None:
            level[b] = c
        elif type(run) is list:
            run.append(c)
        else:
            level[b] = [run, c]


def _index_of(order: str, ids: Iterable[IDTriple]) -> _Index:
    """The ordering called ``order`` over ``(s, p, o)`` ID triples."""
    index: _Index = {}
    _index_extend(index, map(_PERMUTE[order], ids))
    return index


class Graph:
    """A mutable set of RDF triples with pattern-matching access.

    Args:
        triples: optional initial triples.
        name: optional graph name (peer graphs carry their peer's name;
            used in diagnostics).
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
        # Orderings are None until a read builds them (module docstring).
        self._spo: Optional[_Index] = None
        self._pos: Optional[_Index] = None
        self._osp: Optional[_Index] = None
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
        """Mutation counter: bumps on every successful add/remove.

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
        if self._spo is not None:
            _index_extend(self._spo, (ids,))
        if self._pos is not None:
            _index_extend(self._pos, ((p, o, s),))
        if self._osp is not None:
            _index_extend(self._osp, ((o, s, p),))
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
            return self.add_id_triples(triples._ids, self._dict)
        return sum(1 for t in triples if self.add(t))

    def remove(self, triple: Triple) -> bool:
        """Remove a triple; returns True if it was present."""
        ids = self._lookup_ids(triple)
        if ids is None or ids not in self._ids:
            return False
        del self._ids[ids]
        # The next read rebuilds from the triple set, so iteration order
        # cannot depend on whether an ordering existed before the removal.
        self._spo = self._pos = self._osp = None
        s, p, o = ids
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

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} with {len(self)} triples>"

    # ------------------------------------------------------------------
    # Orderings
    # ------------------------------------------------------------------

    def _build(self, order: str) -> _Index:
        """Build one ordering from the triple set and publish it."""
        index = _index_of(order, self._ids)
        setattr(self, "_" + order, index)  # one store: all or nothing
        return index

    def _built(self) -> Iterator[Tuple[str, _Index]]:
        """The orderings that exist so far, by name."""
        for order in _PERMUTE:
            index = getattr(self, "_" + order)
            if index is not None:
                yield order, index

    def _ordering(self, order: str) -> _Index:
        """The ordering called ``"spo"``, ``"pos"`` or ``"osp"``.

        An empty ordering belongs to an empty graph, so treating it as
        missing (``or``) rebuilds nothing.

        Raises:
            ValueError: for an unknown order name.
        """
        if order not in _PERMUTE:
            raise ValueError(f"unknown index order {order!r}")
        return getattr(self, "_" + order) or self._build(order)

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

        # Two ground positions: one run.  Inlined rather than routed
        # through run(), this is extend_id_bindings' per-binding probe.
        if subject is not None and predicate is not None:
            run = (
                (self._spo or self._build("spo"))
                .get(subject, _NO_LEVEL)
                .get(predicate)
            )
            if type(run) is list:
                for obj in run:
                    yield (subject, predicate, obj)
            elif run is not None:
                yield (subject, predicate, run)
        elif predicate is not None and object is not None:
            run = (
                (self._pos or self._build("pos"))
                .get(predicate, _NO_LEVEL)
                .get(object)
            )
            if type(run) is list:
                for subj in run:
                    yield (subj, predicate, object)
            elif run is not None:
                yield (run, predicate, object)
        elif subject is not None and object is not None:
            run = (
                (self._osp or self._build("osp"))
                .get(object, _NO_LEVEL)
                .get(subject)
            )
            if type(run) is list:
                for pred in run:
                    yield (subject, pred, object)
            elif run is not None:
                yield (subject, run, object)
        # One ground position: every run under one first-level key.
        elif subject is not None:
            level = (self._spo or self._build("spo")).get(subject, _NO_LEVEL)
            for pred, run in level.items():
                if type(run) is list:
                    for obj in run:
                        yield (subject, pred, obj)
                else:
                    yield (subject, pred, run)
        elif predicate is not None:
            level = (self._pos or self._build("pos")).get(predicate, _NO_LEVEL)
            for obj, run in level.items():
                if type(run) is list:
                    for subj in run:
                        yield (subj, predicate, obj)
                else:
                    yield (run, predicate, obj)
        elif object is not None:
            level = (self._osp or self._build("osp")).get(object, _NO_LEVEL)
            for subj, run in level.items():
                if type(run) is list:
                    for pred in run:
                        yield (subj, pred, object)
                else:
                    yield (subj, run, object)
        else:
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
        counts are a run length, and the fully ground case is a
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
                run = (
                    (self._spo or self._build("spo")).get(s, _NO_LEVEL).get(p)
                )
            elif o is not None:
                run = (
                    (self._osp or self._build("osp")).get(o, _NO_LEVEL).get(s)
                )
            else:
                return self._s_counts.get(s, 0)
        elif p is not None:
            if o is None:
                return self._p_counts.get(p, 0)
            run = (self._pos or self._build("pos")).get(p, _NO_LEVEL).get(o)
        else:
            return self._o_counts.get(o, 0)
        return 0 if run is None else len(run) if type(run) is list else 1

    def count_pattern(self, pattern: TriplePattern) -> int:
        """Exact match count of a triple pattern.

        Ground positions resolve through the dictionary and the count
        comes straight from :meth:`count_ids` — O(1), no triple
        materialisation.  Repeated variables (e.g. ``(?x, p, ?x)``) are
        answered from run lengths and membership probes — one
        probe per distinct key of the relevant ordering level, never one
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

        Each shape is answered from one ordering level with membership
        probes or run lengths — O(distinct keys), never O(matches).
        Ground positions never participate in a constraint (a repeated
        variable occupies both constrained positions), so the dispatch
        below is exhaustive over the repeat shapes.
        """
        shape = frozenset(constraints)
        s, p, o = args
        ids, count = self._ids, self.count_ids
        if shape == {(0, 2)}:  # (?x, ·, ?x): subject == object
            if p is not None:
                by_obj = self._ordering("pos").get(p, _NO_LEVEL)
                return sum(1 for obj in by_obj if (obj, p, obj) in ids)
            return sum(count(subj, None, subj) for subj in self._s_counts)
        if shape == {(0, 1)}:  # (?x, ?x, ·): subject == predicate
            if o is not None:
                by_subj = self._ordering("osp").get(o, _NO_LEVEL)
                return sum(1 for subj in by_subj if (subj, subj, o) in ids)
            return sum(count(subj, subj, None) for subj in self._s_counts)
        if shape == {(1, 2)}:  # (·, ?x, ?x): predicate == object
            if s is not None:
                by_pred = self._ordering("spo").get(s, _NO_LEVEL)
                return sum(1 for pred in by_pred if (s, pred, pred) in ids)
            return sum(count(None, pred, pred) for pred in self._p_counts)
        # (?x, ?x, ?x): all three positions equal.
        return sum(1 for subj in self._s_counts if (subj, subj, subj) in ids)

    def add_id_triples(
        self, ids: Iterable[IDTriple], dictionary: TermDictionary
    ) -> int:
        """Bulk-add already-encoded ID triples; returns how many were new.

        The caller must pass the dictionary the IDs were encoded against
        so a cross-dictionary mix-up fails loudly instead of silently
        storing garbage.  Used by Algorithm 1 to land derived triples
        in the solution, and by the rewriting to build its quotient of
        the stored graph, without decoding.

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
        # The orderings that exist grow in the order ``_add_ids`` would
        # have grown them one triple at a time (run order is row order
        # downstream); the per-position counts follow in one bulk
        # update each.
        for order, index in self._built():
            _index_extend(index, map(_PERMUTE[order], fresh))
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
        return {decode(i) for i in self._s_counts}

    def predicates(self) -> Set[Term]:
        decode = self._dict.decode
        return {decode(i) for i in self._p_counts}

    def objects(self) -> Set[Term]:
        decode = self._dict.decode
        return {decode(i) for i in self._o_counts}

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
        """An independent graph with the same triples, in the same order.

        The copy takes the triple set and the counts and builds its own
        orderings when it is read, so it shares no run with its source.
        """
        out = Graph(name=name or self.name, dictionary=self._dict)
        out._ids = dict(self._ids)
        out._s_counts = dict(self._s_counts)
        out._p_counts = dict(self._p_counts)
        out._o_counts = dict(self._o_counts)
        return out

    def _from_ids(self, ids: Iterable[IDTriple], name: str = "") -> "Graph":
        out = Graph(name=name, dictionary=self._dict)
        out.add_id_triples(ids, self._dict)
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
        return Graph((t for t in small if t in large), dictionary=self._dict)

    def __sub__(self, other: "Graph") -> "Graph":
        if other._dict is self._dict:
            return self._from_ids(
                t for t in self._ids if t not in other._ids
            )
        return Graph(
            (t for t in self if t not in other), dictionary=self._dict
        )

    def issubset(self, other: "Graph") -> bool:
        if other._dict is self._dict:
            return self._ids.keys() <= other._ids.keys()
        return all(t in other for t in self)

    # ------------------------------------------------------------------
    # Columnar run access (used by the batch execution engine)
    # ------------------------------------------------------------------

    def run(self, order: str, first: int, second: int) -> List[int]:
        """The third components under ``(first, second)`` — a fresh list.

        ``run("pos", p, o)`` is the subjects of ``(?, p, o)`` in
        insertion order; empty when the key pair is absent.
        """
        run = self._ordering(order).get(first, _NO_LEVEL).get(second)
        if type(run) is list:
            return run.copy()
        return [] if run is None else [run]

    def group(self, order: str, first: int) -> Tuple[List[int], List[int]]:
        """Everything under one first-level key, as two parallel columns.

        Returns ``(seconds, thirds)``: ``group("pos", p)`` is the objects
        and subjects of ``(?, p, ?)``, second-level keys in first-seen
        order and each run in insertion order — the order of
        ``triples_ids`` on the same shape.  Both lists are fresh.
        """
        seconds: List[int] = []
        thirds: List[int] = []
        for key, run in self._ordering(order).get(first, _NO_LEVEL).items():
            if type(run) is list:
                thirds.extend(run)
                seconds.extend([key] * len(run))
            else:
                thirds.append(run)
                seconds.append(key)
        return seconds, thirds

    def probe(
        self, order: str, firsts: Sequence[int], seconds: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        """Look a whole column of key pairs up in one ordering.

        Returns ``(sel, thirds)``: for every row ``i`` and every member
        of the run under ``(firsts[i], seconds[i])``, ``i`` in ``sel``
        and the member in ``thirds`` — row-major, runs in insertion
        order.  Both lists are fresh.
        """
        sel: List[int] = []
        thirds: List[int] = []
        levels = map(
            self._ordering(order).get, firsts, itertools.repeat(_NO_LEVEL)
        )
        for i, run in enumerate(map(dict.get, levels, seconds)):
            if type(run) is list:
                thirds.extend(run)
                sel.extend([i] * len(run))
            elif run is not None:
                thirds.append(run)
                sel.append(i)
        return sel, thirds

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

    def index_stats(self) -> Dict[str, Dict[str, int]]:
        """Per ordering: ``built``, first-level ``keys``, ``runs`` and how
        many of those are ``inlined`` (one member, no container)."""
        out: Dict[str, Dict[str, int]] = {}
        built = dict(self._built())
        for order in _PERMUTE:
            levels = built.get(order, _NO_LEVEL).values()
            runs = [run for level in levels for run in level.values()]
            out[order] = {
                "built": order in built,
                "keys": len(levels),
                "runs": len(runs),
                "inlined": sum(1 for run in runs if type(run) is not list),
            }
        return out

    def check_index_coherence(self) -> bool:
        """Verify the counts and every built ordering against the ID set.

        A built ordering must equal the one a fresh build from the
        triple set gives — same keys in the same order on both levels,
        same runs in the same representation.  Used by property tests;
        O(n) in the graph size.
        """

        def listing(index: _Index) -> list:
            return [(a, list(level.items())) for a, level in index.items()]

        for position, counts in enumerate(
            (self._s_counts, self._p_counts, self._o_counts)
        ):
            if counts != Counter(map(itemgetter(position), self._ids)):
                return False
        return all(
            listing(index) == listing(_index_of(order, self._ids))
            for order, index in self._built()
        )
