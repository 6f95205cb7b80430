"""Term dictionary: interning RDF terms to dense integer IDs.

Dictionary encoding is the classic trick of column stores and RDF engines
(RDF-3X, Hexastore, HDT): every distinct term is assigned a small integer
once, and all storage and join machinery then operates on integers.  The
:class:`Graph` indexes hold IDs instead of :class:`~repro.rdf.terms.Term`
objects, so pattern matching and conjunct joins pay integer hashing and
equality instead of Python-object hashing and string comparison, and only
final answer rows are decoded back into terms.

A single process-wide :func:`default_dictionary` is shared by all graphs
unless a caller supplies its own — sharing means graphs built from the
same vocabulary agree on IDs, which lets equality and ID-triple loads
between graphs run entirely at the integer level (the common case in the
peer system, where the chase unions and extends peer databases that share
one vocabulary).  Ephemeral graphs that mint unbounded fresh terms —
chase universal solutions full of fresh blank nodes — pass a private
dictionary instead, so the shared one only ever holds vocabulary.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import TermError
from repro.rdf.terms import Term, Variable
from repro.rdf.triples import Triple

__all__ = ["TermDictionary", "default_dictionary", "IDTriple"]

#: A triple encoded as (subject id, predicate id, object id).
IDTriple = Tuple[int, int, int]


class TermDictionary:
    """A bidirectional, append-only mapping ``Term <-> int``.

    IDs are dense (0, 1, 2, …) in interning order, so decoding is a list
    index.  Terms are never removed: a dictionary outlives the graphs
    using it, and stale entries cost only memory, never correctness.
    Interning is thread-safe; lookups and decodes are lock-free reads.

    Two tables are derived from the terms and kept beside them:
    :meth:`rank_tables`, the position of every ID in the library-wide
    term order and its inverse, so results can be sorted on integers.
    """

    __slots__ = ("_ids", "_terms", "_lock", "_tables")

    def __init__(self, terms: Optional[Iterable[Term]] = None) -> None:
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        self._lock = threading.Lock()
        # (ranks, ids_by_rank), covering the first ``len(ranks)`` IDs.
        self._tables: Tuple[List[int], List[Optional[int]]] = ([], [None])
        if terms is not None:
            for term in terms:
                self.encode(term)

    # -- encoding -------------------------------------------------------

    def encode(self, term: Term) -> int:
        """Intern a ground term, returning its (possibly new) ID.

        Raises:
            TermError: if ``term`` is a :class:`Variable` — variables are
                pattern syntax, never data, and must not receive IDs.
        """
        tid = self._ids.get(term)
        if tid is not None:
            return tid
        if isinstance(term, Variable):
            raise TermError(f"cannot intern variable {term!r} in a dictionary")
        with self._lock:
            tid = self._ids.get(term)
            if tid is None:
                tid = len(self._terms)
                self._terms.append(term)
                self._ids[term] = tid
            return tid

    def encode_triple(self, triple: Triple) -> IDTriple:
        """Intern all three positions of a triple."""
        encode = self.encode
        return (
            encode(triple.subject),
            encode(triple.predicate),
            encode(triple.object),
        )

    # -- lookups (non-interning) ----------------------------------------

    def lookup(self, term: Term) -> Optional[int]:
        """The ID of ``term`` if it has been interned, else ``None``.

        Unlike :meth:`encode` this never grows the dictionary, so
        membership probes with foreign terms stay side-effect-free.
        """
        return self._ids.get(term)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def __len__(self) -> int:
        return len(self._terms)

    # -- decoding -------------------------------------------------------

    def decode(self, tid: int) -> Term:
        """The term with the given ID.

        Raises:
            KeyError: if the ID was never assigned.
        """
        if 0 <= tid < len(self._terms):
            return self._terms[tid]
        raise KeyError(f"unknown term id {tid}")

    def decode_triple(self, ids: IDTriple) -> Triple:
        """The triple of terms with the given IDs."""
        terms = self._terms
        return Triple(terms[ids[0]], terms[ids[1]], terms[ids[2]])

    def terms(self) -> List[Term]:
        """The ID-indexed term list: ``terms()[tid]`` is ``decode(tid)``.

        For bulk decodes (``map(terms.__getitem__, column)``) of IDs
        known to be valid.  The list is the live table: read, never
        mutate.
        """
        return self._terms

    # -- ordering -------------------------------------------------------

    def rank_tables(self) -> Tuple[List[int], List[Optional[int]]]:
        """The library-wide term order as two inverse tables.

        ``ranks[tid]`` is the 1-based position of term ``tid`` in the
        :meth:`~repro.rdf.terms.Term.sort_key` total order over all
        interned terms, terms with equal sort keys in interning order,
        so ranks are a bijection onto ``1 .. len(ranks)`` and comparing
        two ranks is comparing the two terms, at integer cost.  ``0``
        is left free for "unbound", which sorts before every term, and
        ``ids_by_rank`` inverts the table: ``ids_by_rank[ranks[tid]] ==
        tid`` and ``ids_by_rank[0] is None``.  A result row packs its
        ranks into one int (:func:`repro.sparql.batch.pack_ranks`) and
        unpacks the sorted ints back to IDs through ``ids_by_rank``.

        The pair is rebuilt only when terms were interned since the
        last call: the new IDs are sorted and merged into the previous
        order — one ascending run, so Timsort sorts the tail and
        merges the two, and its stability puts ties in interning
        order.  One sort key per interned term, so a rebuild is linear
        in the dictionary, not in its growth (~15 ms at 35k terms).
        With nothing interned the call is one length comparison and
        returns the same pair.  A returned pair stays valid for the
        IDs it covers but is not comparable with a later one; callers
        fetch it once per sort.  Only integers are retained — the sort
        keys live for the duration of a rebuild.
        """
        tables = self._tables
        if len(tables[0]) == len(self._terms):
            return tables
        with self._lock:
            terms = self._terms
            done = len(self._tables[0])
            if done < len(terms):
                keys = [term.sort_key() for term in terms]
                order = self._tables[1][1:]
                order.extend(range(done, len(terms)))
                order.sort(key=keys.__getitem__)
                ranks = [0] * len(terms)
                for rank, tid in enumerate(order, 1):
                    ranks[tid] = rank
                self._tables = (ranks, [None, *order])
            return self._tables

    def __repr__(self) -> str:
        return f"<TermDictionary with {len(self)} terms>"


_DEFAULT = TermDictionary()


def default_dictionary() -> TermDictionary:
    """The process-wide dictionary shared by graphs by default."""
    return _DEFAULT
