"""Measure what the triple store costs for one generated graph.

Usage::

    python tools/store_footprint.py [--triples N] [--seed S]

Generates a ``random_entity_graph`` of about ``N`` triples in the
proportions of the ``local_mix`` benchmark workload (5/6 relation
triples over 8 predicates, 1/6 attribute triples, one entity per 3.6
triples) and prints, one ``name value unit`` line each:

* ``load_s`` — generating the graph: interning its vocabulary once,
  then one streaming ``add_id_triples`` per triple family (the triple
  set and the per-position counts, no ordering);
* ``first_read.<order>_ms`` — the first ``(s, ?, ?)`` / ``(?, p, ?)``
  read, which builds that ordering, and ``second_read.<order>_ms``, the
  same read again;
* ``rss_delta_mb`` — growth of the process's peak RSS over load plus
  both reads (dictionary and ``Term`` objects included);
* ``gc_tracked`` — containers the cycle collector now tracks on top of
  what it tracked before, and ``full_collection_ms`` — one
  ``gc.collect()`` with nothing else alive, i.e. what walking the bare
  graph costs;
* ``traced_bytes_per_triple`` — ``tracemalloc`` around a second load of
  the same graph plus the same two reads, the dictionary already warm:
  the store alone;
* ``<order>.keys`` / ``.runs`` / ``.inlined`` from
  :meth:`~repro.rdf.graph.Graph.index_stats` for every built ordering.

Nothing is asserted about the values; the exit code is 1 only when the
store is incoherent (``check_index_coherence``) or an ordering nobody
read was built.  Runs on a bare checkout: only the standard library
and ``src/`` are imported.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.rdf.graph import Graph  # noqa: E402
from repro.workload.generators import (  # noqa: E402
    GeneratorConfig,
    random_entity_graph,
)

#: The two access paths ``local_mix`` reads: by subject, by predicate.
READS = {"spo": (0, None, None), "pos": (None, 1, None)}


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_ms(graph: Graph, order: str) -> float:
    """Time one full read of the ``order`` shape anchored at triple 0."""
    anchor = next(graph.id_triples())
    key = [
        None if position is None else anchor[position]
        for position in READS[order]
    ]
    start = time.perf_counter()
    for _ in graph.triples_ids(*key):
        pass
    return (time.perf_counter() - start) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--triples", type=int, default=120_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    config = GeneratorConfig(
        entities=max(4, args.triples * 5 // 18),
        predicates=8,
        triples=args.triples * 5 // 6,
        attributes=args.triples // 6,
        seed=args.seed,
    )
    report = []

    gc.collect()
    tracked, rss = len(gc.get_objects()), peak_rss_mb()
    start = time.perf_counter()
    graph = random_entity_graph(config)
    report.append(("load_s", time.perf_counter() - start, "s"))
    for order in READS:
        report.append((f"first_read.{order}_ms", read_ms(graph, order), "ms"))
        report.append((f"second_read.{order}_ms", read_ms(graph, order), "ms"))
    report.append(("rss_delta_mb", peak_rss_mb() - rss, "MB"))
    gc.collect()
    report.append(("gc_tracked", len(gc.get_objects()) - tracked, "count"))
    start = time.perf_counter()
    gc.collect()
    pause = (time.perf_counter() - start) * 1e3
    report.append(("full_collection_ms", pause, "ms"))
    stats = graph.index_stats()
    ok = graph.check_index_coherence() and not stats["osp"]["built"]
    triples = len(graph)
    del graph

    tracemalloc.start()
    graph = random_entity_graph(config)
    for order in READS:
        read_ms(graph, order)
    traced, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    report.append(("traced_bytes_per_triple", traced / max(1, triples), "B"))

    print(f"{'triples':32s} {triples:14d} count")
    for name, value, unit in report:
        shown = f"{value:14d}" if unit == "count" else f"{value:14.3f}"
        print(f"{name:32s} {shown} {unit}")
    for order, numbers in stats.items():
        if numbers["built"]:
            for name in ("keys", "runs", "inlined"):
                print(f"{order + '.' + name:32s} {numbers[name]:14d} count")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
