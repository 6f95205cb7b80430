"""Keep-first deduplication on packed int keys.

``sparql.batch.pack_ids`` turns a row of term IDs into one int, and
``federation.bindings.fresh_rows`` dedupes chunks on those ints.  The
unit tests hold the keys to row identity and ``fresh_rows`` to an
inlined copy of the tuple-keyed algorithm it replaced.  The
differential test builds peers whose triples overlap, so the
federation drops real cross-peer duplicates — rows with ``UNBOUND``
cells among them — under every strategy, and holds the answers to the
local engine and the simulated-clock counters to pinned values.
"""

import random
from itertools import product

import pytest

import repro.federation.plan as plan
from repro.federation import STRATEGIES, FederatedExecutor
from repro.federation.bindings import fresh_rows
from repro.peers.system import RPS
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import Triple
from repro.sparql.batch import UNBOUND, Batch, pack_ids
from repro.sparql.engine import execute

A, B, C = SCHEMA = tuple(Variable(name) for name in "abc")


# ---------------------------------------------------------------------------
# pack_ids
# ---------------------------------------------------------------------------


def keys_of(rows, width, base):
    columns = [[row[k] for row in rows] for k in range(width)]
    return pack_ids(columns, len(rows), base)


def test_distinct_rows_get_distinct_keys_and_equal_rows_equal_keys():
    cells = (0, 1, 2, UNBOUND)
    rows = list(product(cells, repeat=3))
    keys = keys_of(rows + rows[::-1], 3, 4)
    assert len(set(keys)) == len(rows)
    assert keys[: len(rows)] == keys[len(rows) :][::-1]


def test_unbound_cells_are_not_confused_across_positions():
    rows = [(UNBOUND, 5), (5, UNBOUND), (UNBOUND, UNBOUND), (5, 5)]
    keys = keys_of(rows, 2, 7)
    assert len(set(keys)) == len(rows)
    assert keys[2] == 6 * 7 + 6  # the top digit in every position


def test_zero_and_one_column_batches_behave_like_short_tuples():
    assert pack_ids([], 3, 5) == [0, 0, 0]  # every () row is equal
    assert pack_ids([], 0, 5) == []
    column = [3, UNBOUND, 3, 0]
    keys = pack_ids([column], 4, 5)
    assert keys[0] == keys[2] and len(set(keys)) == 3
    assert column == [3, UNBOUND, 3, 0]  # the batch's column is untouched


# ---------------------------------------------------------------------------
# fresh_rows against the tuple-keyed algorithm
# ---------------------------------------------------------------------------


def tuple_fresh_rows(batch, origins, seen):
    """The tuple-keyed keep-first dedupe ``fresh_rows`` replaced."""
    rows = list(batch.rows())
    unique = dict.fromkeys(rows)
    if len(unique) == len(rows) and seen.isdisjoint(unique):
        seen.update(unique)
        return batch, origins
    keep = []
    for i, row in enumerate(rows):
        if row not in seen:
            seen.add(row)
            keep.append(i)
    return batch.gather(keep), [origins[i] for i in keep]


def random_chunk(rng, schema, values, earlier):
    """Rows over random sub-domains of ``schema``, some repeated from
    this chunk or an earlier one."""
    rows = []
    for _ in range(rng.randint(0, 9)):
        if earlier and rng.random() < 0.3:
            rows.append(rng.choice(earlier))
            continue
        domain = set(rng.sample(schema, rng.randint(0, len(schema))))
        rows.append(
            tuple(
                rng.randrange(values) if var in domain else UNBOUND
                for var in schema
            )
        )
    if rows and rng.random() < 0.5:
        rows.append(rng.choice(rows))
    columns = [[row[k] for row in rows] for k in range(len(schema))]
    return rows, Batch(schema, columns, len(rows))


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("schema", (SCHEMA, (B,), ()), ids=len)
def test_fresh_rows_keeps_what_the_tuple_keyed_dedupe_keeps(seed, schema):
    rng = random.Random(seed)
    values = rng.choice((1, 3, 40))
    base = values + 1 + rng.choice((0, 0, 1000))  # the least radix, or more
    seen, oracle_seen, earlier = set(), set(), []
    for index in range(6):
        rows, batch = random_chunk(rng, schema, values, earlier)
        origins = [(index, i) for i in range(len(rows))]
        got, got_origins = fresh_rows(batch, origins, seen, base)
        want, want_origins = tuple_fresh_rows(batch, origins, oracle_seen)
        assert list(got.rows()) == list(want.rows())
        assert got.n == want.n and got_origins == want_origins
        assert len(seen) == len(oracle_seen)
        earlier.extend(rows)


# ---------------------------------------------------------------------------
# Real cross-peer duplicates, end to end
# ---------------------------------------------------------------------------

EX = "http://example.org/dedupe/"
KNOWS, LIKES, AGE = (IRI(EX + name) for name in ("knows", "likes", "age"))

#: A UNION whose first and last branches overlap (the union schema pads
#: their rows with an unbound ``?z``), an OPTIONAL some rows miss, and
#: a two-hop join whose both hops fan out to every peer.
TEXT = (
    f"SELECT ?x ?y ?z ?a WHERE {{ {{ "
    f"{{ ?x {KNOWS.n3()} ?y . ?y {KNOWS.n3()} ?x }} "
    f"UNION {{ ?x {LIKES.n3()} ?z }} "
    f"UNION {{ ?x {KNOWS.n3()} ?y }} }} "
    f"OPTIONAL {{ ?x {AGE.n3()} ?a }} }}"
)

#: ``(messages, transfer_units)`` per strategy, from the commit whose
#: dedupe still keyed rows by ID tuples.
PINNED = {
    "naive": (21, 207),
    "bound": (20, 167),
    "adaptive": (8, 81),
    "parallel": (8, 81),
    "collect": (3, 81),
}


def overlapping_system(seed=3):
    """Three peers drawing their facts from one shared pool.

    Every peer stores ``knows`` edges and ``age`` attributes, two of
    them ``likes`` edges; each fact sits at one to three peers, and
    some entities have no age.  A private dictionary pins the IDs.
    """
    rng = random.Random(seed)
    people = [IRI(f"{EX}p{i}") for i in range(10)]
    pool = [Triple(rng.choice(people), KNOWS, rng.choice(people))
            for _ in range(30)]
    pool += [Triple(rng.choice(people), LIKES, rng.choice(people))
             for _ in range(12)]
    pool += [Triple(p, AGE, Literal(str(20 + i)))
             for i, p in enumerate(people[:6])]
    names = ("peer0", "peer1", "peer2")
    held = {name: [] for name in names}
    for triple in pool:
        owners = names[1:] if triple.predicate == LIKES else names
        for name in rng.sample(owners, rng.randint(1, len(owners))):
            held[name].append(triple)
    dictionary = TermDictionary()
    graphs = {}
    for name in names:
        graph = Graph(name=name, dictionary=dictionary)
        for triple in held[name]:
            graph.add(triple)
        graphs[name] = graph
    return RPS.from_graphs(graphs)


def test_cross_peer_duplicates_are_dropped_under_every_strategy(monkeypatch):
    system = overlapping_system()
    expected = set(execute(system.stored_database(), TEXT).rows)
    assert any(None in row for row in expected)  # UNION and OPTIONAL pad
    dropped = {"rows": 0, "unbound": 0}

    def counting(batch, origins, seen, base):
        out = fresh_rows(batch, origins, seen, base)
        dropped["rows"] += batch.n - out[0].n
        dropped["unbound"] += sum(
            UNBOUND in row for row in batch.rows()
        ) - sum(UNBOUND in row for row in out[0].rows())
        return out

    monkeypatch.setattr(plan, "fresh_rows", counting)
    executor = FederatedExecutor(system)
    counters = {}
    for strategy in STRATEGIES:
        dropped.update(rows=0, unbound=0)
        result = executor.execute(TEXT, strategy)
        assert result.rows == expected, strategy
        assert dropped["rows"] > 0 and dropped["unbound"] > 0, strategy
        counters[strategy] = (
            result.stats.messages,
            result.stats.transfer_units,
        )
    assert counters == PINNED
