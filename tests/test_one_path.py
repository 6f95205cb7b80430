"""One path per job, checked in tier-1.

Each test names a job the library does in exactly one place and fails
when a second copy of it comes back, by reading the source: a pattern
here is the contract, and a change that needs to break it changes this
file in the open.

* **One answer boundary.**  Both routes to certain answers — the chase
  (:mod:`repro.peers.certain_answers`) and the perfect rewriting
  (:mod:`repro.rewriting.perfect`) — turn ID rows into answer tuples in
  one function, ``answer_rows``: no other function of either module
  decodes a dictionary ID or builds a row tuple element by element.
  The rewriting reads the stored database the system keeps
  (``RPS.stored_graph``/``RPS.stored_quotient``), never a fresh
  ``stored_database()`` union per call.
* **One quotient.**  Both routes work modulo the one class map of
  ``≡ₑ`` the system keeps (``RPS.class_map``): only ``peers/system.py``
  builds it, Algorithm 1 starts from the kept quotient of D instead of
  reading the peer graphs, and no second quotient object comes back.
* **One prepared rewriting.**  ``rewriting/perfect.py`` rewrites a
  SELECT query and plans its disjuncts only in the function that fills
  the entry the system keeps (``RPS.prepared_rewritings``), so no
  second, unkept certain-answer path can come back.
* **One prologue.**  A SPARQL parse starts from the one default
  namespace manager ``sparql/parser.py`` builds at import and copies it
  only at a text's first ``PREFIX``: nothing else in ``sparql/``
  constructs a ``NamespaceManager``.
* **One path per job in the federation and the runtime** (one bench
  system, one replay loop, one planner loop, pulls read in place, one
  result boundary, one row key, packed dedupe keys, one bound-join
  mode, one batching path, no runtime dependency, one clock): text
  searches over the tree, a pattern that must not come back or must
  stay in one place.  Each pattern is bracketed where the search
  covers this file, so that it cannot match itself.
* **Reached from the system.**  ``tools/test_only.txt`` lists each
  function only tests enter, tagged with why it stays; the deleted
  second entry points and serializers may not come back.
* **An independent replay oracle.**  ``tests/replay_oracle.py``, which
  the runtime's replay is held to, imports nothing from ``repro``; the
  replay options no workload, tool or example set may not come back.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: What building, testing and running leave in the tree (the
#: ``.gitignore``): no text search reads it.
IGNORED_DIRS = {"__pycache__", ".pytest_cache", ".eggs", "build", "dist"}

#: The modules of both certain-answer routes, and their one boundary.
ANSWER_MODULES = ("peers/certain_answers.py", "rewriting/perfect.py")
BOUNDARY = "answer_rows"


def _parse(relative):
    return ast.parse((SRC / relative).read_text(), filename=relative)


def _outside(tree, name):
    """Every node of ``tree`` that is not inside the function ``name``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == name:
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_call_to(node, name):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    )


def _calls(nodes, names):
    """The calls among ``nodes`` to a function or method in ``names``."""
    for node in nodes:
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in names:
                yield node.lineno, name


def _row_builders(tree):
    """Decoding and element-wise row tuples outside the boundary."""
    comprehensions = (ast.ListComp, ast.SetComp, ast.GeneratorExp)
    for node in _outside(tree, BOUNDARY):
        if isinstance(node, ast.Attribute) and node.attr in (
            "decode",
            "decode_id",
        ):
            yield node.lineno, f"reads .{node.attr}"
        elif _is_call_to(node, "tuple") and any(
            isinstance(arg, comprehensions) or _is_call_to(arg, "map")
            for arg in node.args
        ):
            yield node.lineno, "builds a tuple element by element"
        elif isinstance(node, comprehensions) and _is_call_to(
            node.elt, "tuple"
        ):
            yield node.lineno, "builds one tuple per row"


class TestOneAnswerBoundary:
    def test_the_boundary_exists_in_the_chase_route(self):
        tree = _parse("peers/certain_answers.py")
        names = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        assert BOUNDARY in names

    def test_only_the_boundary_decodes_or_builds_answer_rows(self):
        offences = [
            f"{module}:{line}: {what}"
            for module in ANSWER_MODULES
            for line, what in _row_builders(_parse(module))
        ]
        assert offences == []

    def test_both_routes_call_the_boundary(self):
        for module in ANSWER_MODULES:
            calls = [
                node
                for node in ast.walk(_parse(module))
                if _is_call_to(node, BOUNDARY)
            ]
            assert calls, module

    def test_rewriting_reads_the_kept_stored_graph(self):
        fresh, kept = [], []
        for path in sorted((SRC / "rewriting").glob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            for node in ast.walk(_parse(relative)):
                if isinstance(node, ast.Attribute):
                    if node.attr == "stored_database":
                        fresh.append(f"{relative}:{node.lineno}")
                    elif node.attr in ("stored_graph", "stored_quotient"):
                        kept.append(relative)
        assert fresh == []
        assert "rewriting/limits.py" in kept
        assert "rewriting/perfect.py" in kept


class TestOneQuotient:
    def test_no_second_quotient_object(self):
        assert grep(r"Equivalence[Q]uotient|_stored_id[_]triples",
                    "src", "tests", "tools", "docs", ".claude") == []

    def test_only_the_system_builds_the_class_map(self):
        calls = []
        for path in sorted(SRC.rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            if relative == "peers/system.py":
                continue
            calls.extend(
                f"{relative}:{line}: {name}"
                for line, name in _calls(
                    ast.walk(_parse(relative)),
                    ("canonical_map", "class_members"),
                )
            )
        assert calls == []

    def test_the_chase_starts_from_the_kept_quotient(self):
        reads, kept = [], False
        for node in ast.walk(_parse("peers/chase.py")):
            if isinstance(node, ast.Attribute):
                if node.attr in (
                    "peers", "peer_names", "graph", "stored_database"
                ):
                    reads.append(f"peers/chase.py:{node.lineno}: .{node.attr}")
                kept = kept or node.attr == "stored_quotient"
        assert reads == []
        assert kept


#: The one function of ``rewriting/perfect.py`` that rewrites and plans.
PREPARE = "_prepared"


class TestOnePreparedRewriting:
    WORK = ("rewrite_ucq", "build_batch_plan", "disjunct_plan")

    def test_only_the_kept_entry_rewrites_or_plans(self):
        tree = _parse("rewriting/perfect.py")
        outside = [
            f"rewriting/perfect.py:{line}: {name}"
            for line, name in _calls(
                _outside(tree, PREPARE), self.WORK + ("prepared_rewritings",)
            )
        ]
        assert outside == []
        (prepare,) = [
            node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == PREPARE
        ]
        inside = {name for _, name in _calls(ast.walk(prepare), self.WORK)}
        assert inside == {"rewrite_ucq", "disjunct_plan"}


class TestOnePrologue:
    def test_only_the_module_level_default_is_constructed(self):
        calls, defaults = [], []
        for path in sorted((SRC / "sparql").rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            tree = _parse(relative)
            module_level = {
                id(node.value)
                for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name == "NamespaceManager":
                        found = f"{relative}:{node.lineno}"
                        if id(node) in module_level:
                            defaults.append(found)
                        else:
                            calls.append(found)
        assert calls == []
        assert [hit.split(":")[0] for hit in defaults] == ["sparql/parser.py"]


def _files(paths):
    """The files under ``paths`` (relative to the repository root)."""
    for relative in paths:
        path = ROOT / relative
        if path.is_file():
            yield path
        elif path.is_dir():
            for child in sorted(path.rglob("*")):
                inside = child.relative_to(path).parts
                if child.is_file() and not (
                    IGNORED_DIRS.intersection(inside)
                    or any(part.endswith(".egg-info") for part in inside)
                    or child.suffix in (".pyc", ".pyo")
                ):
                    yield child


def grep(pattern, *paths, exclude=()):
    """Every line of a text file under ``paths`` that ``pattern``
    matches, as ``path:line: text`` (``git grep -n`` over the tree)."""
    regex = re.compile(pattern)
    skipped = {ROOT / relative for relative in exclude}
    hits = []
    for path in _files(paths):
        if path in skipped:
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue
        relative = path.relative_to(ROOT).as_posix()
        hits.extend(
            f"{relative}:{number}: {line.strip()}"
            for number, line in enumerate(text.splitlines(), 1)
            if regex.search(line)
        )
    return hits


def files_with(pattern, *paths, exclude=()):
    """Matching lines per file (``git grep -c``), files in path order."""
    counts = {}
    for hit in grep(pattern, *paths, exclude=exclude):
        relative = hit.split(":", 1)[0]
        counts[relative] = counts.get(relative, 0) + 1
    return counts


class TestOnePathPerJob:
    """The federation's and the runtime's one-path contracts."""

    def test_one_bench_system(self):
        # The wall clock is benchmarks/ (BENCHMARK.json), the simulated
        # clock the two goldens under tests/, behaviour invariants
        # tier-1; no second harness may come back.
        assert grep(r"repro[.]bench|BENCH[_]core", "src", "tests", "docs",
                    "README.md", ".github", ".claude") == []

    def test_one_replay_loop(self):
        # A solo query is a one-tenant QueryScheduler run; the second
        # replay (runtime/multi.py beside OverlapScheduler's) may not
        # come back.
        assert not (SRC / "runtime" / "multi.py").exists()
        assert list(files_with(r"def _replay\(", "src")) == [
            "src/repro/runtime/scheduler.py"
        ]

    def test_one_planner_loop(self):
        # adaptive and parallel are one incremental loop
        # (FederatedPlanner.run_incremental) over units; a second copy
        # with its own decide() call may not come back.
        assert grep(r"def run_adaptive", "src") == []
        assert files_with(r"cost_model[.]decide\(", "src") == {
            "src/repro/federation/plan.py": 1
        }

    def test_pulls_read_in_place(self):
        # A pull is charged, then read through the peer graph's own
        # indexes; no per-execution copy of a relation may come back.
        assert grep(r"def relation_ids|cache[.]graph", "src") == []
        assert grep(r"add_id_triples", "src/repro/federation") == []

    def test_one_result_boundary(self):
        # Both engines finish a plan with the same two solution-modifier
        # functions; a federated plan only produces solutions.
        assert grep(
            r"class ProjectDedupe|class SliceNode|class TopKNode|distinct = ",
            "src/repro/federation",
        ) == []
        assert list(
            files_with(r"batch_slice\(|batch_top_k\(", "src",
                       exclude=["src/repro/sparql/batch.py"])
        ) == ["src/repro/federation/executor.py", "src/repro/sparql/engine.py"]

    def test_one_row_key(self):
        # The result boundary dedupes and sorts one packed rank int per
        # row; per-row rank tuples and tied ranks may not come back.
        assert grep(r"rank[_]keys|rank[-]tuple|share[ ]a rank",
                    "src", "tests", "docs", ".claude") == []

    def test_packed_dedupe_keys(self):
        # Keep-first deduplication keys each row by one packed int
        # (sparql.batch.pack_ids), which the collector does not track;
        # sets of row tuples may not come back to the federation.
        assert grep(r"Set\[Row\]", "src/repro/federation") == []
        assert grep(r"pack_ids\(", "src/repro/federation/bindings.py")

    def test_one_bound_join_mode(self):
        # Bound joins are pipelined; the wave-barrier knob may not
        # come back.
        assert grep(
            r'streaming *[:=]|[.]streaming\b|mode[=]waves|["]waves["]',
            "src", "tests", "tools",
        ) == []

    def test_one_batching_path(self):
        # Every bound join slices its input in arrival order; a second
        # chunk path that sorts rows by term ID may not come back.
        assert grep(r"_chunks_eager|_batch_order|canonical_key|ctx[.]demand",
                    "src") == []

    def test_no_runtime_dependency(self):
        # src/ is stdlib-only: weak acyclicity is a plain reachability
        # check (tgd/classes.py), and the four modules nothing called
        # may not come back.
        assert grep(r"networkx", "src", "setup.py") == []
        for gone in ("rdf/canonical.py", "rdf/dataset.py",
                     "workload/people_domain.py", "peers/topology.py"):
            assert not (SRC / gone).exists(), gone

    def test_one_clock(self):
        # Every strategy records onto a QueryScheduler tenant (serial
        # unless parallel) and the replay settles elapsed time; the
        # serial elapsed clock and the interpreter's span path may not
        # come back.  Only planning-time refreshes (network.py) and the
        # replayed makespan (executor.py's _run_round) add to it.
        federation = "src/repro/federation"
        assert grep(r"serial(=| *:)", f"{federation}/network.py") == []
        assert grep(r"tracer[.]record", f"{federation}/plan.py") == []
        assert grep(r"scheduler is (not )?None", federation) == []
        assert files_with(r"elapsed_seconds \+=", "src") == {
            f"{federation}/executor.py": 1,
            f"{federation}/network.py": 1,
        }
        executor = f"{federation}/executor.py"
        assert any(
            "tenant_makespan" in hit
            for hit in grep(r"elapsed_seconds \+=", executor)
        )


def _coverage_tool():
    """``tools/coverage.py``, loaded by path (``tools/`` is no package)."""
    spec = importlib.util.spec_from_file_location(
        "coverage_tool", ROOT / "tools" / "coverage.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The tags of ``tools/test_only.txt``; the tool's docstring defines them.
TEST_ONLY_TAGS = ("paper", "oracle", "robust", "fixture", "protocol")
TEST_ONLY_LINE = re.compile(r"^(\S+::\S+)  # (\w+): (.+)$")


class TestTestOnlyList:
    """``tools/test_only.txt``: what only tests enter, and why it stays.

    CI diffs the list with ``tools/coverage.py --system``; these checks
    need no tracer: each line names a live function, carries one tag
    and a reason, and no line is also in ``tools/never_entered.txt``.
    """

    @staticmethod
    def _lines():
        text = (ROOT / "tools" / "test_only.txt").read_text(encoding="utf-8")
        return text.splitlines()

    def test_each_line_is_tagged_with_a_reason(self):
        for line in self._lines():
            match = TEST_ONLY_LINE.match(line)
            assert match, line
            assert match.group(2) in TEST_ONLY_TAGS, line
            assert match.group(3).strip(), line

    def test_each_line_names_a_defined_function(self):
        defined = set(_coverage_tool().defined_functions().values())
        labels = [line.split("  #", 1)[0] for line in self._lines()]
        assert labels == sorted(set(labels))
        assert [label for label in labels if label not in defined] == []

    def test_robust_lines_name_their_test(self):
        # "robust: <what>; tests/<file>.py::[<Class>::]<test>"
        for line in self._lines():
            tag, reason = TEST_ONLY_LINE.match(line).group(2, 3)
            if tag != "robust":
                continue
            held = reason.rsplit("; ", 1)[-1]
            path, _, name = held.partition("::")
            assert path.startswith("tests/") and name, line
            source = (ROOT / path).read_text(encoding="utf-8")
            assert f"def {name.rsplit('::', 1)[-1]}(" in source, line

    def test_no_line_is_also_never_entered(self):
        never = ROOT / "tools" / "never_entered.txt"
        never_entered = set(never.read_text(encoding="utf-8").split())
        labels = {line.split("  #", 1)[0] for line in self._lines()}
        assert labels & never_entered == set()

    def test_paper_lines_are_in_the_paper_map(self):
        # A `paper` line names a function docs/paper_map.md lists, or a
        # method or local function of one.
        paper_map = (ROOT / "docs" / "paper_map.md").read_text(encoding="utf-8")
        for line in self._lines():
            label, tag = TEST_ONLY_LINE.match(line).group(1, 2)
            if tag != "paper":
                continue
            module, qualname = label[len("src/repro/"):].split("::")
            parts = qualname.split(".")
            names = {".".join(parts[:n]) for n in range(1, len(parts) + 1)}
            assert any(f"`{module}::{name}`" in paper_map for name in names), line

    def test_deleted_entry_points_stay_gone(self):
        # The second RDF tokenizer, the one-call wrappers around
        # execute, the GPQ-to-SPARQL renderers and the engine's own
        # blank filter (certain_answers.answer_rows is the one Q_D).
        assert not (SRC / "rdf" / "turtle.py").exists()
        assert not (SRC / "rdf" / "ntriples.py").exists()
        names = (
            "graph_from_turtle", "serialize_ntriples", "ask_text",
            "execute_federated", "gpq_to_sparql", "sparql_union_to_gpqs",
            "include_blanks",
        )
        pattern = r"\b(" + "|".join(names) + r")\b"
        assert grep(pattern, "src", "docs", "README.md", ".claude") == []


#: The replay options deleted once the oracle pinned the replay: lane
#: overrides per endpoint and the admission cap with its two readings.
GONE_REPLAY_OPTIONS = (
    "per_endpoint_concurrency", "max_active", "admission_wait",
    "active_peak",
)


def _words(tree):
    """Every identifier and every word of a string constant in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from re.findall(r"\w+", node.value)
        for field in ("id", "attr", "arg", "name"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                yield value


class TestTheReplayOracle:
    """The oracle stays independent, and the deleted options stay gone."""

    def test_the_oracle_imports_nothing_from_repro(self):
        path = ROOT / "tests" / "replay_oracle.py"
        imported = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.append(node.module)
        # conftest imports repro, so the oracle may not read it either.
        assert [
            name for name in imported
            if name.split(".")[0] in ("repro", "conftest")
        ] == []

    def test_no_source_names_a_deleted_replay_option(self):
        hits = [
            f"{path.relative_to(ROOT).as_posix()}: {word}"
            for path in sorted(SRC.rglob("*.py"))
            for word in _words(ast.parse(path.read_text(encoding="utf-8")))
            if word in GONE_REPLAY_OPTIONS
        ]
        assert hits == []
        pattern = r"\b(" + "|".join(GONE_REPLAY_OPTIONS) + r")\b"
        assert grep(pattern, "docs", "README.md", ".claude") == []
