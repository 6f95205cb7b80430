"""List the ``src/repro`` functions that tier-1, or the system, never enters.

Usage::

    python tools/coverage.py > never_entered.txt
    python tools/coverage.py --system > test_only.txt

Compiles every module under ``src/repro`` to enumerate its functions
(lambdas and comprehensions are skipped), then runs code in-process
under ``sys.settrace`` and ``threading.settrace`` with a tracer that
only records the code object of each ``call`` event.  Prints one sorted
``path::qualname`` line per function never entered; the runs' own
output goes to stderr, and the exit code is non-zero when a run failed.

Without flags the run is tier-1, and CI compares the output with
``tools/never_entered.txt``: a function nothing reaches is deleted, or
the file is updated on purpose.  ``--system`` runs the system's own
entry points instead (:data:`SYSTEM`: every benchmark workload at
``--quick``, untraced and traced, and the tools) and leaves out what
``tools/never_entered.txt`` already lists, so it prints the functions
that only tests enter.  CI compares that with ``tools/test_only.txt``,
whose lines carry a ``  # tag: reason`` suffix saying why each stays:

* ``paper`` — a numbered artefact of the paper, listed in
  ``docs/paper_map.md``;
* ``oracle`` — reference code that checks answers;
* ``robust`` — a path for an input no workload produces (a typed
  error, a fault, stale statistics, a query shape or strategy), held
  by the test the reason names;
* ``fixture`` — what tests build inputs with: a ``repro.workload``
  generator, or a reset of fresh labels;
* ``protocol`` — a dunder, accessor or rendering method of a value or
  operator type.

A function that fits none of them is deleted with its tests.
``tests/test_one_path.py::TestTestOnlyList`` checks the tags without
a tracer.
"""

import contextlib
import importlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
NEVER_ENTERED = ROOT / "tools" / "never_entered.txt"
SKIPPED = {"<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: The system's entry points: (directory, module, ``main`` arguments).
#: ``None`` calls a ``main`` that takes none; ``{out}`` is a scratch
#: directory.
SYSTEM = [
    ("benchmarks", "run", ["--workload", name, "--quick", "--trace", trace])
    for name in WORKLOADS
    for trace in ("0", "1")
]
SYSTEM += [
    ("tools", "paper_example", None),
    ("tools", "export_trace", ["--out-dir", "{out}"]),
    ("tools", "store_footprint", ["--triples", "2000"]),
    (
        "tools",
        "gc_rounds",
        ["--workload", "fed_bulk", "--rounds", "2", "--quick"],
    ),
]


def code_key(code):
    """A code object's identity across compilations of one file."""
    return code.co_filename, code.co_firstlineno, code.co_name


def defined_functions():
    """Map every function's :func:`code_key` to ``path::qualname``."""
    functions = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        todo = [compile(path.read_text(encoding="utf-8"), filename, "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_name in SKIPPED or code.co_name == "<module>":
                continue
            qualname = getattr(code, "co_qualname", code.co_name)
            label = f"{path.relative_to(ROOT).as_posix()}::{qualname}"
            functions[code_key(code)] = label
    return functions


def traced(run):
    """Call ``run()`` under a call-only tracer; return (status, codes)."""
    # Keyed by identity, not by equality: two code objects with one
    # name, first line and body compare equal across files (RelVar's
    # and GraphMappingAssertion's ``__hash__``), so a set kept only the
    # first entered.  Holding each code object keeps its id its own.
    entered = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        entered[id(code)] = code

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), list(entered.values())


def run_tier1():
    """Tier-1 under pytest; returns its exit code."""
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def run_system():
    """Every :data:`SYSTEM` entry point's ``main``; 1 when any failed."""
    failed = 0
    with tempfile.TemporaryDirectory() as out:
        for directory, name, argv in SYSTEM:
            sys.path.insert(0, str(ROOT / directory))
            module = importlib.import_module(name)
            if argv is None:
                status = module.main()
            else:
                status = module.main([arg.format(out=out) for arg in argv])
            if status:
                print(f"coverage: {name} {argv} exited {status}")
                failed = 1
    return failed


def main(argv):
    system = "--system" in argv
    if system and os.environ.get("PYTHONHASHSEED") != "0":
        # Hash randomisation reorders sets, and with them the code a run
        # may take; fix it the way benchmarks/run_all.py does, so that
        # two runs print one list.
        environment = {**os.environ, "PYTHONHASHSEED": "0"}
        command = [sys.executable, __file__, *argv]
        return subprocess.run(command, env=environment).returncode
    functions = defined_functions()
    status, entered = traced(run_system if system else run_tier1)
    for code in entered:
        functions.pop(code_key(code), None)
    labels = set(functions.values())
    if system:
        labels -= set(NEVER_ENTERED.read_text(encoding="utf-8").split())
    for label in sorted(labels):
        print(label)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
