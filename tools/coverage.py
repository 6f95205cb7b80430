"""List the functions in ``src/repro`` that tier-1 never enters.

Usage::

    python tools/coverage.py > never_entered.txt

Compiles every module under ``src/repro`` to enumerate its functions
(lambdas and comprehensions are skipped), then runs tier-1 in-process
under ``sys.settrace`` and ``threading.settrace`` with a tracer that
only records the code object of each ``call`` event.  Prints one sorted
``path::qualname`` line per function never entered; pytest's report
goes to stderr and its exit code is the tool's.  CI compares the output
with ``tools/never_entered.txt``: a function nothing reaches is deleted,
or the file is updated on purpose.
"""

import contextlib
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SKIPPED = {"<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


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


def run_tier1():
    """Run tier-1 under a call-only tracer; return (exit code, codes)."""
    import pytest

    entered = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(
                ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
            )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), entered


def main():
    functions = defined_functions()
    status, entered = run_tier1()
    for code in entered:
        functions.pop(code_key(code), None)
    for label in sorted(functions.values()):
        print(label)
    return status


if __name__ == "__main__":
    sys.exit(main())
