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
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

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
        assert "rewriting/redundancy.py" in kept
        assert "rewriting/perfect.py" in kept
