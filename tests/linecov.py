"""Line coverage gate for ``src/thinkctl``, on the standard library alone.

Run from anywhere, with any pytest arguments after the script's name
(with none, pytest runs its ``testpaths``, the tier-1 suite):

    python tests/linecov.py [pytest args]

It runs ``pytest.main`` under ``sys.settrace`` and ``threading.settrace``,
so the worker threads of a pool are traced too. A
file's executable lines are the line numbers that ``co_lines()`` gives for
its code objects, nested ones included. It exits 1 listing every line that
no test executed, and also when pytest fails or an exemption below no
longer matches. Three kinds of line are exempt:

- the body of ``if TYPE_CHECKING:``, which only a type checker reads;
- the body of ``if __name__ == "__main__":``;
- the lines in ``SUBPROCESS_ONLY``, which only a fresh interpreter runs.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

TESTS = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
PACKAGE = os.path.join(SRC, "thinkctl")

# (file, first words of the statement, what runs it): a compound
# statement's body is exempt, a simple statement itself
SUBPROCESS_ONLY = (
    (
        "cli.py",
        "def main(",
        "tests/test_cli.py::test_module_entry_point_runs_the_cli and CI's 'Console script' step",
    ),
    ("__init__.py", "raise AttributeError(", "tests/test_cli.py::test_public_names_are_the_objects_of_their_modules"),
    ("__init__.py", "def __dir__(", "tests/test_cli.py::test_public_names_are_the_objects_of_their_modules"),
)


def executable_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def _is_guard(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and [type(op) for op in test.ops] == [ast.Eq]
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == "__main__"
    )


def _span(statements: list[ast.stmt]) -> set[int]:
    return set(range(statements[0].lineno, statements[-1].end_lineno + 1))


def exempt_lines(name: str, source: str, problems: list[str]) -> set[int]:
    """The exempt lines of one file; an exemption that matches no single
    statement of it is added to ``problems``."""
    lines = source.splitlines()
    exempt: set[int] = set()
    wanted = [(prefix, ran_by) for file, prefix, ran_by in SUBPROCESS_ONLY if file == name]
    found = {prefix: [] for prefix, _ in wanted}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and _is_guard(node.test):
            exempt |= _span(node.body)
        if isinstance(node, ast.stmt):
            for prefix in found:
                if lines[node.lineno - 1].lstrip().startswith(prefix):
                    found[prefix].append(node)
    for prefix, ran_by in wanted:
        if len(found[prefix]) != 1:
            problems.append(f"{name}: the exemption {prefix!r} ({ran_by}) matches {len(found[prefix])} statements, not 1")
            continue
        node = found[prefix][0]
        exempt |= _span(node.body) if hasattr(node, "body") else _span([node])
    return exempt


def trace(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` under the tracer; return its exit code and
    the executed lines of each package file, by real path."""
    hits: dict[str, set[int]] = {}
    local_of: dict[str, object] = {}

    def local_for(filename: str):
        if not os.path.realpath(filename).startswith(PACKAGE + os.sep):
            return None
        lines = hits.setdefault(os.path.realpath(filename), set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return local_of[filename]
        except KeyError:
            local = local_of[filename] = local_for(filename)
            return local

    sys.path.insert(0, SRC)
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def main(args: list[str]) -> int:
    os.chdir(os.path.dirname(TESTS))  # where pytest finds its settings and testpaths
    code, hits = trace(args)
    problems: list[str] = []
    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        exempt = exempt_lines(name, source, problems)
        executed = hits.get(os.path.realpath(path), set())
        unrun = sorted(executable_lines(compile(source, path, "exec")) - exempt - executed)
        missed += len(unrun)
        problems += [f"src/thinkctl/{name}:{line}: never executed: {source.splitlines()[line - 1].strip()}" for line in unrun]
        problems += [f"src/thinkctl/{name}:{line}: exempt, but executed" for line in sorted(exempt & executed)]
    for problem in problems:
        print(problem)
    if code != 0:
        print(f"linecov: pytest exited {code}")
        return 1
    print(f"linecov: {len(problems)} problems, {missed} executable lines of src/thinkctl never executed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
