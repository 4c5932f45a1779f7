"""A pytest plugin that fails the run when a statement of a ``routecoach`` function never runs.

Run it with the test directory on the import path::

    PYTHONPATH=src:tests python -m pytest -p statement_gate --ignore=tests/test_acceptance.py

A line tracer marks each line of ``src/routecoach`` that runs from the start
of the session to its end.  A statement counts when it sits in a function
body and has bytecode of its own: its whole extent for a simple statement,
the header (up to its first inner statement) for a compound one; a docstring
or a stub's ``...`` has none.  Module and class bodies, a ``__main__`` block
among them, are not counted: ``conftest.py`` imports the package before any
plugin can trace.  Each counted statement that no line of it ran fails the
session, unless ``ALLOWED`` names it.  An ``ALLOWED`` entry that names no
counted statement, or one that ran, fails it too, so the list stays exact.

Tests that run code in a subprocess add nothing here.  The marks are one
preallocated ``bytearray`` per file, so tracing allocates nothing that lasts
while a test measures its own memory with ``tracemalloc``.
"""
from __future__ import annotations

import ast
import importlib
import pkgutil
import sys
from pathlib import Path
from types import CodeType

# (file, the statement's first line, stripped): why no Tier-1 test runs it
ALLOWED = {
    ("losses.py", 'raise FloatingPointError("non-finite importance ratio")'):
        "numerical-fault guard: reached only when exp overflows",
    ("training.py", 'raise TrainingError(f"agent {tau_a[i].agent_id}: non-finite policy objective at epoch {k}")'):
        "numerical-fault guard: reached only by a non-finite policy objective",
    ("env.py", 'raise EnvError(f"expected {self.n_agents} actions, got {len(actions)}")'):
        "RouteEnv.step, which bench/ names and ROADMAP item 3 deletes",
    ("nets.py", 'raise NetError("empty batch")'):
        "nets.mlp_backward, which bench/ names and ROADMAP item 3 deletes",
    ("nets.py", 'raise NetError(f"upstream shape {upstream.shape} does not match batch/out dims")'):
        "nets.mlp_backward, which bench/ names and ROADMAP item 3 deletes",
}

_marks: dict[str, bytearray] = {}  # co_filename -> one flag per line
_problems: list[str] = []


def _trace_lines(frame, event, arg):
    if event == "line":
        _marks[frame.f_code.co_filename][frame.f_lineno] = 1
    return _trace_lines


def _trace_calls(frame, event, arg):
    return _trace_lines if frame.f_code.co_filename in _marks else None


def pytest_sessionstart(session):
    package = importlib.import_module("routecoach")
    for info in pkgutil.iter_modules(package.__path__):
        path = importlib.import_module(f"routecoach.{info.name}").__file__
        with open(path) as fh:
            _marks[path] = bytearray(fh.read().count("\n") + 2)
    sys.settrace(_trace_calls)


def _code_lines(code: CodeType) -> set[int]:
    """The lines that hold bytecode of ``code`` or of any function nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.Module) -> list[tuple[ast.stmt, range]]:
    """Each statement nested in a function of ``tree``, with the lines that are its own."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            # a docstring or a stub's ``...`` compiles to nothing of its own
            constant = isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
            if in_function and isinstance(child, ast.stmt) and not constant:
                body = getattr(child, "body", None)
                end = body[0].lineno if isinstance(body, list) and body else child.end_lineno + 1
                found.append((child, range(child.lineno, max(end, child.lineno + 1))))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


def _unexecuted(path: str) -> list[tuple[int, str]]:
    """(line, stripped first line) of each counted statement of the file ``path`` that never ran."""
    with open(path) as fh:
        source = fh.read()
    lines, marks = source.splitlines(), _marks[path]
    module = compile(source, path, "exec")
    code_lines = set().union(*(_code_lines(c) for c in module.co_consts if isinstance(c, CodeType)))
    return [(stmt.lineno, lines[stmt.lineno - 1].strip()) for stmt, own in _statements(ast.parse(source))
            if code_lines.intersection(own) and not any(marks[line] for line in own)]


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    missed = sorted((Path(path).name, line, text) for path in _marks for line, text in _unexecuted(path))
    named = {(name, text) for name, _, text in missed}
    _problems.extend(f"src/routecoach/{name}:{line}: never runs: {text}"
                     for name, line, text in missed if (name, text) not in ALLOWED)
    _problems.extend(f"statement_gate.ALLOWED names {name}: {text!r}, which runs or is not a counted statement"
                     for name, text in ALLOWED if (name, text) not in named)
    if _problems and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep("=", f"statement gate: {len(_problems)} problem(s), {len(ALLOWED)} allowed")
    for problem in _problems:
        terminalreporter.write_line(problem)
