#!/usr/bin/env python3
"""
List the statements of ``src/pltt`` that a pytest run never executes.

    python3 tools/untested_lines.py [pytest arguments]     (default: tests)

Runs pytest in this process under ``sys.settrace``, tracing lines only in
frames of ``src/pltt``, then prints ``file:line statement`` for each
statement that never ran, file by file in line order. Docstrings and
``def``, ``class`` and ``import`` lines are not listed. A compound
statement counts as run when a line of its header ran, any other statement
when any of its lines ran. Tests that run pltt in a subprocess (the demos,
the startup tests, the CLI runs of ``subprocess``) are not traced, so the
lines only they reach are listed too. Tracing roughly doubles the run time
of the tests. Exits with pytest's exit code.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "pltt")
# definitions and imports run on import whatever the tests do, so they are not listed
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(path):
    """(first line, last line, first line's text) of each listed statement of a file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue     # a docstring, or a string standing alone
        body = getattr(node, "body", None)
        last = node.end_lineno
        if body:     # a compound statement: its header only
            last = max(node.lineno, body[0].lineno - 1)
        found.append((node.lineno, last, lines[node.lineno - 1].strip()))
    return sorted(found)


def _line_tracer(hit):
    """A frame's local trace function, adding each line it runs to ``hit``."""
    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return local
    return local


def trace(pytest_args):
    """Run pytest under the tracer; (its exit code, {file: lines that ran})."""
    import pytest

    ran = {}
    tracers = {}     # code object -> its local trace function, None outside the package

    def call(frame, event, arg):
        code = frame.f_code
        if code not in tracers:
            path = os.path.abspath(code.co_filename)
            tracers[code] = (_line_tracer(ran.setdefault(path, set()))
                             if os.path.dirname(path) == PACKAGE else None)
        return tracers[code]

    sys.path.insert(0, os.path.dirname(PACKAGE))
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv):
    code, ran = trace(argv or ["tests"])
    count = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        hit = ran.get(path, set())
        for first, last, text in statements(path):
            if not any(line in hit for line in range(first, last + 1)):
                print("%s:%d %s" % (os.path.relpath(path, ROOT), first, text))
                count += 1
    print("%d statements never ran; pltt run in a subprocess is not traced" % count,
          file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
