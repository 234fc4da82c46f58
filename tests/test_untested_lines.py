import ast
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _body_lines(module, function):
    """The line numbers of the statements in a function's body, docstring excluded."""
    with open(os.path.join(ROOT, "src", "pltt", module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return set(range(node.body[1 if ast.get_docstring(node) else 0].lineno, node.end_lineno + 1))


def test_lists_the_statements_a_test_file_never_runs():
    # tests/test_polarization.py composes Mueller chains but never fits a descattering model
    run = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "untested_lines.py"),
                          os.path.join(ROOT, "tests", "test_polarization.py"), "-q",
                          "-p", "no:cacheprovider"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    listed = {}
    for module, line in re.findall(r"^src/pltt/(\w+\.py):(\d+) ", run.stdout, re.M):
        listed.setdefault(module, set()).add(int(line))
    assert listed["analysis.py"] & _body_lines("analysis.py", "fit_descatter")
    assert not listed.get("polarization.py", set()) & _body_lines("polarization.py", "compose")
    assert "subprocess is not traced" in run.stderr
