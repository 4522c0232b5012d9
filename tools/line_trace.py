"""List the statements of src/gradcorr that the test suite never executes.

Runs pytest in this process under sys.settrace, recording line events
in src/gradcorr frames only, then prints every statement none of whose
lines ran, as path:line: source.  Standard library only.  Tests that
run the package in a subprocess are not traced, so what only they reach
is listed too.

    python tools/line_trace.py                # the whole suite
    python tools/line_trace.py tests/test_cli.py -k params

Arguments go to pytest unchanged.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gradcorr"
_PREFIX = str(PACKAGE) + os.sep


def _tracer(hits: set):
    """A trace function for sys.settrace that adds (file, line) of every
    line event in a package frame to hits."""
    keep = {}           # co_filename -> inside the package

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        inside = keep.get(name)
        if inside is None:
            inside = keep[name] = os.path.abspath(name).startswith(_PREFIX)
        return local if inside else None

    return trace


def _code_lines(code) -> set:
    """Lines that carry bytecode in code and every code object nested in
    it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree) -> list:
    """(first, last) header lines of every statement but docstrings: the
    whole statement for a simple one, its decorators and header for a
    compound one."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = (body[0].lineno - 1 if isinstance(body, list) and body
                else node.end_lineno)
        spans.append((first, max(first, last)))
    return sorted(spans)


def unexecuted(hits) -> list:
    """(path, line, source) of each statement of the package with
    bytecode of its own and no executed line."""
    ran = {}
    for name, line in hits:
        ran.setdefault(os.path.abspath(name), set()).add(line)
    missed = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        code = _code_lines(compile(text, str(path), "exec"))
        done = ran.get(str(path), set())
        for first, last in _statements(ast.parse(text)):
            span = set(range(first, last + 1))
            if span & code and not span & done:
                missed.append((path.relative_to(ROOT), first,
                               source[first - 1].strip()))
    return missed


def main(argv) -> int:
    import pytest
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    hits = set()
    trace = _tracer(hits)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    missed = unexecuted(hits)
    for path, line, text in missed:
        print(f"{path}:{line}: {text}")
    print(f"{len(missed)} statement(s) of src/gradcorr never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
