"""Mutation check of one module: does every operator and constant of it
fail a test when changed?

Each mutant changes one thing in the module: it flips one comparison
(< and <=, > and >=, == and !=, is and is not, in and not in), swaps one
arithmetic operator (+ and -, * and /, // to /, % to //, ** to *, & and
|, ^ to |), turns one unary - or ~ into +, or perturbs one numeric
constant (an int by +1, a float by one part in a million, 0.0 to 1e-6).
The module is rewritten from its syntax tree, so comments and layout
are not kept.  Each mutant runs the given pytest selection, stopping at
the first failure, in one temporary copy of src/, tests/ and tools/;
a mutant that passes it survives and is printed as path:line:col, the
change and the expression it is in.  Standard library only.

    python tools/mutate.py src/gradcorr/special.py \\
        tests/test_golden.py tests/test_special.py

The first argument is the module, the rest go to pytest: put the
cheapest killers first.  The mutants run one at a time.  Exit status: 0
if no mutant survives, 1 if one does, 2 if the unmutated copy fails.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
         ast.Div: ast.Mult, ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv,
         ast.Pow: ast.Mult, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
         ast.BitXor: ast.BitOr, ast.USub: ast.UAdd, ast.Invert: ast.UAdd}


def _perturbed(value):
    if isinstance(value, int):
        return value + 1
    return value * (1.0 + 1e-6) if value else 1e-6


def mutants(tree):
    """(node, description, apply, undo) of every mutant of tree, in
    source order; apply and undo change the node in place."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAP:
                    found.append(_op_mutant(node, node.ops, i))
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp)):
            if type(node.op) in _SWAP:
                found.append(_op_mutant(node, node, None))
        elif (isinstance(node, ast.Constant)
              and type(node.value) in (int, float)):
            found.append(_constant_mutant(node))
    return sorted(found, key=lambda m: (m[0].lineno, m[0].col_offset))


def _op_mutant(node, holder, key):
    """The swap of the operator holder[key], for the ops list of a
    comparison, or of holder.op."""
    chain = isinstance(holder, list)
    old = holder[key] if chain else holder.op
    new = _SWAP[type(old)]()

    def put(op):
        if chain:
            holder[key] = op
        else:
            holder.op = op
    what = f"{type(old).__name__} -> {type(new).__name__}"
    if chain and len(holder) > 1:
        what += f" (comparison {key + 1} of {len(holder)})"
    return node, what, lambda: put(new), lambda: put(old)


def _constant_mutant(node):
    old = node.value
    new = _perturbed(old)
    return (node, f"{old!r} -> {new!r}",
            lambda: setattr(node, "value", new),
            lambda: setattr(node, "value", old))


def _run(tree_dir: Path, pytest_args, timeout):
    """pytest's exit status in tree_dir, or None past timeout seconds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree_dir / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *pytest_args], cwd=tree_dir, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def main(argv) -> int:
    if not argv:
        print(__doc__)
        return 2
    module = (ROOT / argv[0]).resolve()
    rel = module.relative_to(ROOT)
    tree = ast.parse(module.read_text())
    found = mutants(tree)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests", "tools"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / rel
        target.write_text(ast.unparse(tree))
        start = time.perf_counter()
        if _run(copy, argv[1:], None) != 0:
            print("the unmutated module fails the selection")
            return 2
        timeout = 10 * (time.perf_counter() - start) + 30
        survivors, slow = [], 0
        for node, what, apply, undo in found:
            where = f"{rel}:{node.lineno}:{node.col_offset + 1}"
            context = ast.unparse(node)[:70]
            apply()
            try:
                target.write_text(ast.unparse(tree))
            finally:
                undo()
            status = _run(copy, argv[1:], timeout)
            slow += status is None
            if status == 0:
                survivors.append(f"{where}: {what} in `{context}`")
                print(f"survived {survivors[-1]}", flush=True)
    print(f"{len(found)} mutants of {rel}: {len(found) - len(survivors)} "
          f"killed ({slow} by timeout), {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
