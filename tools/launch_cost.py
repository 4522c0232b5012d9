"""Time what each gradcorr module costs a fresh `gradcorr` launch.

    python tools/launch_cost.py test --model bs --data x.txt --theta10 1
    python tools/launch_cost.py --runs 15 coeffs --model exponential

Runs the gradcorr command line that follows the options in fresh
interpreters, its output discarded, and prints for each gradcorr module
the command loads the median over the runs of these times in ms:

    code     compiling the module's source, or reading its cached bytecode;
    records  building the classes it defines, dataclass processing
             included;
    exec     the rest of its body, without the modules it imports;
    own      code + records + exec;
    imports  importing modules outside gradcorr, numpy say, where the
             module's body is the first to import them;

and the median wall time of the launch, from starting the interpreter to
the command's return.  It does so twice.  First without bytecode caches,
as a launch runs under PYTHONDONTWRITEBYTECODE=1 with no __pycache__
beside the sources: every gradcorr module is compiled.  Then with caches,
which a first, untimed launch writes under a temporary
PYTHONPYCACHEPREFIX, so nothing is written into src/.  Standard library
only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the fresh interpreter: argv is src, "cache" or "compile", then the
# command line; its last line of output is a JSON record of the launch
_CHILD = r'''
import builtins, os, sys, time
from importlib.machinery import PathFinder, SourceFileLoader

src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)
clock = time.perf_counter
costs = {}      # module -> [code, records, exec, imports] seconds
stack = []      # [module, start, seconds to exclude] of the bodies running
depth = [0]     # classes being built inside one another
outside = [False]       # an import from outside gradcorr is running


def charge(module, column, seconds, exclude=True):
    costs.setdefault(module, [0.0] * 4)[column] += seconds
    if exclude:
        stack[-1][2] += seconds


class Loader(SourceFileLoader):
    def get_code(self, fullname):
        start = clock()
        if mode == "compile":
            code = self.source_to_code(self.get_data(self.path), self.path)
        else:
            code = super().get_code(fullname)
        charge(self.name, 0, clock() - start)
        return code

    def exec_module(self, module):
        stack.append([self.name, clock(), 0.0])
        try:
            super().exec_module(module)
        finally:
            name, start, excluded = stack.pop()
            total = clock() - start
            charge(name, 2, total - excluded, exclude=False)
            if stack:
                stack[-1][2] += total


def timed(build, module_of):
    def wrapper(*args, **kwargs):
        start = clock()
        depth[0] += 1
        try:
            return build(*args, **kwargs)
        finally:
            depth[0] -= 1
            if (depth[0] == 0 and stack
                    and module_of(*args) == stack[-1][0]):
                charge(stack[-1][0], 1, clock() - start)
    return wrapper


class DataclassesLoader(SourceFileLoader):
    def exec_module(self, module):
        super().exec_module(module)
        module._process_class = timed(module._process_class,
                                      lambda cls, *_: cls.__module__)


class Finder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] == "gradcorr":
            loader = Loader
        elif name == "dataclasses":
            loader = DataclassesLoader
        else:
            return None
        spec = PathFinder.find_spec(name, path)
        if spec is not None and type(spec.loader) is SourceFileLoader:
            spec.loader = loader(name, spec.origin)
        return spec


def timed_import(real_import):
    def wrapper(name, globals=None, locals=None, fromlist=(), level=0):
        if level or outside[0] or not stack or name.startswith("gradcorr"):
            return real_import(name, globals, locals, fromlist, level)
        outside[0] = True
        start = clock()
        try:
            return real_import(name, globals, locals, fromlist, level)
        finally:
            outside[0] = False
            charge(stack[-1][0], 3, clock() - start)
    return wrapper


sys.meta_path.insert(0, Finder)
builtins.__build_class__ = timed(
    builtins.__build_class__, lambda body, *_: body.__globals__["__name__"])
builtins.__import__ = timed_import(builtins.__import__)
stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
from gradcorr.cli import main
status = main(argv)
end = time.monotonic_ns()
sys.stdout = stdout
import json
print(json.dumps({"status": status, "end": end, "costs": costs}))
'''

_COLUMNS = ("code", "records", "exec", "own", "imports")


def _launch(mode: str, argv, env) -> tuple:
    """(launch seconds, {module: [code, records, exec, imports] seconds})."""
    start = time.monotonic_ns()
    done = subprocess.run([sys.executable, "-c", _CHILD, str(SRC), mode,
                           *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"error: the launch failed:\n{done.stderr.strip()}")
    record = json.loads(done.stdout.splitlines()[-1])
    if record["status"] != 0:
        raise SystemExit(f"error: gradcorr exited {record['status']}:\n"
                         f"{done.stderr.strip()}")
    return (record["end"] - start) / 1e9, record["costs"]


def _table(title: str, launches: list) -> str:
    modules = list(launches[0][1])
    wall = statistics.median(w for w, _ in launches) * 1e3
    lines = [f"{title}: launch {wall:.1f} ms",
             f"  {'module':<36}" + "".join(f"{c:>9}" for c in _COLUMNS)]
    totals = [0.0] * 5
    for module in modules:
        code, records, body, imports = (
            statistics.median(costs[module][i] for _, costs in launches)
            * 1e3 for i in range(4))
        cells = [code, records, body, code + records + body, imports]
        totals = [t + c for t, c in zip(totals, cells)]
        lines.append(f"  {module:<36}" + "".join(f"{c:9.2f}" for c in cells))
    lines.append(f"  {'all gradcorr modules':<36}"
                 + "".join(f"{c:9.2f}" for c in totals))
    return "\n".join(lines)


def main(args=None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-module launch cost of a gradcorr command.")
    parser.add_argument("--runs", type=int, default=7,
                        help="fresh launches per mode (default 7)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the gradcorr command line, e.g. test ...")
    opts = parser.parse_args(args)
    if not opts.command or opts.runs < 1:
        parser.error("need a gradcorr command line and --runs >= 1")
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    print(f"gradcorr {' '.join(opts.command)}: {opts.runs} fresh launches "
          "per mode, medians in ms")
    compiled = [_launch("compile", opts.command,
                        dict(env, PYTHONDONTWRITEBYTECODE="1"))
                for _ in range(opts.runs)]
    print(_table("without bytecode caches", compiled))
    with tempfile.TemporaryDirectory(prefix="gradcorr-pycache-") as tmp:
        cached_env = dict(env, PYTHONPYCACHEPREFIX=tmp)
        _launch("cache", opts.command, cached_env)       # writes the caches
        cached = [_launch("cache", opts.command, cached_env)
                  for _ in range(opts.runs)]
    print(_table("with bytecode caches", cached))
    return 0


if __name__ == "__main__":
    sys.exit(main())
