"""Spans and counters recorded from outside the package.

The tracer wraps public callables by attribute lookup (a module path plus
a dotted attribute path, such as ``gradcorr.simulate`` and
``np.random.Philox``) and restores the originals afterwards.  A target
that no longer resolves is skipped; a span none of whose targets resolved
reads *absent* instead of breaking the run.

Spans are aggregated as they close rather than stored one by one: the
Monte Carlo workloads open hundreds of thousands of them per run.  A
span's self time is its duration minus the durations of the spans it
directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["Tracer", "Target", "percentile", "tail_percentile"]

_MISSING = object()
_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap, and the span its calls are recorded under.

    ``label(args, kwargs)`` appends a suffix to the span name per call;
    ``after(tracer, args, kwargs, result)`` records counters from a
    call's arguments and result.
    """

    module: str
    path: str
    span: str
    label: object = None
    after: object = None


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = {}      # name -> [calls, total_ns, self_ns]
        self.edges = {}      # (parent name or None, name) -> calls
        self.counts = {}     # counter name -> total
        self.resolved = {}   # span name -> number of targets wrapped
        self._stack = []     # open spans: [name, start_ns, children_ns]
        self._undo = []

    # -- spans and counters -------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        rec = self.spans.setdefault(name, [0, 0, 0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - children
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        key = (parent[0] if parent is not None else None, name)
        self.edges[key] = self.edges.get(key, 0) + 1

    def add(self, counter: str, amount=1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[2] / 1e9

    def mean_s(self, name: str) -> float:
        """Mean inclusive duration per call, 0 for a span never entered."""
        calls = self.calls(name)
        return self.total_s(name) / calls if calls else 0.0

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, target: Target):
        label, after = target.label, target.after

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            name = target.span
            if label is not None:
                name = f"{name}.{label(args, kwargs)}"
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def install(self, targets) -> None:
        """Wrap every target that resolves; remember how to undo it."""
        done = set()
        for t in targets:
            self.resolved.setdefault(t.span, 0)
            try:
                owner = importlib.import_module(t.module)
                *parents, attr = t.path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                continue
            self.resolved[t.span] += 1
            if (id(owner), attr) in done:
                continue
            done.add((id(owner), attr))
            if isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(self.wrap(original.__func__, t))
            else:
                wrapped = self.wrap(original, t)
            own = attr in vars(owner)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original if own else _MISSING))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def absent(self) -> list:
        """Spans none of whose targets resolved."""
        return sorted(name for name, k in self.resolved.items() if k == 0)


# -- percentiles --------------------------------------------------------------

def _rank(pct: float, n: int) -> int:
    # exact rational arithmetic: 99.9 / 100 * 1000 is 999.0000000000001
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def percentile(sorted_values, pct: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = _rank(pct, n)
    return sorted_values[rank - 1], n - rank


def tail_percentile(n: int):
    """Highest standard percentile with at least ten samples beyond it.

    Returns None when even the median has fewer than ten beyond it.
    """
    best = None
    for pct in _PERCENTILES:
        if n - _rank(pct, n) >= 10:
            best = pct
    return best
