"""Seeded Monte Carlo studies of the gradient test's null behavior.

Two experiments: rejection rates of the uncorrected and corrected tests
across sample sizes (size study), and the empirical null CDF of S
against its first-order and order-1/n approximations (CDF study).

Reproducibility.  Replicates come in blocks of BLOCK = 4096: replicate r
at sample size n is row r % BLOCK of block r // BLOCK, whose (BLOCK, n)
data matrix is drawn in C order from the Philox stream keyed by
(seed, n, block) (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11).  Replicate r is thus a pure function of (seed, n, r),
whatever the replicate count.  The unit of work is a count group: the
consecutive (n, block) pieces, sizes in config order and blocks in
order within a size, gathered until they hold at least BLOCK
replicates (the last group may hold fewer), so a group spans sizes
when blocks are short and is one block otherwise, as in a CDF study.
A group's pieces are drawn, each from its own block's stream, and
reduced together: one batch_statistics call (one Newton run for
Birnbaum-Saunders) solves as many of its rows as fit in _GROUP_VALUES
values, whatever their n, and a piece that does not fit continues its
stream in the next solve, so the cap bounds memory without moving a
draw.  A size study's finite S are then decided at once, each value
carrying its own n, and counted per sample size, so the fixed costs of
the fits and of the rules are paid per group, not per size.  Solve
size, count-group size and worker count therefore affect neither values
nor, thanks to integer-count reduction, aggregates.
Seeded results differ from versions that keyed one stream per
replicate.  Workers default to 1; set GRADCORR_THREADS to run the count
groups of either study on that many threads.

Coefficients for the corrected procedures are ``ModelFamily.coefficients``
evaluated at the null point (tested components at theta10, nuisance at
the configured truth).  For every built-in family the A's depend only on
components that are fixed under the null, so this equals the plug-in at
the per-replicate restricted MLE exactly.  The procedures call the
correction algebra of ``correction`` on arrays of S.

A CDF study sorts its finite S, reads the sample quantile that sets its
grid end off the sorted order, and measures the sup distances of G_q
and of the expanded CDF from their empirical CDF.  A coarse pass
evaluates both at every _STRIDE-th sorted value; since every rung of
the chi-square ladder is non-decreasing, the values there bound both
distances on each interval between them, and only the intervals whose
bound comes within a margin of the largest distance found so far are
evaluated point by point.  The sups stay exact, and an exponential
study at n = 10 evaluates about 1,200 of its 10,000 values (see
``_sup_distances``).

Non-convergent fits are excluded and counted, never redrawn (the
replicate-to-stream mapping stays pure); a failure rate above 5% at any
sample size aborts the study.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .correction import PROCEDURES, _expand, bartlett_factors, expanded_cdf
from .expansion import ExpansionCoefficients
from .models import FitError, ModelFamily, make_model
from .special import _chi2_ladder, chi2_cdf, chi2_quantile

__all__ = ["PROCEDURES", "BLOCK", "SimulationConfig", "SizeRow",
           "SimulationResult", "CdfStudy", "SimulationError",
           "replicate_statistics", "run_size_study", "run_cdf_study",
           "write_size_csv", "write_cdf_csv"]

BLOCK = 4096                      # replicates per stream key
_GROUP_VALUES = 24 * BLOCK        # cap on replicates*n in one solve
_COUNT_REPLICATES = BLOCK         # replicates decided at once, at least
_MAX_FAILURE_RATE = 0.05
_GRID_POINTS = 512                # points of a CDF study's grid
_STRIDE = 16                      # sorted values per coarse sup interval


class SimulationError(FitError):
    """Too many fits of a study failed."""


@dataclass(frozen=True)
class SimulationConfig:
    """Size-study specification; fully determines the results."""

    model_id: str
    theta: tuple
    theta10: tuple
    sizes: tuple
    replicates: int
    alphas: tuple = (0.05,)
    seed: int = 0
    procedures: tuple = ("uncorrected", "corrected_statistic")
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        model = make_model(self.model_id, **self.constants)
        theta, theta10, _ = _null_point(model, self.theta, self.theta10)
        sizes, replicates, seed = _draws(self.sizes, self.replicates,
                                         self.seed)
        checked = dict(theta=theta, theta10=theta10, sizes=sizes,
                       replicates=replicates, seed=seed,
                       alphas=tuple(float(v) for v in self.alphas),
                       procedures=tuple(self.procedures))
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if not self.alphas or any(not 0.0 < 1.0 - a < 1.0
                                  for a in self.alphas):
            raise ValueError(f"levels must lie in (0,1), with 1 - level "
                             f"below 1 in floating point, got {self.alphas}")
        bad = [p for p in self.procedures if p not in PROCEDURES]
        if bad or not self.procedures:
            raise ValueError(f"procedures must be a nonempty subset of "
                             f"{PROCEDURES}, got {self.procedures}")
        # a repeated value would count its replicates twice in one row,
        # or write the same row twice
        for what, values in (("sample sizes", self.sizes),
                             ("levels", self.alphas),
                             ("procedures", self.procedures)):
            if len(set(values)) != len(values):
                raise ValueError(f"{what} must not repeat, got {values}")


@dataclass(frozen=True)
class SizeRow:
    """One (n, alpha, procedure) cell of a size study."""

    n: int
    alpha: float
    procedure: str
    rejections: int
    replicates: int
    rate: float
    distortion: float
    se: float


@dataclass(frozen=True)
class SimulationResult:
    """Rejection counts of a size study, one per (n, alpha, procedure) cell
    in config order.  The rows are built when read, not stored, so a
    result kept in memory holds one integer per cell."""

    config: SimulationConfig
    rejections: tuple
    failures: tuple          # (n, non-converged count) per sample size

    @property
    def rows(self) -> tuple:
        cfg = self.config
        failures = dict(self.failures)
        cells = iter(self.rejections)
        rows = []
        for n in cfg.sizes:
            effective = cfg.replicates - failures[n]
            for a in cfg.alphas:
                for p in cfg.procedures:
                    rej = next(cells)
                    rate = rej / effective
                    rows.append(SizeRow(
                        n=n, alpha=a, procedure=p, rejections=rej,
                        replicates=effective, rate=rate, distortion=rate - a,
                        se=float(np.sqrt(rate * (1.0 - rate) / effective))))
        return tuple(rows)


@dataclass(frozen=True)
class CdfStudy:
    """Empirical null CDF of S on the grid x, evenly spaced over
    [0, grid_end].  A study stores the grid end and, per grid point, the
    count of finite S at or below it, in the smallest unsigned dtype that
    holds the count; the grid and the empirical, chi-square and expanded
    CDFs on it are built when read, so a study kept in memory holds a
    few bytes per grid point."""

    grid_end: float
    counts: np.ndarray
    sup_chisq: float
    sup_expanded: float
    n: int
    replicates: int
    failures: int
    q: int
    coefficients: ExpansionCoefficients

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.grid_end, len(self.counts))

    @property
    def f_empirical(self) -> np.ndarray:
        # every replicate whose fit did not fail has a finite S
        return self.counts / (self.replicates - self.failures)

    @property
    def f_chisq(self) -> np.ndarray:
        return chi2_cdf(self.x, self.q)

    @property
    def f_expanded(self) -> np.ndarray:
        return expanded_cdf(self.x, self.coefficients, self.q, self.n)


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _draws(sizes, replicates, seed) -> tuple:
    """What a study draws, checked and as Python ints: integer sizes of at
    least 2, an integer replicate count of at least 1 (a bool or a float
    is no integer), and a seed and sizes that fit the stream key, which
    packs seed into one 64-bit word and (n, block) into the other."""
    sizes = tuple(sizes)
    if not sizes or not all(_is_int(n) and n >= 2 for n in sizes):
        raise ValueError(f"sample sizes must be integers >= 2, got {sizes}")
    if max(sizes) >= 2**32:
        raise ValueError(f"sample size n={max(sizes)} must be below 2**32")
    if not _is_int(replicates) or replicates < 1:
        raise ValueError(f"replicates must be an integer >= 1, "
                         f"got {replicates!r}")
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit integer, got {seed!r}")
    return tuple(map(int, sizes)), int(replicates), int(seed)


def _null_point(model: ModelFamily, theta, theta10) -> tuple:
    """theta and theta10 as float tuples of lengths p and q, and the
    coefficients at the null point, theta with theta10 for its first q
    components.  Evaluating them is also the parameter-space check, so
    callers that discard them still make it: a null outside the space
    raises ValueError and one too large for the cumulants OverflowError,
    both before any draw."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (model.p,):
        raise ValueError(f"theta must have {model.p} value(s) for "
                         f"{model.name}, got {theta.size}")
    theta10 = model._null(theta10)
    return (tuple(theta.tolist()), tuple(theta10.tolist()),
            model.coefficients(np.concatenate([theta10, theta[model.q:]])))


def _reduce(model: ModelFamily, theta, theta10, seed: int,
            group) -> np.ndarray:
    """S of the rows of a count group's (size index, n, block, rows)
    pieces end to end, NaN where a fit failed.  A piece is the first
    ``rows`` replicates of its block, drawn from the block's stream; the
    pieces are reduced together by batch_statistics in solves of at most
    _GROUP_VALUES values, and a piece that does not fit in one solve
    continues its stream in the next."""
    S, solve, held = [], [], 0
    for _, n, block, rows in group:
        rng = np.random.Generator(np.random.Philox(key=[seed,
                                                        (n << 32) | block]))
        while rows:
            if solve and held + n > _GROUP_VALUES:
                S.append(model.batch_statistics(solve, theta10)[0])
                solve, held = [], 0
            k = min(rows, max(1, (_GROUP_VALUES - held) // n))
            solve.append(model.sample(theta, (k, n), rng))
            held += k * n
            rows -= k
    S.append(model.batch_statistics(solve, theta10)[0])
    return S[0] if len(S) == 1 else np.concatenate(S)


def replicate_statistics(model: ModelFamily, theta, theta10, n: int,
                         replicates: int, seed: int) -> tuple:
    """S of replicates 0..replicates-1 at sample size n (NaN where a fit
    failed) and the number of failed fits."""
    theta, theta10, _ = _null_point(model, theta, theta10)
    (n,), replicates, seed = _draws((n,), replicates, seed)
    return _statistics(model, theta, theta10, n, replicates, seed)


def _statistics(model: ModelFamily, theta, theta10, n: int,
                replicates: int, seed: int) -> tuple:
    """replicate_statistics on checked inputs."""
    S = np.concatenate(_map(
        lambda group: _reduce(model, theta, theta10, seed, group),
        _groups((n,), replicates)))
    return S, int(np.count_nonzero(np.isnan(S)))


def _map(work, groups) -> list:
    """work(group) for each count group in order, on _workers(len(groups))
    threads when that is above 1: groups share nothing mutable, and numpy
    releases the GIL in their draws and in the array work of their fits."""
    workers = _workers(len(groups))
    if workers == 1:
        return [work(group) for group in groups]
    # imported here, so that a serial study never loads the pool
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, groups))


def _workers(tasks: int) -> int:
    """Worker threads from GRADCORR_THREADS (default 1), clamped to the
    CPU count and the number of tasks."""
    raw = os.environ.get("GRADCORR_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"GRADCORR_THREADS must be an integer, "
                         f"got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"GRADCORR_THREADS must be at least 1, got {workers}")
    if workers == 1:            # the default: skip the os.cpu_count() call
        return 1
    return min(workers, os.cpu_count() or 1, tasks)


def _groups(sizes, replicates: int) -> list:
    """The size study's count groups: consecutive (size index, n, block,
    rows) pieces gathered until a group holds _COUNT_REPLICATES
    replicates or more; the last group may hold fewer."""
    groups, group, held = [], [], 0
    for i, n in enumerate(sizes):
        for block in range(-(-replicates // BLOCK)):
            rows = min(BLOCK, replicates - block * BLOCK)
            group.append((i, n, block, rows))
            held += rows
            if held >= _COUNT_REPLICATES:
                groups.append(group)
                group, held = [], 0
    if group:
        groups.append(group)
    return groups


def _rejections(S, coef, q, n, alphas, procedures) -> np.ndarray:
    """Rejection decisions over finite S, value i at sample size n[i]:
    one boolean row per (alpha, procedure) cell, in config order."""
    f = bartlett_factors(coef, q, n)
    s_star = f.corrected(S)
    p_exp = (1.0 - expanded_cdf(S, coef, q, n)
             if "expanded_cdf" in procedures else None)
    rej = np.empty((len(alphas) * len(procedures), len(S)), dtype=bool)
    rows = iter(rej)
    for alpha in alphas:
        crit = chi2_quantile(1.0 - alpha, q)
        z_mod = f.modified(crit)
        for proc in procedures:
            row = next(rows)
            if proc == "uncorrected":
                np.greater(S, crit, out=row)
            elif proc == "corrected_statistic":
                np.greater(s_star, crit, out=row)
            elif proc == "expanded_cdf":
                np.less(p_exp, alpha, out=row)
            else:
                np.greater(S, z_mod, out=row)
    return rej


def _size_group(model: ModelFamily, cfg: SimulationConfig,
                coef: ExpansionCoefficients, pieces) -> tuple:
    """Rejection counts per (size, cell) and failures per size of one
    count group, zero for the sizes the group does not hold."""
    S = _reduce(model, cfg.theta, cfg.theta10, cfg.seed, pieces)
    finite = np.isfinite(S)
    failures = np.zeros(len(cfg.sizes), dtype=np.int64)
    runs, lo = [], 0          # (size index, finite S) per piece
    for i, _, _, rows in pieces:
        m = int(np.count_nonzero(finite[lo:lo + rows]))
        failures[i] += rows - m
        runs.append((i, m))
        lo += rows
    S = S[finite]
    n = np.repeat([cfg.sizes[i] for i, _ in runs], [m for _, m in runs])
    rej = _rejections(S, coef, model.q, n, cfg.alphas, cfg.procedures)
    counts = np.zeros((len(cfg.sizes), len(rej)), dtype=np.int64)
    lo = 0
    for i, m in runs:
        counts[i] += np.count_nonzero(rej[:, lo:lo + m], axis=1)
        lo += m
    return counts, failures


def _check_failures(failures_by_n: dict, replicates: int) -> None:
    """SimulationError if any n lost more than _MAX_FAILURE_RATE of fits."""
    for n, failed in failures_by_n.items():
        if failed > _MAX_FAILURE_RATE * replicates:
            raise SimulationError(
                f"{failed} of {replicates} fits failed at n={n} "
                f"(> {_MAX_FAILURE_RATE:.0%})")


def run_size_study(cfg: SimulationConfig) -> SimulationResult:
    """Null rejection rates per (n, alpha, procedure)."""
    model = make_model(cfg.model_id, **cfg.constants)
    _, _, coef = _null_point(model, cfg.theta, cfg.theta10)
    partials = _map(lambda pieces: _size_group(model, cfg, coef, pieces),
                    _groups(cfg.sizes, cfg.replicates))
    counts = sum(c for c, _ in partials)
    failures = dict(zip(cfg.sizes, sum(f for _, f in partials).tolist()))
    _check_failures(failures, cfg.replicates)
    return SimulationResult(config=cfg,
                            failures=tuple(sorted(failures.items())),
                            rejections=tuple(counts.ravel().tolist()))


def _distances(S, i, coef, q, n) -> tuple:
    """The four ladder rungs at S[i], and the largest distances of G_q and
    of the expanded CDF from the empirical CDF of the sorted sample S at
    its jump points i: the larger of F(S[i]) - i/m and (i+1)/m - F(S[i])."""
    m = len(S)
    rungs = _chi2_ladder(S[i], q, 4)
    worst = [max(np.max(at - i / m), np.max((i + 1) / m - at))
             for at in (rungs[0], _expand(rungs[0], rungs, coef, n))]
    return rungs, worst


def _sup_distances(S, coef, q, n) -> tuple:
    """Exact sup distances of G_q and of the expanded CDF from the
    empirical CDF of the sorted sample S, over all its jump points.

    A coarse pass evaluates both CDFs at every _STRIDE-th value and the
    last, with one ladder.  Every rung G_{q+2k} is non-decreasing, so
    between two coarse points lo and hi G_q lies between its values at
    the two ends, and the expanded CDF G_q + sum_k w_k G_{q+2k},
    w_k = R_k/24n, between the sums that take each term at the end that
    the sign of its weight makes largest, or smallest.  At an inner point
    i, F(S[i]) - i/m is then at most the upper bound less (lo+1)/m, and
    (i+1)/m - F(S[i]) at most hi/m less the lower bound.  Only the
    intervals whose bound comes within a margin of the largest distance
    found so far are evaluated point by point, the most promising first,
    at most BLOCK values per ladder.

    The ladder's absolute error is at most 1e-13 per rung, so a computed
    distance and a computed bound each miss their exact value by about
    1e-13 (1 + sum_k |w_k|) at most.  The margin, 1e-9 (1 + sum_k |w_k|),
    holds that thousands of times over: every point that can hold a
    maximum is evaluated, in the same elementwise arithmetic as a
    whole-sample evaluation, and both sups equal its bit for bit."""
    m = len(S)
    R = (coef.R0, coef.R1, coef.R2, coef.R3)
    margin = 1e-9 * (1.0 + sum(abs(r) for r in R) / (24.0 * n))
    ends = np.append(np.arange(0, m - 1, _STRIDE), m - 1)
    rungs, worst = _distances(S, ends, coef, q, n)
    lo, hi = [g[:-1] for g in rungs], [g[1:] for g in rungs]
    top = _expand(hi[0], [b if r > 0 else a for r, a, b in zip(R, lo, hi)],
                  coef, n)
    bottom = _expand(lo[0], [a if r > 0 else b for r, a, b in zip(R, lo, hi)],
                     coef, n)
    first, last = (ends[:-1] + 1) / m, ends[1:] / m
    bound = (np.maximum(hi[0] - first, last - lo[0]),
             np.maximum(top - first, last - bottom))

    def excess(k):
        # how far the bounds on intervals k exceed the distances so far
        return np.maximum(bound[0][k] - worst[0], bound[1][k] - worst[1])

    k = np.flatnonzero(np.diff(ends) > 1)       # intervals with inner points
    k = k[np.argsort(-excess(k), kind="stable")]
    while len(k := k[excess(k) >= -margin]):
        chunk, k = k[:BLOCK // _STRIDE], k[BLOCK // _STRIDE:]
        i = ends[chunk, None] + np.arange(1, _STRIDE)
        _, found = _distances(S, i[i < ends[chunk + 1, None]], coef, q, n)
        worst = [max(w, f) for w, f in zip(worst, found)]
    return float(worst[0]), float(worst[1])


def _sorted_quantile(S, p: float) -> float:
    """np.quantile(S, p) of a sorted S, read off the sorted order by numpy's
    linear rule instead of partitioning S again."""
    v = (len(S) - 1) * p
    if v >= len(S) - 1:
        return float(S[-1])
    i = math.floor(v)
    g = v - i
    a, b = S[i], S[i + 1]
    return float(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)


def run_cdf_study(model, theta, theta10, n: int, replicates: int,
                  seed: int) -> CdfStudy:
    """Empirical null CDF of S against G_q and the order-1/n expansion."""
    if isinstance(model, str):
        model = make_model(model)
    theta, theta10, coef = _null_point(model, theta, theta10)
    (n,), replicates, seed = _draws((n,), replicates, seed)
    q = model.q

    S, failed = _statistics(model, theta, theta10, n, replicates, seed)
    _check_failures({n: failed}, replicates)
    S = S[np.isfinite(S)]
    S.sort()
    m = len(S)

    grid_end = max(chi2_quantile(0.999, q), _sorted_quantile(S, 0.999))
    counts = np.searchsorted(S, np.linspace(0.0, grid_end, _GRID_POINTS),
                             side="right")
    sup_chisq, sup_expanded = _sup_distances(S, coef, q, n)
    return CdfStudy(grid_end=grid_end,
                    counts=counts.astype(np.min_scalar_type(m)),
                    sup_chisq=sup_chisq, sup_expanded=sup_expanded,
                    n=n, replicates=replicates, failures=failed, q=q,
                    coefficients=coef)


def _fmt(v) -> str:
    return f"{v:.17g}"


def write_size_csv(result: SimulationResult, path) -> None:
    with open(path, "w") as fh:
        fh.write("n,alpha,procedure,rejections,replicates,rate,distortion,se\n")
        for r in result.rows:
            fh.write(f"{r.n},{_fmt(r.alpha)},{r.procedure},{r.rejections},"
                     f"{r.replicates},{_fmt(r.rate)},{_fmt(r.distortion)},"
                     f"{_fmt(r.se)}\n")


def write_cdf_csv(study: CdfStudy, path) -> None:
    with open(path, "w") as fh:
        fh.write("x,f_empirical,f_chisq,f_expanded\n")
        for vals in zip(study.x, study.f_empirical, study.f_chisq,
                        study.f_expanded):
            fh.write(",".join(_fmt(v) for v in vals) + "\n")
