"""Seeded Monte Carlo studies of the gradient test's null behavior.

Two experiments: rejection rates of the uncorrected and corrected tests
across sample sizes (size study), and the empirical null CDF of S
against its first-order and order-1/n approximations (CDF study).

Reproducibility.  Replicates come in blocks of BLOCK = 4096: replicate r
at sample size n is row r % BLOCK of block r // BLOCK, whose (BLOCK, n)
data matrix is drawn in C order from the Philox stream keyed by
(seed, n, block) (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11).  Replicate r is thus a pure function of (seed, n, r),
whatever the replicate count.  The unit of work is a solve: one
batch_statistics call (one Newton run for Birnbaum-Saunders) over
consecutive (n, block) pieces, sizes in config order and blocks in order
within a size, each drawn from its own block's stream, whatever their n.
A solve is closed before a piece that would pass _GROUP_VALUES values;
the piece continues its stream in the next solve, so the cap bounds
memory without moving a draw.  A solve is also closed once it holds
BLOCK replicates, so it spans sizes when blocks are short and is one
block otherwise, as in a CDF study: solves filled to the value cap
alone made the 10,000-replicate Birnbaum-Saunders and exponential CDF
studies at n = 10 1.16x and 1.08x slower on a shared 2-vCPU Xeon, as
larger solves fall out of cache.  A size study decides a solve's finite
S at once, each value carrying its own n, and counts them per sample
size by the size label of each replicate, so the fixed costs of the
fits and of the rules are paid per solve, not per size.  How the
replicates are partitioned into solves therefore affects neither values
nor, thanks to integer-count reduction, aggregates.
Seeded results differ from versions that keyed one stream per
replicate.  Both studies run their solves in order on the calling
thread: on 2 vCPUs, two threads took 1.2-1.6x the CPU time of one for
6-24 % less wall time on long studies, and slowed short ones.

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
bound comes within a margin of the coarse pass's distances are
evaluated point by point.  The sups stay exact, and an exponential
study at n = 10 evaluates about 1,200 of its 10,000 values (see
``_sup_distances``).

Non-convergent fits are excluded and counted, never redrawn (the
replicate-to-stream mapping stays pure); a failure rate above 5% at any
sample size aborts the study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .correction import PROCEDURES, _expand, bartlett_factors, expanded_cdf
from .expansion import ExpansionCoefficients
from .models import FitError, ModelFamily, make_model
from .special import _chi2_ladder, _is_int, chi2_cdf, chi2_quantile

__all__ = ["PROCEDURES", "BLOCK", "SimulationConfig", "SizeRow",
           "SimulationResult", "CdfStudy", "SimulationError",
           "replicate_statistics", "run_size_study", "run_cdf_study",
           "write_size_csv", "write_cdf_csv"]

BLOCK = 4096                      # replicates per stream key
_GROUP_VALUES = 24 * BLOCK        # cap on replicates*n in one solve
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
    # hashed through the other fields; equality still compares it
    constants: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        inputs, coef = _checked(make_model(self.model_id, **self.constants),
                                self.theta, self.theta10, self.sizes,
                                self.replicates, self.seed)
        # kept for run_size_study, outside the fields, so equality, repr
        # and dataclasses.replace do not see it
        object.__setattr__(self, "_coefficients", coef)
        checked = dict(zip(("theta", "theta10", "sizes", "replicates",
                            "seed"), inputs),
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
    failures: tuple          # (n, failed fits) per size, in config order

    @property
    def rows(self) -> tuple:
        cfg = self.config
        cells = iter(self.rejections)
        rows = []
        for n, failed in self.failures:
            effective = cfg.replicates - failed
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


def _checked(model: ModelFamily, theta, theta10, sizes, replicates,
             seed) -> tuple:
    """((theta, theta10, sizes, replicates, seed), coef): a study's one
    check of its inputs and one evaluation of its null coefficients.
    theta and theta10 become float tuples, checked by the family, and the
    rest Python ints: integer sizes of at least 2, an integer replicate
    count of at least 1 (a bool or a float is no integer), and a seed and
    sizes that fit the stream key, which packs seed into one 64-bit word
    and (n, block) into the other.  coef, at theta with theta10 for its
    first q components, is also the overflow check: a null too large for
    the cumulants raises OverflowError before the draws are checked."""
    theta, theta10 = model._theta(theta), model._null(theta10)
    coef = model.coefficients(np.concatenate([theta10, theta[model.q:]]))
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
    return ((tuple(theta.tolist()), tuple(theta10.tolist()),
             tuple(map(int, sizes)), int(replicates), int(seed)), coef)


def _solves(model: ModelFamily, theta, theta10, seed: int, sizes,
            replicates: int):
    """Each solve of a study, in order: its (size index, rows) runs and the
    S of its rows end to end, NaN where a fit failed.  The (size, block)
    pieces come in config order, each drawn from its block's stream; a
    solve is closed before a piece that would pass _GROUP_VALUES values,
    which continues its stream in the next solve, or once it holds BLOCK
    replicates."""
    solve, runs, values, held = [], [], 0, 0
    for i, n in enumerate(sizes):
        for block in range(-(-replicates // BLOCK)):
            key = [seed, (n << 32) | block]
            rng = np.random.Generator(np.random.Philox(key=key))
            rows = min(BLOCK, replicates - block * BLOCK)
            while rows:
                if solve and (values + n > _GROUP_VALUES or held >= BLOCK):
                    yield runs, model.batch_statistics(solve, theta10)[0]
                    solve, runs, values, held = [], [], 0, 0
                k = min(rows, max(1, (_GROUP_VALUES - values) // n))
                solve.append(model.sample(theta, (k, n), rng))
                runs.append((i, k))
                values += k * n
                held += k
                rows -= k
    yield runs, model.batch_statistics(solve, theta10)[0]


def replicate_statistics(model: ModelFamily, theta, theta10, n: int,
                         replicates: int, seed: int) -> tuple:
    """S of replicates 0..replicates-1 at sample size n (NaN where a fit
    failed) and the number of failed fits."""
    (theta, theta10, (n,), replicates, seed), _ = _checked(
        model, theta, theta10, (n,), replicates, seed)
    return _statistics(model, theta, theta10, n, replicates, seed)


def _statistics(model: ModelFamily, theta, theta10, n: int,
                replicates: int, seed: int) -> tuple:
    """replicate_statistics on checked inputs."""
    S = np.concatenate([S for _, S in _solves(model, theta, theta10, seed,
                                              (n,), replicates)])
    return S, int(np.count_nonzero(np.isnan(S)))


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


def _size_counts(cfg: SimulationConfig, coef: ExpansionCoefficients, q: int,
                 runs, S) -> tuple:
    """Rejection counts per (size, cell) and failures per size of one
    solve's (size index, rows) runs and S, zero for the sizes it does not
    hold."""
    index, rows = zip(*runs)
    label = np.repeat(index, rows)          # size index per replicate
    finite = np.isfinite(S)
    k = len(cfg.sizes)
    failures = np.bincount(label[~finite], minlength=k)
    label = label[finite]
    rej = _rejections(S[finite], coef, q, np.array(cfg.sizes)[label],
                      cfg.alphas, cfg.procedures)
    counts = np.array([np.bincount(label[row], minlength=k) for row in rej])
    return counts.T, failures


def _check_failures(failures: tuple, replicates: int) -> None:
    """SimulationError if any n lost more than _MAX_FAILURE_RATE of fits."""
    for n, failed in failures:
        if failed > _MAX_FAILURE_RATE * replicates:
            raise SimulationError(
                f"{failed} of {replicates} fits failed at n={n} "
                f"(> {_MAX_FAILURE_RATE:.0%})")


def run_size_study(cfg: SimulationConfig) -> SimulationResult:
    """Null rejection rates per (n, alpha, procedure)."""
    model = make_model(cfg.model_id, **cfg.constants)
    partials = [_size_counts(cfg, cfg._coefficients, model.q, runs, S)
                for runs, S in _solves(model, cfg.theta, cfg.theta10, cfg.seed,
                                       cfg.sizes, cfg.replicates)]
    counts = sum(c for c, _ in partials)
    failures = tuple(zip(cfg.sizes, sum(f for _, f in partials).tolist()))
    _check_failures(failures, cfg.replicates)
    return SimulationResult(config=cfg, failures=failures,
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
    (i+1)/m - F(S[i]) at most hi/m less the lower bound.  One filter
    keeps the intervals whose bound on either distance comes within a
    margin of the coarse pass's value of it, and their inner points are
    evaluated in ladders of at most BLOCK values.

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
    k = np.flatnonzero(
        (np.diff(ends) > 1)                     # intervals with inner points
        & ((np.maximum(hi[0] - first, last - lo[0]) >= worst[0] - margin)
           | (np.maximum(top - first, last - bottom) >= worst[1] - margin)))
    i = ends[k, None] + np.arange(1, _STRIDE)
    i = i[i < ends[k + 1, None]]
    for start in range(0, len(i), BLOCK):
        _, found = _distances(S, i[start:start + BLOCK], coef, q, n)
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
    (theta, theta10, (n,), replicates, seed), coef = _checked(
        model, theta, theta10, (n,), replicates, seed)
    q = model.q

    S, failed = _statistics(model, theta, theta10, n, replicates, seed)
    _check_failures(((n, failed),), replicates)
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
