"""Model family interface and the gradient statistic.

A family bundles everything a test or a simulation needs: a sampler, the
two maximum likelihood fits, the statistic and the analytic cumulant
arrays.  Data is a 1-D float array for one-sample families; the
two-sample family takes a pair of equal-length arrays and counts both
samples in n.

Each family writes its two fits (``estimates``) and its statistic
(``raw_statistic``) once, as arithmetic on its per-row summaries of a
(k, n) data matrix holding one data set per row; a two-sample row is
sample 1 in its first n/2 columns and sample 2 in the rest.  Two drivers
run that arithmetic in the same order, and the entry point picks one.
The batch driver, ``batch_statistics`` and ``fit_rows``, runs it on
arrays of one value per row, over one matrix or several of different n
joined end to end, and marks NaN a row where a fit fails.  The one-row
driver, ``gradient_statistic``, ``fit_restricted`` and
``fit_unrestricted``, runs it on the numpy float64 scalars of one data
set, which cost less than one-element arrays and keep their inf and NaN
under the same ``np.errstate``, and raises ``FitError`` where a fit
fails.  ``_holds`` says for both where that is.  Squares are products
(``** 2`` on a numpy scalar is C ``pow``, which can miss ``x * x`` in
the last bit), so a one-row result is its batch row to the bit.

The statistic itself is the inner product of the restricted score with
the tested-component estimate shift,

    S = n * U_1(theta_tilde)' (theta_hat_1 - theta10),

using that the nuisance score components vanish at theta_tilde.  S is
asymptotically nonnegative but finite samples can push it slightly below
zero through MLE tolerance (or, at very small n, through genuine
finite-sample sign disagreement of the two factors); the value is
clamped to zero with a flag and the raw number kept.
"""

from __future__ import annotations

import functools
import itertools
import math
from abc import ABC, abstractmethod

import numpy as np

from .._record import Record
from ..expansion import (ExpansionCoefficients, OneParamCumulants,
                         OrthogonalCumulants, coefficients_general,
                         coefficients_one_param, coefficients_orthogonal)

__all__ = ["ModelFamily", "GradientStatistic", "FitError",
           "gradient_statistic", "check_observations", "POSITIVE"]


class FitError(RuntimeError):
    """Maximum likelihood fit failed to converge."""


class GradientStatistic(Record):
    """Gradient test statistic with its sample size and the restricted
    MLE it was evaluated at."""

    __slots__ = ("value", "n", "raw", "theta_tilde", "clamped")

    def __init__(self, value: float, n: int, raw: float,
                 theta_tilde: np.ndarray, clamped: bool = False):
        self._fill(value, n, raw, theta_tilde, clamped)


class ModelFamily(ABC):
    """Interface every built-in family implements.

    A family declares its parameter space once, as ``lower``: theta lies
    in it when every component is finite and above its bound.  Every
    theta and theta10 the family takes is checked against it here, by
    ``_theta`` and ``_null``."""

    name: str = ""
    p: int = 1
    q: int = 1
    samples: int = 1            # independent samples per data set
    # display names of the components of theta, a sensible default
    # evaluation point (used by the command line when none is given), and
    # the open lower bound of each component
    param_names: tuple = ("phi",)
    default_theta: tuple = (1.0,)
    lower: tuple = (-math.inf,)

    @abstractmethod
    def sample(self, theta, size, rng: np.random.Generator):
        """Draw at theta: one data set for size = n, a data matrix for
        size = (k, n).

        Row r of a (k, n) matrix consumes draws r*n .. (r+1)*n - 1 of rng,
        so it equals the r-th of k successive size-n draws.
        """

    @abstractmethod
    def summarize(self, x):
        """Per-row summaries of the (k, n) data matrix x: a tuple of n, then
        arrays of one value per row, and any per-block items as a tuple,
        which is how ``_summaries`` joins the summaries of several
        matrices."""

    @abstractmethod
    def estimates(self, m, theta10) -> tuple:
        """The restricted fit theta_tilde, its first q components at
        theta10, and the full fit theta_hat from summaries m, each as the
        pair (its p components, its flag) that ``_holds`` reads.
        Arithmetic only, on the per-row values of m as arrays or as numpy
        float64 scalars, a scalar (such as theta10's) standing for every
        row.  theta10 comes checked by ``_null``, and theta_hat does not
        depend on it."""

    @abstractmethod
    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        """Unclamped S = n U_1(theta_tilde)'(theta_hat_1 - theta10) per row,
        from the components of both fits, as ``estimates`` gives them."""

    def cumulant_entries(self, theta) -> tuple:
        """Every cumulant at theta checked by ``_theta``, stated once, as a
        Python float: six dicts in CumulantBundle field order, each keyed
        by the index sorted within each run of the array's interchangeable
        axes, whose lengths ``SYMMETRY`` gives: kappa2, kappa3 and kappa4
        are fully symmetric, d_kappa2[k,l,u] = D_u kappa_kl is symmetric in
        (k, l), d_kappa3[j,r,s,u] = D_j kappa_rsu in (r, s, u), and
        dd_kappa2[j,r,s,u] = D_j D_r kappa_su in (j, r) and in (s, u).  A
        missing entry is zero: at p = 1 all six are stated, zero or not,
        and at larger p one that is zero at every theta is left out."""
        raise NotImplementedError(f"{self.name} has no cumulant arrays")

    def cumulant_arrays(self, theta) -> tuple:
        """The six arrays of ``cumulants`` in CumulantBundle field order,
        at theta checked by ``_theta``, without the bundle's shape,
        symmetry and definiteness checks: here each entry on every index
        that the array's symmetry makes equal to its own, zero elsewhere."""
        entries = self.cumulant_entries(theta)
        values = np.array([0.0, *itertools.chain(*map(dict.values, entries))])
        return tuple([values[g] for g in
                      _gathers(self.p, tuple(map(tuple, entries)))])

    def cumulants(self, theta) -> CumulantBundle:
        """Analytic per-observation cumulant arrays at theta."""
        from ..cumulants import CumulantBundle
        return CumulantBundle(*self.cumulant_arrays(theta))

    def specialized_coefficients(self, theta) -> ExpansionCoefficients:
        """The scalar route: the closed forms of ``_ROUTES`` for (p, q) on
        the scalars their record's ``index`` reads from the entries, Python
        floats, so a value out of range raises instead of running on."""
        if (self.p, self.q) not in _ROUTES:
            raise NotImplementedError(f"{self.name} has no specialized route")
        scalars, closed_forms = _ROUTES[self.p, self.q]
        entries = self.cumulant_entries(theta)
        if entries[0].get((0, 1), 0.0) != 0.0:
            raise NotImplementedError(f"{self.name}: parameters are not "
                                      "orthogonal")
        try:
            coef = closed_forms(scalars(*[entries[a].get(i, 0.0)
                                          for a, i in scalars.index]))
            if all(map(math.isfinite, coef.as_tuple())):
                return coef
        except (OverflowError, ZeroDivisionError):
            pass
        raise ZeroDivisionError(f"{self.name}: parameter too small for A")

    def coefficients(self, theta) -> ExpansionCoefficients:
        """The specialized route where the family has one, else the
        general route."""
        try:
            return self.specialized_coefficients(theta)
        except NotImplementedError:
            return self.general_coefficients(theta)

    def validate_data(self, data) -> None:
        """Raise ValueError naming the first offending observation."""

    def hypothesis(self, theta10) -> HypothesisSpec:
        from ..cumulants import HypothesisSpec
        return HypothesisSpec(p=self.p, q=self.q,
                              theta10=tuple(self._null(theta10).tolist()))

    def general_coefficients(self, theta) -> ExpansionCoefficients:
        """Full tensor-contraction route on this family's cumulants."""
        from ..cumulants import HypothesisSpec
        return coefficients_general(self.cumulants(theta),
                                    HypothesisSpec(p=self.p, q=self.q))

    @staticmethod
    def _as_row(data) -> np.ndarray:
        """One data set as a (1, n) data matrix; a pair of equal-length
        samples becomes sample 1 followed by sample 2."""
        return np.asarray(data, dtype=float).reshape(1, -1)

    def _point(self, values, k, what) -> np.ndarray:
        """values, the first k components of theta and ``what`` in
        messages, as a float array; ValueError unless there are k of them,
        all finite and each above its bound in ``lower``."""
        x = np.atleast_1d(np.asarray(values, dtype=float))
        if x.shape != (k,):
            got = x.size if x.ndim == 1 else f"shape {x.shape}"
            raise ValueError(f"{what} must have {k} value(s) for "
                             f"{self.name}, got {got}")
        # over k values a Python loop is cheaper than a numpy reduction
        v = x.tolist()
        if not all(map(math.isfinite, v)):
            raise ValueError(f"{what} must be finite, got {tuple(v)}")
        for name, lo, value in zip(self.param_names, self.lower, v):
            if not value > lo:
                raise ValueError(f"{self.name}: {name} must exceed {lo}, "
                                 f"got {value}")
        return x

    def _theta(self, theta) -> np.ndarray:
        """theta, checked by ``_point``."""
        return self._point(theta, self.p, "theta")

    def _null(self, theta10) -> np.ndarray:
        """theta10, the null of the first q components, checked by
        ``_point``."""
        return self._point(theta10, self.q, "theta10")

    def _one_row(self, data, theta10) -> tuple:
        """The one-row driver's arithmetic: summaries m of one data set,
        each per-row value a numpy float64 scalar, checked theta10, and
        ``estimates`` on them.  Run under ``np.errstate(all="ignore")``."""
        x = self._as_row(data)
        theta10 = self._null(theta10)
        n, *values = self.summarize(x)
        m = (n, *(v if isinstance(v, tuple) else v[0] for v in values))
        return m, theta10, self.estimates(m, theta10)

    def _fitted(self, theta, ok, which) -> np.ndarray:
        """The one-row driver's failure marking: the components theta as a
        (p,) array, or FitError where the fit does not hold."""
        fit = np.array(theta, dtype=float)
        # read as Python scalars: in numpy 2, & of a numpy and a Python
        # scalar costs about 1 us, twenty times & of two of one kind
        if not _holds(fit.tolist(), bool(ok)):
            raise FitError(f"{self.name}: {which} fit failed")
        return fit

    def _summaries(self, blocks) -> tuple:
        """``summarize`` of the rows of the data matrices in ``blocks``, end
        to end: n per row, the per-row arrays joined, and the per-block
        tuples joined.  One matrix keeps its own summaries, n a scalar."""
        if len(blocks) == 1:
            return self.summarize(blocks[0])
        parts = [self.summarize(x) for x in blocks]
        n = np.repeat([p[0] for p in parts], [len(x) for x in blocks])
        return (n,) + tuple(sum(c, ()) if isinstance(c[0], tuple)
                            else np.concatenate(c)
                            for c in list(zip(*parts))[1:])

    def fit_rows(self, m, theta10) -> tuple:
        """(k, p) MLEs theta_tilde and theta_hat from the summaries m of k
        rows, a row per data set, all NaN in a row where that fit fails."""
        k = len(m[1])
        return tuple(np.where(_holds(theta, ok),
                              [np.broadcast_to(c, k) for c in theta], np.nan).T
                     for theta, ok in self.estimates(m, self._null(theta10)))

    def batch_statistics(self, data, theta10) -> tuple:
        """S per row of a (k, n) data matrix from ``sample``, or of a list of
        such matrices, each with its own n, end to end; clamped at zero and
        NaN where a fit fails or S is not finite; and the count of NaN."""
        blocks = [np.asarray(x, dtype=float)
                  for x in (data if isinstance(data, list) else [data])]
        theta10 = self._null(theta10)
        # failed fits and overflow come back as NaN and inf, not warnings
        with np.errstate(all="ignore"):
            m = self._summaries(blocks)
            (tilde, ok_tilde), (hat, ok_hat) = self.estimates(m, theta10)
            raw = self.raw_statistic(m, theta10, tilde, hat)
        failed = ~(_holds(tilde, ok_tilde) & _holds(hat, ok_hat)
                   & np.isfinite(raw))
        S = np.where(failed, np.nan, np.where(raw < 0.0, 0.0, raw))
        return S, int(np.count_nonzero(failed))

    def _fit_one(self, data, theta10, which) -> np.ndarray:
        """Fit ``which`` of ``estimates`` (0 restricted, 1 unrestricted) of
        one data set."""
        with np.errstate(all="ignore"):
            fit = self._one_row(data, theta10)[2][which]
        return self._fitted(*fit, ("restricted", "unrestricted")[which])

    def fit_restricted(self, data, theta10) -> np.ndarray:
        """MLE theta_tilde of one data set, first q components at theta10."""
        return self._fit_one(data, theta10, 0)

    def fit_unrestricted(self, data) -> np.ndarray:
        """Full MLE theta_hat of one data set, at the default null, which
        theta_hat does not depend on."""
        return self._fit_one(data, self.default_theta[:self.q], 1)


def _holds(theta, ok):
    """The one failure rule of both drivers: a fit holds where its flag ok
    is true and no component of theta is NaN, per row or as one bool."""
    for component in theta:
        ok = ok & (component == component)
    return ok


# the scalar routes by (p, q): the record of the scalars, the closed forms
_ROUTES = {(1, 1): (OneParamCumulants, coefficients_one_param),
           (2, 1): (OrthogonalCumulants, coefficients_orthogonal)}

# the lengths of the runs of interchangeable axes of each cumulant array
SYMMETRY = ((2,), (3,), (4,), (2, 1), (1, 3), (2, 2))


@functools.cache
def _gathers(p, keys) -> list:
    """Per array of the entries' keys, the position of each element's value
    among the entries' values after a leading zero; built once per family."""
    gathers, k = [], 1
    for runs, array_keys in zip(SYMMETRY, keys):
        gathers.append(np.zeros((p,) * sum(runs), dtype=np.intp))
        ends = list(itertools.accumulate(runs))
        for idx in array_keys:
            parts = [set(itertools.permutations(idx[e - n:e]))
                     for n, e in zip(runs, ends)]
            for part in itertools.product(*parts):
                gathers[-1][sum(part, ())] = k
            k += 1
    return gathers


# (support predicate, reason) for check_observations
POSITIVE = (lambda x: x > 0.0, "must be positive")


def check_observations(name, data, support=(None, ""), prefix="",
                       least=1) -> np.ndarray:
    """data as a 1-D float array; else ValueError naming the first
    observation that is not finite or, where the (predicate, reason) pair
    ``support`` has an elementwise predicate, lies outside it for that
    reason, or saying that there are fewer than ``least`` observations."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name}: data must be one-dimensional")
    ok = np.isfinite(x)
    if support[0] is not None:
        ok &= support[0](x)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        v = x[i]
        why = support[1] if np.isfinite(v) else "not finite"
        raise ValueError(f"{prefix}observation {i + 1}: {why} ({v})")
    if len(x) < least:
        plural = "s" if least > 1 else ""
        raise ValueError(f"{name}: {prefix}need at least {least} "
                         f"observation{plural}")
    return x


def gradient_statistic(model: ModelFamily, data, theta10) -> GradientStatistic:
    """S = n U_1(theta_tilde)'(theta_hat_1 - theta10) of one data set,
    clamped at zero, by the one-row driver: the arithmetic of a row of
    ``batch_statistics`` on numpy scalars.  FitError where a fit fails,
    OverflowError where S does not fit in a float."""
    with np.errstate(all="ignore"):
        m, theta10, (tilde, hat) = model._one_row(data, theta10)
        raw = model.raw_statistic(m, theta10, tilde[0], hat[0])
    theta_tilde = model._fitted(*tilde, "restricted")
    model._fitted(*hat, "unrestricted")
    raw = float(raw)
    if not math.isfinite(raw):
        raise OverflowError(f"{model.name}: the statistic overflowed")
    return GradientStatistic(value=max(raw, 0.0), n=m[0], raw=raw,
                             theta_tilde=theta_tilde, clamped=raw < 0.0)
