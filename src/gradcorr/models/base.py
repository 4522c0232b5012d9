"""Model family interface and the gradient statistic.

A family bundles everything a test or a simulation needs: a sampler, the
two maximum likelihood fits, the statistic and the analytic cumulant
arrays.  Data is a 1-D float array for one-sample families; the
two-sample family takes a pair of equal-length arrays and counts both
samples in n.

Each family writes its two fits and its statistic once, row-wise on a
(k, n) data matrix holding one data set per row; a two-sample row is
sample 1 in its first n/2 columns and sample 2 in the rest.
``batch_statistics`` reduces the Monte Carlo matrix, or several of
different n at once: their summaries are joined end to end, each row
carrying its own n, so the fits and the statistic run once over all the
rows.  ``gradient_statistic`` is its one-row case.  ``fit_rows`` is the
one fitting method: it writes both fits at once, and ``fit_restricted``
and ``fit_unrestricted`` are its one-row views, which raise ``FitError``
where the row fails.

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

import math
from abc import ABC, abstractmethod

import numpy as np

from .._record import Record
from ..expansion import (ExpansionCoefficients, OrthogonalCumulants,
                         coefficients_general, coefficients_orthogonal)

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
    """Interface every built-in family implements."""

    name: str = ""
    p: int = 1
    q: int = 1
    samples: int = 1            # independent samples per data set
    # display names of the components of theta, and a sensible default
    # evaluation point (used by the command line when none is given)
    param_names: tuple = ("phi",)
    default_theta: tuple = (1.0,)

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
    def fit_rows(self, m, theta10) -> tuple:
        """(k, p) MLEs theta_tilde, the first q components fixed at theta10,
        and (k, p) full MLEs theta_hat from summaries m; NaN in a row where
        that fit failed, ValueError for a theta10 outside the parameter
        space.  theta_hat does not depend on theta10."""

    @abstractmethod
    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        """Unclamped S = n U_1(theta_tilde)'(theta_hat_1 - theta10) per row."""

    def cumulant_arrays(self, theta) -> tuple:
        """The six arrays of ``cumulants`` in CumulantBundle field order,
        without the bundle's shape, symmetry and definiteness checks."""
        raise NotImplementedError(f"{self.name} has no cumulant arrays")

    def cumulants(self, theta) -> CumulantBundle:
        """Analytic per-observation cumulant arrays at theta."""
        from ..cumulants import CumulantBundle
        return CumulantBundle(*self.cumulant_arrays(theta))

    def specialized_coefficients(self, theta) -> ExpansionCoefficients:
        """The scalar route: here the orthogonal closed forms (p = 2, q = 1,
        kappa_phibeta = 0), which one-parameter families override."""
        if (self.p, self.q) != (2, 1):
            raise NotImplementedError(f"{self.name} has no specialized route")
        arrays = self.cumulant_arrays(theta)
        if arrays[0][0, 1] != 0.0:
            raise NotImplementedError(f"{self.name}: parameters are not "
                                      "orthogonal")
        return coefficients_orthogonal(
            OrthogonalCumulants.from_arrays(*arrays))

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
        theta10 = np.atleast_1d(np.asarray(theta10, dtype=float))
        return HypothesisSpec(p=self.p, q=self.q, theta10=tuple(theta10))

    def general_coefficients(self, theta) -> ExpansionCoefficients:
        """Full tensor-contraction route on this family's cumulants."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return coefficients_general(self.cumulants(theta),
                                    self.hypothesis(theta[:self.q]))

    @staticmethod
    def _as_row(data) -> np.ndarray:
        """One data set as a (1, n) data matrix; a pair of equal-length
        samples becomes sample 1 followed by sample 2."""
        return np.asarray(data, dtype=float).reshape(1, -1)

    def _null(self, theta10) -> np.ndarray:
        theta10 = np.atleast_1d(np.asarray(theta10, dtype=float))
        if theta10.shape != (self.q,):
            raise ValueError(f"theta10 must have {self.q} value(s) for "
                             f"{self.name}, got {theta10.size}")
        if not all(map(math.isfinite, theta10.tolist())):
            raise ValueError(f"theta10 must be finite, got {tuple(theta10)}")
        return theta10

    def _one_row(self, fit, which) -> np.ndarray:
        # over p values a Python loop is cheaper than a numpy reduction
        if any(map(math.isnan, fit[0].tolist())):
            raise FitError(f"{self.name}: {which} fit failed")
        return fit[0]

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

    def _statistic_rows(self, blocks, theta10) -> tuple:
        """theta_tilde, theta_hat and raw S per row of the data matrices in
        ``blocks``, end to end."""
        theta10 = self._null(theta10)
        # failed fits and overflow come back as NaN and inf, not warnings
        with np.errstate(all="ignore"):
            m = self._summaries(blocks)
            theta_tilde, theta_hat = self.fit_rows(m, theta10)
            return (theta_tilde, theta_hat,
                    self.raw_statistic(m, theta10, theta_tilde, theta_hat))

    def batch_statistics(self, data, theta10) -> tuple:
        """S per row of a (k, n) data matrix from ``sample``, or of a list of
        such matrices, each with its own n, end to end; clamped at zero and
        NaN where a fit failed or S is not finite; and the number of such
        rows."""
        blocks = ([np.asarray(x, dtype=float) for x in data]
                  if isinstance(data, list) else
                  [np.asarray(data, dtype=float)])
        theta_tilde, theta_hat, raw = self._statistic_rows(blocks, theta10)
        failed = (np.isnan(theta_tilde).any(axis=1)
                  | np.isnan(theta_hat).any(axis=1) | ~np.isfinite(raw))
        S = np.where(failed, np.nan, np.where(raw < 0.0, 0.0, raw))
        return S, int(np.count_nonzero(failed))

    def _fit_one(self, data, theta10, which) -> np.ndarray:
        """Fit ``which`` of ``fit_rows`` (0 restricted, 1 unrestricted) of
        one data set."""
        with np.errstate(all="ignore"):
            fits = self.fit_rows(self.summarize(self._as_row(data)),
                                 self._null(theta10))
        return self._one_row(fits[which],
                             ("restricted", "unrestricted")[which])

    def fit_restricted(self, data, theta10) -> np.ndarray:
        """MLE theta_tilde of one data set, first q components at theta10."""
        return self._fit_one(data, theta10, 0)

    def fit_unrestricted(self, data) -> np.ndarray:
        """Full MLE theta_hat of one data set, at the default null, which
        theta_hat does not depend on."""
        return self._fit_one(data, self.default_theta[:self.q], 1)


# (support predicate, reason) for check_observations
POSITIVE = (lambda x: x > 0.0, "must be positive")


def check_observations(name, data, support=None, reason="", prefix="",
                       least=1) -> np.ndarray:
    """data as a 1-D float array; else ValueError naming the first
    observation that is not finite or, where ``support`` (an elementwise
    predicate) is given, lies outside it for ``reason``, or saying that
    there are fewer than ``least`` observations."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name}: data must be one-dimensional")
    ok = np.isfinite(x)
    if support is not None:
        ok &= support(x)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        v = x[i]
        why = reason if np.isfinite(v) else "not finite"
        raise ValueError(f"{prefix}observation {i + 1}: {why} ({v})")
    if len(x) < least:
        plural = "s" if least > 1 else ""
        raise ValueError(f"{name}: {prefix}need at least {least} "
                         f"observation{plural}")
    return x


def gradient_statistic(model: ModelFamily, data, theta10) -> GradientStatistic:
    """S = n U_1(theta_tilde)'(theta_hat_1 - theta10) of one data set,
    clamped at zero: the one-row case of ``batch_statistics``.  FitError
    where a fit fails, OverflowError where S does not fit in a float."""
    x = model._as_row(data)
    theta_tilde, theta_hat, raw = model._statistic_rows([x], theta10)
    theta_tilde = model._one_row(theta_tilde, "restricted")
    model._one_row(theta_hat, "unrestricted")
    raw = float(raw[0])
    if not math.isfinite(raw):
        raise OverflowError(f"{model.name}: the statistic overflowed")
    return GradientStatistic(value=max(raw, 0.0), n=x.shape[1], raw=raw,
                             theta_tilde=theta_tilde, clamped=raw < 0.0)
