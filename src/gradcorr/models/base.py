"""Model family interface and the gradient statistic.

A family bundles everything a test or a simulation needs: a sampler, the
two maximum likelihood fits, the per-observation score and the analytic
cumulant arrays.  Data is a 1-D float array for one-sample families; the
two-sample family takes a pair of equal-length arrays and counts both
samples in n.  The Monte Carlo path hands ``batch_statistics`` a (k, n)
matrix holding one data set per row; a two-sample row is sample 1 in
its first n/2 columns and sample 2 in the rest.

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

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..cumulants import CumulantBundle, HypothesisSpec
from ..expansion import (ExpansionCoefficients, OrthogonalCumulants,
                         coefficients_general, coefficients_orthogonal)

__all__ = ["ModelFamily", "GradientStatistic", "FitError",
           "gradient_statistic", "check_observations", "POSITIVE"]


class FitError(RuntimeError):
    """Maximum likelihood fit failed to converge."""


@dataclass(frozen=True)
class GradientStatistic:
    """Gradient test statistic with its sample size and the restricted
    MLE it was evaluated at."""

    value: float
    n: int
    raw: float
    theta_tilde: np.ndarray
    clamped: bool = False


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
    def fit_unrestricted(self, data) -> np.ndarray:
        """Full MLE theta_hat."""

    @abstractmethod
    def fit_restricted(self, data, theta10) -> np.ndarray:
        """MLE theta_tilde with the first q components fixed at theta10."""

    @abstractmethod
    def score(self, data, theta) -> np.ndarray:
        """Per-observation-scale score vector U(theta)."""

    def cumulant_arrays(self, theta) -> tuple:
        """The six arrays of ``cumulants`` in CumulantBundle field order,
        without the bundle's shape, symmetry and definiteness checks."""
        raise NotImplementedError(f"{self.name} has no cumulant arrays")

    def cumulants(self, theta) -> CumulantBundle:
        """Analytic per-observation cumulant arrays at theta."""
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

    def nobs(self, data) -> int:
        return len(data)

    def hypothesis(self, theta10) -> HypothesisSpec:
        theta10 = np.atleast_1d(np.asarray(theta10, dtype=float))
        return HypothesisSpec(p=self.p, q=self.q, theta10=tuple(theta10))

    def general_coefficients(self, theta) -> ExpansionCoefficients:
        """Full tensor-contraction route on this family's cumulants."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return coefficients_general(self.cumulants(theta),
                                    self.hypothesis(theta[:self.q]))

    def batch_statistics(self, data, theta10):
        """S per row of a (k, n) data matrix from ``sample`` and the number
        of rows whose fit failed.

        S is clamped at zero and NaN where a fit failed; each row agrees
        with ``gradient_statistic`` on that row's data set.
        """
        raise NotImplementedError(f"{self.name} has no batch statistic")


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


def batch_result(raw, failed) -> tuple:
    """(S clamped at zero, NaN where ``failed`` or raw is not finite;
    the number of such rows)."""
    failed = failed | ~np.isfinite(raw)
    S = np.where(failed, np.nan, np.where(raw < 0.0, 0.0, raw))
    return S, int(np.count_nonzero(failed))


def gradient_statistic(model: ModelFamily, data, theta10) -> GradientStatistic:
    """S = n U_1(theta_tilde)'(theta_hat_1 - theta10), clamped at zero."""
    theta10 = np.atleast_1d(np.asarray(theta10, dtype=float))
    if theta10.shape != (model.q,):
        raise ValueError(f"theta10 must have length q={model.q}")
    n = model.nobs(data)
    theta_tilde = np.atleast_1d(model.fit_restricted(data, theta10))
    theta_hat = np.atleast_1d(model.fit_unrestricted(data))
    u1 = np.atleast_1d(model.score(data, theta_tilde))[:model.q]
    raw = float(n * u1 @ (theta_hat[:model.q] - theta10))
    return GradientStatistic(value=max(raw, 0.0), n=n, raw=raw,
                             theta_tilde=theta_tilde, clamped=raw < 0.0)
