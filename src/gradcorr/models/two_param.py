"""Two-parameter families with a scalar tested parameter.

Both families here are orthogonal (kappa_phibeta = 0) with closed-form
fits, so they exercise the nuisance-parameter machinery end to end
without any iterative optimization.

Normal, testing the mean with unknown variance: with T1 = (xbar - phi0)^2
and T2 = mean((x - xbar)^2), the statistic collapses to

    S = n T1 / (T1 + T2),

so S/n is exactly Beta(1/2, (n-1)/2) under the null -- a rare case where
every approximation in this package can be compared to truth.

Two-sample exponential, testing the mean ratio phi = mu2/mu1 with the
geometric-mean scale beta = sqrt(mu1 mu2) as nuisance: equal sample
sizes n/2 each, n total.  At phi0 = 1 the statistic is
S = n (xbar1 - xbar2)^2 / (4 xbar1 xbar), xbar the pooled mean.
"""

from __future__ import annotations

import numpy as np

from ._build import pair_fill, sym_fill
from .base import POSITIVE, ModelFamily, check_observations

__all__ = ["NormalMeanTest", "TwoSampleExponential"]


class NormalMeanTest(ModelFamily):
    """Normal(phi, beta), testing the mean phi; variance beta unknown."""

    name = "two-parameter-normal"
    p = 2
    q = 1
    param_names = ("phi", "beta")
    default_theta = (0.0, 1.0)
    lower = (-np.inf, 0.0)

    def sample(self, theta, size, rng):
        phi, beta = self._theta(theta).tolist()
        return rng.normal(phi, np.sqrt(beta), size=size)

    def validate_data(self, data):
        check_observations(self.name, data, least=2)

    def summarize(self, x):
        n = x.shape[1]
        xbar = x.sum(axis=1) / n
        return n, xbar, ((x - xbar[:, None]) ** 2).sum(axis=1) / n

    def estimates(self, m, theta10):
        _, xbar, t2 = m
        phi0 = float(theta10[0])
        shift = xbar - phi0
        var = shift * shift + t2
        return ((phi0, var), var > 0.0), ((xbar, t2), t2 > 0.0)

    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        n, xbar, _ = m
        shift = xbar - float(theta10[0])
        return n * (shift * shift) / theta_tilde[1]

    def cumulant_arrays(self, theta) -> tuple:
        _, b = self._theta(theta).tolist()
        k2 = np.zeros((2, 2))
        k2[0, 0] = -1.0 / b
        k2[1, 1] = -0.5 / b**2
        k3 = np.zeros((2, 2, 2))
        sym_fill(k3, (0, 0, 1), 1.0 / b**2)
        k3[1, 1, 1] = 2.0 / b**3
        k4 = np.zeros((2, 2, 2, 2))
        sym_fill(k4, (0, 0, 1, 1), -2.0 / b**3)
        k4[1, 1, 1, 1] = -9.0 / b**4
        d2 = np.zeros((2, 2, 2))                  # [k,l,u] = D_u kappa_{kl}
        d2[0, 0, 1] = 1.0 / b**2
        d2[1, 1, 1] = 1.0 / b**3
        d3 = np.zeros((2, 2, 2, 2))               # [j,r,s,u] = D_j kappa_{rsu}
        sym_fill(d3[1], (0, 0, 1), -2.0 / b**3)
        d3[1, 1, 1, 1] = -6.0 / b**4
        dd2 = np.zeros((2, 2, 2, 2))              # [j,r,s,u] = D_j D_r kappa_{su}
        pair_fill(dd2, (1, 1), (0, 0), -2.0 / b**3)
        pair_fill(dd2, (1, 1), (1, 1), -3.0 / b**4)
        return k2, k3, k4, d2, d3, dd2


class TwoSampleExponential(ModelFamily):
    """Exponential mean ratio test on two independent balanced samples."""

    name = "two-sample-exponential"
    p = 2
    q = 1
    samples = 2
    param_names = ("phi", "beta")
    default_theta = (1.0, 1.0)
    lower = (0.0, 0.0)

    def sample(self, theta, size, rng):
        """A pair of samples for size = n; for size = (k, n) a matrix whose
        rows hold sample 1 in the first n/2 columns, sample 2 in the rest."""
        phi, beta = self._theta(theta).tolist()
        n = np.atleast_1d(size)[-1]
        if n % 2 != 0:
            raise ValueError(f"total sample size must be even, got {n}")
        m = n // 2
        rp = np.sqrt(phi)
        x = rng.standard_exponential(size)
        x[..., :m] *= beta / rp
        x[..., m:] *= beta * rp
        return (x[:m], x[m:]) if x.ndim == 1 else x

    def validate_data(self, data):
        x1, x2 = (np.asarray(x, dtype=float) for x in data)
        if len(x1) != len(x2):
            raise ValueError(f"{self.name}: samples must have equal length "
                             f"({len(x1)} vs {len(x2)})")
        for label, x in (("sample 1", x1), ("sample 2", x2)):
            check_observations(self.name, x, POSITIVE, prefix=f"{label}, ")

    def summarize(self, x):
        n = x.shape[1]
        if n % 2 != 0:
            raise ValueError(f"total sample size must be even, got {n}")
        h = n // 2
        return n, x[:, :h].sum(axis=1) / h, x[:, h:].sum(axis=1) / h

    def estimates(self, m, theta10):
        _, m1, m2 = m
        phi0 = float(theta10[0])
        rp = np.sqrt(phi0)
        beta = 0.5 * (m1 * rp + m2 / rp)
        return (((phi0, beta), beta > 0.0),
                ((m2 / m1, np.sqrt(m1 * m2)), (m1 > 0.0) & (m2 > 0.0)))

    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        n, m1, m2 = m
        phi0 = float(theta10[0])
        rp = np.sqrt(phi0)
        u_phi = (-m1 / rp + m2 / (phi0 * rp)) / (4.0 * theta_tilde[1])
        return n * u_phi * (theta_hat[0] - phi0)

    def cumulant_arrays(self, theta) -> tuple:
        f, b = self._theta(theta).tolist()
        k2 = np.zeros((2, 2))
        k2[0, 0] = -0.25 / f**2
        k2[1, 1] = -1.0 / b**2
        k3 = np.zeros((2, 2, 2))
        k3[0, 0, 0] = 0.75 / f**3
        sym_fill(k3, (0, 0, 1), 0.25 / (b * f**2))
        k3[1, 1, 1] = 4.0 / b**3
        k4 = np.zeros((2, 2, 2, 2))
        k4[0, 0, 0, 0] = -45.0 / (16.0 * f**4)
        sym_fill(k4, (0, 0, 0, 1), -0.75 / (b * f**3))
        sym_fill(k4, (0, 0, 1, 1), -0.5 / (b**2 * f**2))
        k4[1, 1, 1, 1] = -18.0 / b**4
        d2 = np.zeros((2, 2, 2))
        d2[0, 0, 0] = 0.5 / f**3
        d2[1, 1, 1] = 2.0 / b**3
        d3 = np.zeros((2, 2, 2, 2))
        d3[0, 0, 0, 0] = -2.25 / f**4
        sym_fill(d3[0], (0, 0, 1), -0.5 / (b * f**3))
        sym_fill(d3[1], (0, 0, 1), -0.25 / (b**2 * f**2))
        d3[1, 1, 1, 1] = -12.0 / b**4
        dd2 = np.zeros((2, 2, 2, 2))
        pair_fill(dd2, (0, 0), (0, 0), -1.5 / f**4)
        pair_fill(dd2, (1, 1), (1, 1), -6.0 / b**4)
        return k2, k3, k4, d2, d3, dd2
