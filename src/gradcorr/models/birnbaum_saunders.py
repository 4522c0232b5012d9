"""Birnbaum-Saunders shape test with unknown scale.

CDF Phi(rho(x/beta)/phi) with rho(z) = z^{1/2} - z^{-1/2}; phi > 0 is the
tested shape, beta > 0 the nuisance scale.  The per-observation
log-likelihood is

    ell = -(x/beta + beta/x - 2)/(2 phi^2) - log phi + log(x + beta)
          - (1/2) log beta + const,

and with s = mean(x), r = 1/mean(1/x), sbar = s/beta, rbar = beta/r the
statistic is S = n (phi_hat - phi0) {sbar + rbar - (2 + phi0^2)} / phi0^3,
sbar and rbar evaluated at the restricted scale estimate.

Fitting.  The restricted scale solves H(b) = 0 where

    H(b) = (s - b^2/r)/phi0^2 - b + 2 b^2 mean(1/(x+b)),

which is 2 b^2 / n times the beta-score.  H(0) = s/phi0^2 > 0, and the
root lies below hi = phi0^2 r + sqrt(s r): as mean(1/(x+b)) < 1/b,
H(b) < (s - b^2/r)/phi0^2 + b, which equals -sqrt(s r) at b = hi, so
H(hi) < -sqrt(s r) < 0.  The unrestricted fit profiles out
phi via phi^2 = s/b + b/r - 2 (the phi-score identity), leaving

    G(b) = b^2 - b (K + 2 r) + r (K + s),   K(b) = 1/mean(1/(x+b)),

with G(r) >= 0 >= G(s), so beta_hat is bracketed by the harmonic and
arithmetic means.  Each equation is written once, for a (k, n) matrix
of data sets, and solved row by row from sqrt(s r) by one safeguarded
Newton: a step is taken when it stays inside the shrinking bracket, its
ends included, and the bracket is bisected otherwise, until a step moves
the root by at most 1e-13 relative, in at most 200 steps.  A row that
does not converge is a failed fit.

Cumulants involve the scaled normal tail R = e^{2/phi^2}(1 - Phi(2/phi))
only through kappa_betabeta and its relatives; everything is assembled
from closed forms, no quadrature at run time.
"""

from __future__ import annotations

import numpy as np

from ..special import std_normal_tail_scaled
from ._build import pair_fill, sym_fill
from .base import POSITIVE, ModelFamily, check_observations

__all__ = ["BirnbaumSaunders"]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_REL_TOL = 1e-13


def _safeguarded_newton(f, lo, hi, x0):
    """Row-wise root of f on [lo, hi] with f(lo) > 0 >= f(hi), where f(x)
    gives f and f' per row: Newton while the step stays inside the
    shrinking bracket, ends included, bisection otherwise.  Returns the
    roots and which rows converged; a converged row stays where it is."""
    x = np.clip(x0, lo, hi)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(200):
        fx, d = f(x)
        above = fx > 0.0
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        step = x - fx / d
        inside = (lo <= step) & (step <= hi)
        if not inside.all():
            step = np.where(inside, step, 0.5 * (lo + hi))
        x_new = np.where(done, x, step) if done.any() else step
        done |= np.abs(x_new - x) <= _REL_TOL * np.abs(x_new)
        x = x_new
        if done.all():
            break
    return x, done


def _inverse_means(x, b):
    """mean(1/(x+b)) and mean(1/(x+b)^2) per row of x, from one pass."""
    u = 1.0 / (x + b[:, None])
    return u.sum(axis=1) / x.shape[1], (u * u).sum(axis=1) / x.shape[1]


class BirnbaumSaunders(ModelFamily):
    """Birnbaum-Saunders(phi, beta), testing the shape phi."""

    name = "birnbaum-saunders"
    p = 2
    q = 1
    param_names = ("phi", "beta")
    default_theta = (1.0, 1.0)

    @staticmethod
    def _check_theta(theta) -> tuple:
        phi, beta = (float(v) for v in np.atleast_1d(theta))
        if not phi > 0.0 or not beta > 0.0:
            raise ValueError(f"shape and scale must be positive, "
                             f"got ({phi}, {beta})")
        return phi, beta

    def sample(self, theta, size, rng):
        phi, beta = self._check_theta(theta)
        t = 0.5 * phi * rng.standard_normal(size)
        return beta * (t + np.sqrt(t * t + 1.0)) ** 2

    def validate_data(self, data):
        check_observations(self.name, data, *POSITIVE, least=2)

    def summarize(self, x):
        """x with its row means s and row harmonic means r."""
        n = x.shape[1]
        return x, x.sum(axis=1) / n, 1.0 / ((1.0 / x).sum(axis=1) / n)

    def restricted_rows(self, m, theta10):
        x, s, r = m
        phi0 = float(theta10[0])
        if not phi0 > 0.0:
            raise ValueError(f"null shape must be positive, got {phi0}")

        def H(b):
            m1, m2 = _inverse_means(x, b)
            return ((s - b * b / r) / phi0**2 - b + 2.0 * b * b * m1,
                    -2.0 * b / (r * phi0**2) - 1.0 + 4.0 * b * m1
                    - 2.0 * b * b * m2)

        root_sr = np.sqrt(s * r)
        beta, ok = _safeguarded_newton(H, np.zeros_like(s),
                                       phi0**2 * r + root_sr, root_sr)
        return np.array([np.full_like(beta, phi0),
                         np.where(ok, beta, np.nan)]).T

    def unrestricted_rows(self, m):
        x, s, r = m

        def G(b):
            m1, m2 = _inverse_means(x, b)
            K = 1.0 / m1
            return (b * b - b * (K + 2.0 * r) + r * (K + s),
                    2.0 * b - K - 2.0 * r + (r - b) * (m2 / m1**2))

        beta, ok = _safeguarded_newton(G, r, s, np.sqrt(s * r))
        phi_sq = s / beta + beta / r - 2.0
        ok &= (s > r) & (phi_sq > 0.0)
        return np.where(ok[:, None],
                        np.array([np.sqrt(phi_sq), beta]).T, np.nan)

    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        x, s, r = m
        phi0, bt = float(theta10[0]), theta_tilde[:, 1]
        return (x.shape[1] * (theta_hat[:, 0] - phi0) / phi0**3
                * (s / bt + bt / r - (2.0 + phi0**2)))

    def score(self, data, theta):
        x, (s,), (r,) = self.summarize(self._as_row(data))
        phi, beta = self._check_theta(theta)
        u_phi = (s / beta + beta / r - 2.0 - phi**2) / phi**3
        u_beta = (s / beta**2 - 1.0 / r) / (2.0 * phi**2) \
            - 0.5 / beta + float(np.mean(1.0 / (x + beta)))
        return np.array([u_phi, u_beta])

    def cumulant_arrays(self, theta) -> tuple:
        f, b = self._check_theta(theta)
        R = std_normal_tail_scaled(2.0 / f)
        T = f**2 - _SQRT_2PI * f * R + 2.0
        k2 = np.zeros((2, 2))
        k2[0, 0] = -2.0 / f**2
        k2[1, 1] = -T / (2.0 * b**2 * f**2)
        k3 = np.zeros((2, 2, 2))
        k3[0, 0, 0] = 10.0 / f**3
        sym_fill(k3, (0, 1, 1), (f**2 + 2.0) / (b**2 * f**3))
        k3[1, 1, 1] = 1.5 * T / (b**3 * f**2)
        k4 = np.zeros((2, 2, 2, 2))
        k4[0, 0, 0, 0] = -54.0 / f**4
        sym_fill(k4, (0, 0, 1, 1), -3.0 * (f**2 + 2.0) / (b**2 * f**4))
        sym_fill(k4, (0, 1, 1, 1), -3.0 * (f**2 + 2.0) / (b**3 * f**3))
        k4[1, 1, 1, 1] = 3.0 * (-16.0 * f**3 + 15.0 * _SQRT_2PI * f**2 * R
                                - 34.0 * f + 4.0 * _SQRT_2PI * R) \
            / (8.0 * b**4 * f**3)
        kbb_phi = (-_SQRT_2PI * f**2 * R + 6.0 * f - 4.0 * _SQRT_2PI * R) \
            / (2.0 * b**2 * f**4)
        d2 = np.zeros((2, 2, 2))                  # [k,l,u] = D_u kappa_{kl}
        d2[0, 0, 0] = 4.0 / f**3
        d2[1, 1, 0] = kbb_phi
        d2[1, 1, 1] = T / (b**3 * f**2)
        d3 = np.zeros((2, 2, 2, 2))               # [j,r,s,u] = D_j kappa_{rsu}
        d3[0, 0, 0, 0] = -30.0 / f**4
        sym_fill(d3[0], (0, 1, 1), -(f**2 + 6.0) / (b**2 * f**4))
        sym_fill(d3[1], (0, 1, 1), -2.0 * (f**2 + 2.0) / (b**3 * f**3))
        d3[0, 1, 1, 1] = 1.5 * (_SQRT_2PI * f**2 * R - 6.0 * f
                                + 4.0 * _SQRT_2PI * R) / (b**3 * f**4)
        d3[1, 1, 1, 1] = -4.5 * T / (b**4 * f**2)
        dd2 = np.zeros((2, 2, 2, 2))              # [j,r,s,u] = D_j D_r kappa_{su}
        pair_fill(dd2, (0, 0), (0, 0), -12.0 / f**4)
        pair_fill(dd2, (0, 0), (1, 1),
                  (_SQRT_2PI * f**4 * R - 10.0 * f**3
                   + 10.0 * _SQRT_2PI * f**2 * R - 4.0 * f
                   + 8.0 * _SQRT_2PI * R) / (b**2 * f**7))
        pair_fill(dd2, (0, 1), (1, 1),
                  (_SQRT_2PI * f**2 * R - 6.0 * f + 4.0 * _SQRT_2PI * R)
                  / (b**3 * f**4))
        pair_fill(dd2, (1, 1), (1, 1), -3.0 * T / (b**4 * f**2))
        return k2, k3, k4, d2, d3, dd2
