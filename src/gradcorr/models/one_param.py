"""One-parameter exponential-family models.

Each family writes its density as f(x; phi) = xi(phi) exp{-alpha(phi) d(x) + gamma(x)},
so the per-observation score is U = -alpha'(phi)(d(x) + beta(phi)) with
beta = -(log xi)'/alpha' and E d(X) = -beta(phi).  The full MLE solves
beta(phi_hat) = -dbar, which every family here inverts in closed form,
and the statistic reduces to S = n (phi0 - phi_hat) alpha'(phi0) (beta(phi0) + dbar).

Cumulant arrays come from the chain rule on ell = -alpha d + log xi:

    k_pp    = -a1 b1            k_pp^(p)   = -(a2 b1 + a1 b2)
    k_ppp   = -(2 a2 b1 + a1 b2)  k_ppp^(p) = -(2 a3 b1 + 3 a2 b2 + a1 b3)
    k_pppp  = -(3 a2 b2 + 3 a3 b1 + a1 b3)  k_pp^(pp) = -(a3 b1 + 2 a2 b2 + a1 b3)

where a_i, b_i are the i-th derivatives of alpha and beta.  Ten concrete
families are provided as factory functions; fixed shape constants (a known
mean, rate index, support endpoint) are bound at construction time.
"""

from __future__ import annotations

import numpy as np

from .._record import Record
from ..expansion import (ExpansionCoefficients, OneParamCumulants,
                         coefficients_one_param)
from .base import POSITIVE, ModelFamily, check_observations

__all__ = ["OneParamExpFamily", "exponential", "normal_mean_known",
           "normal_variance_known", "inverse_normal_mean_known",
           "inverse_normal_shape_known", "gamma_rate",
           "truncated_extreme_value", "pareto_shape", "power_shape",
           "laplace_scale"]


class _FamilySpec(Record):
    """A family's closures: d(x) elementwise; (a1, a2, a3) and (b1, b2, b3),
    the derivatives of alpha and beta at phi; beta(phi); the MLE from dbar,
    elementwise, which fit_rows makes NaN where it is not finite or out of
    range; and the sampler.  ``support`` is a (predicate, reason) pair for
    check_observations, None the real line; ``phi_min`` is the open lower
    bound for phi."""

    __slots__ = ("name", "d", "alpha_derivs", "beta", "beta_derivs",
                 "mle_from_dbar", "sampler", "support", "phi_min",
                 "param_name", "default_phi")

    def __init__(self, name, d, alpha_derivs, beta, beta_derivs,
                 mle_from_dbar, sampler, support=(None, ""), phi_min=0.0,
                 param_name="phi", default_phi=1.0):
        self._fill(name, d, alpha_derivs, beta, beta_derivs, mle_from_dbar,
                   sampler, support, phi_min, param_name, default_phi)


class OneParamExpFamily(ModelFamily):
    """Adapter turning the closures above into the ModelFamily interface."""

    p = 1
    q = 1

    def __init__(self, spec: _FamilySpec):
        self._spec = spec
        self.name = spec.name
        self.param_names = (spec.param_name,)
        self.default_theta = (spec.default_phi,)

    def _check_phi(self, theta) -> float:
        phi = float(np.atleast_1d(theta)[0])
        if not phi > self._spec.phi_min:
            raise ValueError(f"{self.name}: parameter must exceed "
                             f"{self._spec.phi_min}, got {phi}")
        return phi

    def sample(self, theta, size, rng):
        return self._spec.sampler(self._check_phi(theta), size, rng)

    def validate_data(self, data):
        check_observations(self.name, data, *self._spec.support)

    def summarize(self, x):
        # sum / n is mean(axis=1) to the bit, without its per-call overhead
        return x.shape[1], self._spec.d(x).sum(axis=1) / x.shape[1]

    def fit_rows(self, m, theta10):
        theta_tilde = np.full((len(m[1]), 1), self._check_phi(theta10))
        phi_hat = self._spec.mle_from_dbar(m[1])
        ok = np.isfinite(phi_hat) & (phi_hat > self._spec.phi_min)
        return theta_tilde, np.where(ok, phi_hat, np.nan)[:, None]

    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        n, dbar = m
        phi0, spec = float(theta10[0]), self._spec
        return (n * (phi0 - theta_hat[:, 0]) * spec.alpha_derivs(phi0)[0]
                * (spec.beta(phi0) + dbar))

    def scalar_cumulants(self, theta) -> OneParamCumulants:
        phi = self._check_phi(theta)
        a1, a2, a3 = self._spec.alpha_derivs(phi)
        b1, b2, b3 = self._spec.beta_derivs(phi)
        return OneParamCumulants(
            kpp=-a1 * b1,
            kppp=-(2.0 * a2 * b1 + a1 * b2),
            kpppp=-(3.0 * a2 * b2 + 3.0 * a3 * b1 + a1 * b3),
            kpp_p=-(a2 * b1 + a1 * b2),
            kppp_p=-(2.0 * a3 * b1 + 3.0 * a2 * b2 + a1 * b3),
            kpp_pp=-(a3 * b1 + 2.0 * a2 * b2 + a1 * b3),
        )

    def cumulant_arrays(self, theta) -> tuple:
        c = self.scalar_cumulants(theta)
        return tuple(np.full((1,) * k, float(v)) for v, k in (
            (c.kpp, 2), (c.kppp, 3), (c.kpppp, 4), (c.kpp_p, 3),
            (c.kppp_p, 4), (c.kpp_pp, 4)))

    def specialized_coefficients(self, theta) -> ExpansionCoefficients:
        return coefficients_one_param(self.scalar_cumulants(theta))


def exponential() -> OneParamExpFamily:
    """Exponential with mean phi."""
    return OneParamExpFamily(_FamilySpec(
        name="exponential",
        d=lambda x: x,
        alpha_derivs=lambda phi: (-1.0 / phi**2, 2.0 / phi**3, -6.0 / phi**4),
        beta=lambda phi: -phi,
        beta_derivs=lambda phi: (-1.0, 0.0, 0.0),
        mle_from_dbar=lambda dbar: dbar,
        sampler=lambda phi, size, rng: rng.exponential(phi, size=size),
        support=POSITIVE,
    ))


def normal_mean_known(mu: float = 0.0) -> OneParamExpFamily:
    """Normal with known mean; the tested parameter is the variance."""
    return OneParamExpFamily(_FamilySpec(
        name="normal-mean-known",
        d=lambda x: (x - mu)**2,
        alpha_derivs=lambda phi: (-0.5 / phi**2, 1.0 / phi**3, -3.0 / phi**4),
        beta=lambda phi: -phi,
        beta_derivs=lambda phi: (-1.0, 0.0, 0.0),
        mle_from_dbar=lambda dbar: dbar,
        sampler=lambda phi, size, rng: rng.normal(mu, np.sqrt(phi),
                                                  size=size),
    ))


def normal_variance_known(variance: float = 1.0) -> OneParamExpFamily:
    """Normal with known variance; the tested parameter is the mean."""
    if not variance > 0.0:
        raise ValueError("variance must be positive")
    return OneParamExpFamily(_FamilySpec(
        name="normal-variance-known",
        d=lambda x: x,
        alpha_derivs=lambda mu: (-1.0 / variance, 0.0, 0.0),
        beta=lambda mu: -mu,
        beta_derivs=lambda mu: (-1.0, 0.0, 0.0),
        mle_from_dbar=lambda dbar: dbar,
        sampler=lambda mu, size, rng: rng.normal(mu, np.sqrt(variance),
                                                 size=size),
        phi_min=-np.inf,
        param_name="mu",
        default_phi=0.0,
    ))


def inverse_normal_mean_known(mu: float = 1.0) -> OneParamExpFamily:
    """Inverse Gaussian with known mean; the tested parameter is the shape."""
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    return OneParamExpFamily(_FamilySpec(
        name="inverse-normal-mean-known",
        d=lambda x: (x - mu)**2 / (2.0 * mu**2 * x),
        alpha_derivs=lambda phi: (1.0, 0.0, 0.0),
        beta=lambda phi: -0.5 / phi,
        beta_derivs=lambda phi: (0.5 / phi**2, -1.0 / phi**3, 3.0 / phi**4),
        mle_from_dbar=lambda dbar: 0.5 / dbar,
        sampler=lambda phi, size, rng: rng.wald(mu, phi, size=size),
        support=POSITIVE,
    ))


def inverse_normal_shape_known(shape: float = 1.0) -> OneParamExpFamily:
    """Inverse Gaussian with known shape; the tested parameter is the mean."""
    if not shape > 0.0:
        raise ValueError("shape must be positive")
    return OneParamExpFamily(_FamilySpec(
        name="inverse-normal-shape-known",
        d=lambda x: x,
        alpha_derivs=lambda mu: (-shape / mu**3, 3.0 * shape / mu**4,
                                 -12.0 * shape / mu**5),
        beta=lambda mu: -mu,
        beta_derivs=lambda mu: (-1.0, 0.0, 0.0),
        mle_from_dbar=lambda dbar: dbar,
        sampler=lambda mu, size, rng: rng.wald(mu, shape, size=size),
        support=POSITIVE,
        param_name="mu",
    ))


def _inverse_normal(known: str = "mean", mu: float = 1.0,
                    shape: float = 1.0) -> OneParamExpFamily:
    """The catalog's inverse-normal entry: the known-mean or the known-shape
    family, by ``known``."""
    if known == "mean":
        return inverse_normal_mean_known(mu=mu)
    if known == "shape":
        return inverse_normal_shape_known(shape=shape)
    raise ValueError(f"known must be 'mean' or 'shape', got {known!r}")


def gamma_rate(k: float = 1.0) -> OneParamExpFamily:
    """Gamma with known index k; the tested parameter is the rate."""
    if not k > 0.0:
        raise ValueError("k must be positive")
    return OneParamExpFamily(_FamilySpec(
        name="gamma-rate",
        d=lambda x: x,
        alpha_derivs=lambda phi: (1.0, 0.0, 0.0),
        beta=lambda phi: -k / phi,
        beta_derivs=lambda phi: (k / phi**2, -2.0 * k / phi**3,
                                 6.0 * k / phi**4),
        mle_from_dbar=lambda dbar: k / dbar,
        sampler=lambda phi, size, rng: rng.gamma(k, 1.0 / phi, size=size),
        support=POSITIVE,
    ))


def truncated_extreme_value() -> OneParamExpFamily:
    """Truncated extreme value: exp(X) - 1 is exponential with mean phi."""
    return OneParamExpFamily(_FamilySpec(
        name="truncated-extreme-value",
        d=lambda x: np.expm1(x),
        alpha_derivs=lambda phi: (-1.0 / phi**2, 2.0 / phi**3, -6.0 / phi**4),
        beta=lambda phi: -phi,
        beta_derivs=lambda phi: (-1.0, 0.0, 0.0),
        mle_from_dbar=lambda dbar: dbar,
        sampler=lambda phi, size, rng: np.log1p(rng.exponential(phi,
                                                                size=size)),
        support=POSITIVE,
    ))


def pareto_shape(k: float = 1.0) -> OneParamExpFamily:
    """Pareto on (k, inf) with known scale k; the tested parameter is the shape."""
    if not k > 0.0:
        raise ValueError("k must be positive")
    return OneParamExpFamily(_FamilySpec(
        name="pareto-shape",
        d=lambda x: np.log(x),
        alpha_derivs=lambda phi: (1.0, 0.0, 0.0),
        beta=lambda phi: -1.0 / phi - np.log(k),
        beta_derivs=lambda phi: (1.0 / phi**2, -2.0 / phi**3, 6.0 / phi**4),
        mle_from_dbar=lambda dbar: 1.0 / (dbar - np.log(k)),
        sampler=lambda phi, size, rng: k * np.exp(
            rng.exponential(1.0 / phi, size=size)),
        support=(lambda x: x > k, f"must exceed the scale {k}"),
    ))


def power_shape(theta: float = 1.0) -> OneParamExpFamily:
    """Power distribution on (0, theta) with known endpoint."""
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    return OneParamExpFamily(_FamilySpec(
        name="power-shape",
        d=lambda x: np.log(x),
        alpha_derivs=lambda phi: (-1.0, 0.0, 0.0),
        beta=lambda phi: 1.0 / phi - np.log(theta),
        beta_derivs=lambda phi: (-1.0 / phi**2, 2.0 / phi**3, -6.0 / phi**4),
        mle_from_dbar=lambda dbar: 1.0 / (np.log(theta) - dbar),
        sampler=lambda phi, size, rng: theta * np.exp(
            -rng.exponential(1.0 / phi, size=size)),
        support=(lambda x: (0.0 < x) & (x < theta),
                 f"must lie strictly inside (0, {theta})"),
    ))


def laplace_scale(center: float = 0.0) -> OneParamExpFamily:
    """Laplace with known center; the tested parameter is the scale."""
    return OneParamExpFamily(_FamilySpec(
        name="laplace-scale",
        d=lambda x: np.abs(x - center),
        alpha_derivs=lambda theta: (-1.0 / theta**2, 2.0 / theta**3,
                                    -6.0 / theta**4),
        beta=lambda theta: -theta,
        beta_derivs=lambda theta: (-1.0, 0.0, 0.0),
        mle_from_dbar=lambda dbar: dbar,
        sampler=lambda theta, size, rng: rng.laplace(center, theta,
                                                     size=size),
        param_name="theta",
    ))
