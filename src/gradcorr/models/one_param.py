"""One-parameter exponential-family models.

Each family writes its density as f(x; phi) = xi(phi) exp{-alpha(phi) d(x) + gamma(x)},
so the per-observation score is U = -alpha'(phi)(d(x) + beta(phi)) with
beta = -(log xi)'/alpha' and E d(X) = -beta(phi).  The full MLE solves
beta(phi_hat) = -dbar, which every family here inverts in closed form,
and the statistic reduces to S = n (phi0 - phi_hat) alpha'(phi0) (beta(phi0) + dbar).

The six cumulants, the entries of one-element arrays (``cumulant_entries``),
come from the chain rule on ell = -alpha d + log xi:

    k_pp    = -a1 b1            k_pp^(p)   = -(a2 b1 + a1 b2)
    k_ppp   = -(2 a2 b1 + a1 b2)  k_ppp^(p) = -(2 a3 b1 + 3 a2 b2 + a1 b3)
    k_pppp  = -(3 a2 b2 + 3 a3 b1 + a1 b3)  k_pp^(pp) = -(a3 b1 + 2 a2 b2 + a1 b3)

where a_i, b_i are the i-th derivatives of alpha and beta.  Ten concrete
families are provided as factory functions, six of them by ``_mean_family``
in the mean parametrization E d(X) = phi: beta = -phi and phi_hat = dbar,
and four by ``_natural_family`` in the natural one: alpha = +-phi,
beta = c/phi - e and phi_hat = -c/(dbar - e).  Fixed constants are bound
at construction time, checked by ``_constant``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .base import POSITIVE, ModelFamily, check_observations

__all__ = ["OneParamExpFamily", "exponential", "normal_mean_known",
           "normal_variance_known", "inverse_normal_mean_known",
           "inverse_normal_shape_known", "gamma_rate",
           "truncated_extreme_value", "pareto_shape", "power_shape",
           "laplace_scale"]


class OneParamExpFamily(ModelFamily):
    """A one-parameter family from its closures: d(x) elementwise;
    (a1, a2, a3) and (b1, b2, b3), the derivatives of alpha and beta at
    phi; beta(phi); the MLE from dbar, elementwise, whose fit fails where
    it is not finite or out of range; and the sampler.  ``_mean_family``
    and ``_natural_family`` fill in beta, the b's and the MLE.  ``support``
    is a (predicate, reason) pair for check_observations, (None, "") the
    real line; ``phi_min`` is the open lower bound of phi."""

    p = 1
    q = 1

    def __init__(self, name, d, alpha_derivs, beta, beta_derivs,
                 mle_from_dbar, sampler, support=(None, ""), phi_min=0.0,
                 param_name="phi", default_phi=1.0):
        self.name = name
        self._d, self._alpha_derivs, self._beta = d, alpha_derivs, beta
        self._beta_derivs, self._mle_from_dbar = beta_derivs, mle_from_dbar
        self._sampler, self._support = sampler, support
        self.param_names = (param_name,)
        self.default_theta = (default_phi,)
        self.lower = (phi_min,)

    def sample(self, theta, size, rng):
        phi, = self._theta(theta).tolist()
        return self._sampler(phi, size, rng)

    def validate_data(self, data):
        check_observations(self.name, data, self._support)

    def summarize(self, x):
        # sum / n is mean(axis=1) to the bit, without its per-call overhead
        return x.shape[1], self._d(x).sum(axis=1) / x.shape[1]

    def estimates(self, m, theta10):
        phi_hat = self._mle_from_dbar(m[1])
        # phi_hat in (phi_min, inf), which also leaves out NaN
        ok = (self.lower[0] < phi_hat) & (phi_hat < np.inf)
        return ((theta10[0],), True), ((phi_hat,), ok)

    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        n, dbar = m
        phi0 = float(theta10[0])
        return (n * (phi0 - theta_hat[0]) * self._alpha_derivs(phi0)[0]
                * (self._beta(phi0) + dbar))

    def cumulant_entries(self, theta) -> tuple:
        phi, = self._theta(theta).tolist()
        a1, a2, a3 = self._alpha_derivs(phi)
        b1, b2, b3 = self._beta_derivs(phi)
        return ({(0, 0): -a1 * b1},
                {(0, 0, 0): -(2.0 * a2 * b1 + a1 * b2)},
                {(0, 0, 0, 0): -(3.0 * a2 * b2 + 3.0 * a3 * b1 + a1 * b3)},
                {(0, 0, 0): -(a2 * b1 + a1 * b2)},
                {(0, 0, 0, 0): -(2.0 * a3 * b1 + 3.0 * a2 * b2 + a1 * b3)},
                {(0, 0, 0, 0): -(a3 * b1 + 2.0 * a2 * b2 + a1 * b3)})


def _constant(name: str, value, positive: bool = True) -> None:
    """ValueError unless constant ``name`` is a finite number, and positive
    if asked."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if positive and not value > 0.0:
        raise ValueError(f"{name} must be positive")


def _reciprocal_derivs(phi) -> tuple:
    """Derivatives of 1/phi, the alpha of three mean-parametrized families."""
    return (-1.0 / phi**2, 2.0 / phi**3, -6.0 / phi**4)


def _exponential(scale, size, rng) -> np.ndarray:
    """rng.exponential(scale, size) to the bit, from cheaper standard draws."""
    x = rng.standard_exponential(size)
    x *= scale
    return x


def _mean_family(**spec) -> OneParamExpFamily:
    """A family in the mean parametrization, E d(X) = phi: beta(phi) = -phi,
    with derivatives (-1, 0, 0), and the MLE is dbar itself."""
    return OneParamExpFamily(
        beta=lambda phi: -phi, beta_derivs=lambda phi: (-1.0, 0.0, 0.0),
        mle_from_dbar=lambda dbar: dbar, **spec)


def _natural_family(c, e=0.0, sign=1.0, **spec) -> OneParamExpFamily:
    """A family in the natural parametrization: alpha(phi) = sign * phi and
    beta(phi) = c/phi - e, so the MLE is phi_hat = -c/(dbar - e)."""
    return OneParamExpFamily(
        alpha_derivs=lambda phi: (sign, 0.0, 0.0),
        beta=lambda phi: c / phi - e,
        beta_derivs=lambda phi: (-c / phi**2, 2.0 * c / phi**3,
                                 -6.0 * c / phi**4),
        mle_from_dbar=lambda dbar: -c / (dbar - e), **spec)


def exponential() -> OneParamExpFamily:
    """Exponential with mean phi."""
    return _mean_family(
        name="exponential", d=lambda x: x, alpha_derivs=_reciprocal_derivs,
        sampler=_exponential,
        support=POSITIVE)


def normal_mean_known(mu: float = 0.0) -> OneParamExpFamily:
    """Normal with known mean; the tested parameter is the variance."""
    _constant("mu", mu, positive=False)
    return _mean_family(
        name="normal-mean-known", d=lambda x: (x - mu)**2,
        alpha_derivs=lambda phi: (-0.5 / phi**2, 1.0 / phi**3, -3.0 / phi**4),
        sampler=lambda phi, size, rng: rng.normal(mu, np.sqrt(phi),
                                                  size=size))


def normal_variance_known(variance: float = 1.0) -> OneParamExpFamily:
    """Normal with known variance; the tested parameter is the mean."""
    _constant("variance", variance)
    return _mean_family(
        name="normal-variance-known", d=lambda x: x,
        alpha_derivs=lambda mu: (-1.0 / variance, 0.0, 0.0),
        sampler=lambda mu, size, rng: rng.normal(mu, np.sqrt(variance),
                                                 size=size),
        phi_min=-np.inf, param_name="mu", default_phi=0.0)


def inverse_normal_mean_known(mu: float = 1.0) -> OneParamExpFamily:
    """Inverse Gaussian with known mean; the tested parameter is the shape."""
    _constant("mu", mu)
    return _natural_family(
        -0.5, name="inverse-normal-mean-known",
        d=lambda x: (x - mu)**2 / (2.0 * mu**2 * x),
        sampler=lambda phi, size, rng: rng.wald(mu, phi, size=size),
        support=POSITIVE)


def inverse_normal_shape_known(shape: float = 1.0) -> OneParamExpFamily:
    """Inverse Gaussian with known shape; the tested parameter is the mean."""
    _constant("shape", shape)
    return _mean_family(
        name="inverse-normal-shape-known", d=lambda x: x,
        alpha_derivs=lambda mu: (-shape / mu**3, 3.0 * shape / mu**4,
                                 -12.0 * shape / mu**5),
        sampler=lambda mu, size, rng: rng.wald(mu, shape, size=size),
        support=POSITIVE, param_name="mu")


def _inverse_normal(known: str = "mean", mu: float = 1.0,
                    shape: float = 1.0) -> OneParamExpFamily:
    """The catalog's inverse-normal entry: the known-mean or the known-shape
    family, by ``known``."""
    if known == "mean":
        _constant("shape", shape)
        return inverse_normal_mean_known(mu=mu)
    if known == "shape":
        _constant("mu", mu)
        return inverse_normal_shape_known(shape=shape)
    raise ValueError(f"known must be 'mean' or 'shape', got {known!r}")


def gamma_rate(k: float = 1.0) -> OneParamExpFamily:
    """Gamma with known index k; the tested parameter is the rate."""
    _constant("k", k)
    return _natural_family(
        -k, name="gamma-rate", d=lambda x: x,
        sampler=lambda phi, size, rng: rng.gamma(k, 1.0 / phi, size=size),
        support=POSITIVE)


def truncated_extreme_value() -> OneParamExpFamily:
    """Truncated extreme value: exp(X) - 1 is exponential with mean phi."""
    return _mean_family(
        name="truncated-extreme-value", d=np.expm1,
        alpha_derivs=_reciprocal_derivs,
        sampler=lambda phi, size, rng: np.log1p(_exponential(phi, size, rng)),
        support=POSITIVE)


def pareto_shape(k: float = 1.0) -> OneParamExpFamily:
    """Pareto on (k, inf) with known scale k; the tested parameter is the shape."""
    _constant("k", k)
    return _natural_family(
        -1.0, np.log(k), name="pareto-shape", d=np.log,
        sampler=lambda phi, size, rng: k * np.exp(
            _exponential(1.0 / phi, size, rng)),
        support=(lambda x: x > k, f"must exceed the scale {k}"))


def power_shape(theta: float = 1.0) -> OneParamExpFamily:
    """Power distribution on (0, theta) with known endpoint."""
    _constant("theta", theta)
    return _natural_family(
        1.0, np.log(theta), sign=-1.0, name="power-shape", d=np.log,
        sampler=lambda phi, size, rng: theta * np.exp(
            -_exponential(1.0 / phi, size, rng)),
        support=(lambda x: (0.0 < x) & (x < theta),
                 f"must lie strictly inside (0, {theta})"))


def laplace_scale(center: float = 0.0) -> OneParamExpFamily:
    """Laplace with known center; the tested parameter is the scale."""
    _constant("center", center, positive=False)
    return _mean_family(
        name="laplace-scale", d=lambda x: np.abs(x - center),
        alpha_derivs=_reciprocal_derivs,
        sampler=lambda theta, size, rng: rng.laplace(center, theta, size=size),
        param_name="theta")
