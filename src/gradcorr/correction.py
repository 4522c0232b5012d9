"""Small-sample improvements of the gradient test.

Three procedures, equivalent to order 1/n, all driven by the same
expansion coefficients:

(i)   refer the corrected statistic S* = S{1 - (c + bS + aS^2)} to the
      chi-square;
(ii)  compute the p-value from the expanded CDF
      G_q(x) + (1/24n) sum_i Ri G_{q+2i}(x);
(iii) compare S against the modified percentile
      z = x{1 + (c + bx + ax^2)} at the chi-square percentile x.

The polynomial factors a, b, c already carry the 1/n.  The duality
between (i) and (iii) -- same polynomial, opposite sign -- is exactly
what makes the three rules agree to the expansion's order.

``bartlett_factors`` and ``expanded_cdf`` also take an integer array n,
applied elementwise in the same operations and order as a scalar n, so
a Monte Carlo study can decide values of several sample sizes at once
and reach the decisions the per-size calls reach, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .expansion import ExpansionCoefficients
from .special import _chi2_ladder, chi2_cdf, chi2_quantile

__all__ = ["PROCEDURES", "BartlettFactors", "TestReport",
           "bartlett_factors", "expanded_cdf", "corrected_statistic",
           "modified_quantile", "approximate_moments", "run_test"]

# the uncorrected test and the three procedures, as studies name them
PROCEDURES = ("uncorrected", "corrected_statistic", "expanded_cdf",
              "modified_quantile")


class BartlettFactors(Record):
    """Coefficients of the correction polynomial c + b*S + a*S^2 (1/n
    included): floats for an integer n, arrays for an array of n."""

    __slots__ = ("a", "b", "c", "n", "q")

    def __init__(self, a: float, b: float, c: float, n: int, q: int):
        self._fill(a, b, c, n, q)

    def _sum(self, lead, x):
        # lead + c + bx + ax^2 summed left to right, scalar or elementwise;
        # 1 + poly(x) would round z differently in the last bit
        return lead + self.c + self.b * x + self.a * x * x

    def poly(self, x):
        """The correction polynomial c + bx + ax^2."""
        return self._sum(0.0, x)

    def corrected(self, S):
        """The corrected statistic S{1 - (c + bS + aS^2)}, unchecked."""
        return S * (1.0 - self.poly(S))

    def modified(self, x):
        """The modified percentile x{1 + (c + bx + ax^2)}."""
        return x * self._sum(1.0, x)


class TestReport(Record):
    """Everything a single gradient test produces."""

    __slots__ = ("S", "S_star", "p_asymptotic", "p_expanded", "p_corrected",
                 "z_modified", "coefficients", "expanded_cdf_raw", "warnings")

    def __init__(self, S: float, S_star: float, p_asymptotic: float,
                 p_expanded: float, p_corrected: float, z_modified: float,
                 coefficients: ExpansionCoefficients,
                 expanded_cdf_raw: float, warnings: tuple[str, ...] = ()):
        self._fill(S, S_star, p_asymptotic, p_expanded, p_corrected,
                   z_modified, coefficients, expanded_cdf_raw, warnings)


def _check_n(n) -> None:
    """n >= 1, for an integer or elementwise for an array.  An integer
    takes a plain comparison: np.any on it would cost a single test more
    than the rest of the check."""
    if (n < 1).any() if isinstance(n, np.ndarray) else n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def bartlett_factors(coef: ExpansionCoefficients, q: int,
                     n) -> BartlettFactors:
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    _check_n(n)
    a = coef.A3 / (12.0 * n * q * (q + 2) * (q + 4))
    b = (coef.A2 - 2.0 * coef.A3) / (12.0 * n * q * (q + 2))
    c = (coef.A1 - coef.A2 + coef.A3) / (12.0 * n * q)
    return BartlettFactors(a=a, b=b, c=c, n=n, q=q)


def expanded_cdf(x, coef: ExpansionCoefficients, q: int, n):
    """Null CDF of S to order 1/n at a scalar or elementwise on an array
    (n an integer, or an integer array broadcasting with x); returned
    raw (may slightly exit [0,1])."""
    return _null_cdfs(x, coef, q, n)[1]


def _null_cdfs(x, coef: ExpansionCoefficients, q: int, n) -> tuple:
    """(G_q(x), expanded CDF at x) from one ladder: G_q is its first rung."""
    _check_n(n)
    rungs = _chi2_ladder(x, q, 4)
    return rungs[0], _expand(rungs[0], rungs, coef, n)


def _expand(lead, rungs, coef: ExpansionCoefficients, n):
    """lead + (1/24n) sum_i R_i rungs[i]: the expanded CDF when lead is
    rungs[0], and a bound on it when each term takes a rung's value at one
    end of an interval."""
    tail = sum(r * g for r, g in zip((coef.R0, coef.R1, coef.R2, coef.R3),
                                      rungs))
    return lead + tail / (24.0 * n)


def _check_statistic(S: float) -> None:
    if not math.isfinite(S):
        raise ValueError(f"S must be finite, got {S}")
    if S < 0:
        raise ValueError(f"S must be >= 0, got {S}")


def corrected_statistic(S: float, coef: ExpansionCoefficients, q: int,
                        n: int) -> tuple[float, tuple[str, ...]]:
    """S* = S{1 - (c + bS + aS^2)}, unclamped, with regime warnings."""
    _check_statistic(S)
    return _corrected(S, bartlett_factors(coef, q, n))


def _corrected(S: float, f: BartlettFactors) -> tuple[float, tuple[str, ...]]:
    poly = f.poly(S)
    s_star = f.corrected(S)
    warnings = []
    if abs(poly) > 0.5:
        warnings.append(f"correction polynomial {poly:.3g} outside "
                        "asymptotic regime (|.| > 0.5)")
    if s_star < 0:
        warnings.append(f"corrected statistic {s_star:.3g} is negative")
    return s_star, tuple(warnings)


def modified_quantile(gamma: float, coef: ExpansionCoefficients, q: int,
                      n: int) -> float:
    """Upper-gamma critical value z such that Pr(S > z) ~ gamma to order 1/n."""
    x = _percentile(gamma, q)
    return bartlett_factors(coef, q, n).modified(x)


def _percentile(gamma: float, q: int) -> float:
    if not 0.0 < 1.0 - gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), with 1 - gamma below 1 "
                         f"in floating point, got {gamma}")
    return chi2_quantile(1.0 - gamma, q)


def approximate_moments(coef: ExpansionCoefficients, q: int,
                        n: int) -> tuple[float, float, float]:
    """(mean, central mu2, central mu3) of S to order 1/n."""
    _check_n(n)
    mu1 = q + coef.A1 / (12.0 * n)
    mu2 = 2.0 * q + (coef.A1 + coef.A2) / (3.0 * n)
    mu3 = 8.0 * q + 2.0 * (coef.A1 + 2.0 * coef.A2 + coef.A3) / n
    return (mu1, mu2, mu3)


def run_test(S: float, coef: ExpansionCoefficients, q: int, n: int,
             gamma: float = 0.05) -> TestReport:
    """Assemble all three improved procedures plus the first-order p-value."""
    _check_statistic(S)
    f = bartlett_factors(coef, q, n)
    warnings: list[str] = []
    s_star, w = _corrected(S, f)
    warnings.extend(w)
    g, raw = _null_cdfs(S, coef, q, n)
    p_asym = 1.0 - g
    p_exp = 1.0 - raw
    if not 0.0 <= p_exp <= 1.0:
        p_exp = 0.0 if p_exp < 0.0 else 1.0
        warnings.append("expanded-CDF p-value clamped to [0,1]")
    # negative S* sits below the chi-square support, so its p-value is 1
    p_corr = 1.0 - chi2_cdf(max(s_star, 0.0), q)
    z = f.modified(_percentile(gamma, q))
    return TestReport(S=S, S_star=s_star, p_asymptotic=p_asym,
                      p_expanded=p_exp, p_corrected=p_corr, z_modified=z,
                      coefficients=coef, expanded_cdf_raw=raw,
                      warnings=tuple(warnings))
