"""Chi-square and standard normal primitives on numpy and ``math``.

Every downstream formula reduces to four functions: the chi-square CDF
G_df(x), its inverse, the normal CDF Phi(v), and the scaled normal tail
e^{v^2/2}(1-Phi(v)).  The scaled tail is mandatory rather than a
convenience: one of the built-in models needs e^{2/phi^2}{1-Phi(2/phi)},
which overflows long before phi gets interestingly small if the two
factors are evaluated separately.

Chi-square CDF.  df is an integer, so G_df(x) = P(df/2, h) with h = x/2
has closed forms (Abramowitz & Stegun 26.4.4-26.4.5):

    G_1 = erf(sqrt h),   G_2 = 1 - e^{-h},
    G_{df+2} = G_df - t_{df/2},   t_a = h^a e^{-h} / Gamma(a + 1),

so the rungs G_q, G_{q+2}, ... of the expanded CDF share one erf (odd q)
or one expm1 (even q) and one exponential.  erf comes from W. J. Cody's
rational Chebyshev approximations (Math. Comp. 23 (1969) 631-637) in his
three regions, |y| <= 0.46875, <= 4 and > 4.  Above 0.46875 they give
erfcx, and erfc(sqrt h) = e^{-h} erfcx(sqrt h) reuses the ladder's e^{-h}:
that exponential is exact for the exact argument sqrt h, which Cody's
split of exp(-y^2) only approximates for a rounded y.  Where h < 0.01 the
recurrence cancels (at x = 2e-218 it would make G_3 negative), so there
every rung above the first closed form is the lower power series
P(a, h) = t_a sum_k h^k / ((a+1)...(a+k)).  Above that cutoff the
recurrence keeps an absolute error near 1e-16 but, for df >= 15, can
round a G_df below 1e-16 to a negative number; such values read 0.
The ladder takes df/2 steps from e^{-h}, which is subnormal above
x = 1417 and 0 above x = 1490.  Up to df = 1000, G_df is 1 to rounding
there; by df = 1200 it is not, so df is limited to 1..1000.

Floats and arrays.  The ladder is one body of arithmetic, with numpy's
exp and expm1 (``math.exp`` differs in the last bit), that runs on
Python floats or numpy arrays in the same IEEE operations and order, so
a float's rungs are bit-identical to its element of an array's.  Two
drivers name what differs; floats keep their own because a single test
evaluates two ladders, and numpy costs 15-20 times more on one element.

The quantile is a bracketed Newton iteration on the closed-form CDF from
a Wilson-Hilferty start, cached per (p, df).  Accuracy targets: CDF
absolute error <= 1e-13, quantile inversion <= 1e-12 in probability
units; the tests check both against a reference special-function library
and against independent series, continued-fraction and quadrature
oracles.
"""

from __future__ import annotations

import functools
import math
from numbers import Integral

import numpy as np

__all__ = ["chi2_cdf", "chi2_pdf", "chi2_quantile", "std_normal_cdf",
           "std_normal_tail_scaled"]

_THRESH = 0.46875                   # Cody's first region ends here
_TWO_OVER_SQRT_PI = 1.1283791670955126
_INV_SQRT_PI = 0.5641895835477563
_SERIES_H = 0.01                    # below it, rungs are power series
_SERIES_TERMS = 8                   # truncation below 1e-19 relative
_H_CAP = 1e300                      # G_df(2e300) is 1; keeps inf * 0 out
_G_ROUNDING = 4e-16                 # absolute rounding error of chi2_cdf
_DF_MAX = 1000                      # largest df the ladder holds to 1e-13

# Cody's coefficients: erf on |y| <= 0.46875 (A, B), erfcx on
# 0.46875 < y <= 4 (C, D) and on y > 4 (P, Q)
_A = (3.16112374387056560e00, 1.13864154151050156e02,
      3.77485237685302021e02, 3.20937758913846947e03,
      1.85777706184603153e-1)
_B = (2.36012909523441209e01, 2.44024637934444173e02,
      1.28261652607737228e03, 2.84423683343917062e03)
_C = (5.64188496988670089e-1, 8.88314979438837594e00,
      6.61191906371416295e01, 2.98635138197400131e02,
      8.81952221241769090e02, 1.71204761263407058e03,
      2.05107837782607147e03, 1.23033935479799725e03,
      2.15311535474403846e-8)
_D = (1.57449261107098347e01, 1.17693950891312499e02,
      5.37181101862009858e02, 1.62138957456669019e03,
      3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)
_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
      1.25781726111229246e-1, 1.60837851487422766e-2,
      6.58749161529837803e-4, 1.63153871373020978e-2)
_Q = (2.56852019228982242e00, 1.87295284992346725e00,
      5.27905102951428412e-1, 6.05183413124413191e-2,
      2.33520497626869185e-3)


def _ratio(z, num, den):
    """Cody's rational function of z: (num[-1] z^k + num[0] z^(k-1) + ...
    + num[k-1]) / (z^k + den[0] z^(k-1) + ... + den[k-1]), k = len(den);
    each Horner step in place, which on an array halves the temporaries."""
    n = num[-1]
    d = 1.0
    for a, b in zip(num, den):  # stops before num[-1], the leading one
        n *= z
        n += a
        d *= z
        d += b
    return n / d


def _erf_small(y):
    """erf(y) for |y| <= 0.46875."""
    return y * _ratio(y * y, _A, _B)


def _regions(y):
    """Whether y >= 0 lies above each of Cody's splits, 0.46875 and 4."""
    return y > _THRESH, y > 4.0


def _erfcx(y, region=None):
    """e^{y^2} erfc(y) for a float y, or for an array y in one ``region``
    of ``_regions`` above 0.46875."""
    above, big = _regions(y) if region is None else region
    if big:
        ysq = 1.0 / (y * y)
        return (_INV_SQRT_PI - ysq * _ratio(ysq, _P, _Q)) / y
    if above:
        return _ratio(y, _C, _D)
    if y < -_THRESH:
        try:
            return 2.0 * math.exp(y * y) - _erfcx(-y)
        except OverflowError:
            return math.inf
    return math.exp(y * y) * (1.0 - _erf_small(y))


def _series(g, t, h, a):
    """P(a, h), the rung in place of g where h is low: t = t_a times the
    lower series by Horner's rule, t (1 + h/(a+1) (1 + h/(a+2) (...)))."""
    s = h / (a + _SERIES_TERMS) + 1.0
    for k in range(_SERIES_TERMS - 1, 0, -1):
        s *= h
        s /= a + k
        s += 1.0
    return t * s


def _is_int(value) -> bool:
    """Whether value is an integer, numpy's included; a bool is not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_df(df) -> int:
    """df as a Python int, the quantile cache's key; TypeError unless
    ``_is_int``, ValueError outside 1..1000."""
    if type(df) is not int:     # cheaper than _is_int
        if not _is_int(df):
            raise TypeError(f"df must be an integer, got {df!r}")
        df = int(df)
    if not 1 <= df <= _DF_MAX:
        raise ValueError(f"df must lie in [1, {_DF_MAX}], got {df}")
    return df


def _erf(y, e, region=None):
    """erf(y) for y >= 0 from e = e^{-y^2}: a float y in its own region
    of ``_regions``, an array y in the one ``region`` that holds it all."""
    region = _regions(y) if region is None else region
    return 1.0 - e * _erfcx(y, region) if region[0] else _erf_small(y)


def _erf_masked(y, e):
    """``_erf`` on the array y, one mask per region that holds elements."""
    g = np.empty_like(y)
    above, big = _regions(y)
    for r, m in enumerate((~above, above ^ big, big)):
        if m.any():     # on an empty mask numpy would spend 10-30 us
            g[m] = _erf(y[m], e[m] if r else None, (r > 0, r > 1))
    return g


def _series_masked(h):
    """The series patch of an array's rungs, h[low] taken once for all."""
    low = h < _SERIES_H
    h_low = h[low] if low.any() else None

    def patch(g, t, h, a):
        rung = np.maximum(g, 0.0)
        rung[low] = _series(None, t[low], h_low, a)
        return rung
    return None if h_low is None else patch


# All that a float x and an array x do differently in the ladder: the
# x >= 0 check; min, max, sqrt and the cast of numpy's exp and expm1;
# Cody's region choice; the series patch, (g, t, h, a) -> rung, or None.
_FLOATS = (bool, (min, max, math.sqrt, float), _erf,
           lambda h: _series if h < _SERIES_H else None)
_ARRAYS = (np.ndarray.all, (np.minimum, np.maximum, np.sqrt, np.asarray),
           _erf_masked, _series_masked)


def _chi2_ladder(x, q: int, steps: int) -> list:
    """[G_q(x), G_{q+2}(x), ..., G_{q+2(steps-1)}(x)] from one erf or
    expm1 and one exponential; floats for a scalar x, else arrays."""
    if type(q) is not int or not 1 <= q <= q + 2 * steps - 2 <= _DF_MAX:
        q = _check_df(q)        # one chained comparison is cheaper
        _check_df(q + 2 * (steps - 1))
    x = x if isinstance(x, (float, int)) else np.asarray(x, dtype=float)
    every, (minimum, maximum, sqrt, cast), erf, series = \
        _ARRAYS if getattr(x, "ndim", 0) else _FLOATS
    x = cast(x)
    if not every(x >= 0.0):
        raise ValueError(f"x must be >= 0 (not NaN), got {x}")
    h = minimum(0.5 * x, _H_CAP)
    e = cast(np.exp(-h))
    if q % 2:
        y = sqrt(h)
        t = _TWO_OVER_SQRT_PI * y * e
        g = erf(y, e)
    else:
        t = h * e
        g = -cast(np.expm1(-h))
    patch = series(h)
    rungs = []
    for df in range(2 - q % 2, q + 2 * steps, 2):
        a = 0.5 * df
        if df >= q:
            rungs.append(g if df <= 2 else maximum(g, 0.0)
                         if patch is None else patch(g, t, h, a))
        g = g - t
        t = t * h / (a + 1.0)
    return rungs


def chi2_cdf(x, df: int):
    """G_df(x), the chi-square CDF: regularized lower incomplete gamma P(df/2, x/2).

    Accepts scalars or arrays in x; scalars come back as float.
    """
    return _chi2_ladder(x, df, 1)[0]


def chi2_pdf(x: float, df: int) -> float:
    """g_df(x), the chi-square density."""
    df = _check_df(df)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        # finite only for df >= 2; df=1 diverges, df=2 gives 1/2
        if df == 2:
            return 0.5
        return math.inf if df == 1 else 0.0
    h = df / 2.0
    return math.exp((h - 1.0) * math.log(x / 2.0) - x / 2.0
                    - math.lgamma(h)) / 2.0


def chi2_quantile(p: float, df: int) -> float:
    """Inverse of chi2_cdf in x for fixed df."""
    df = _check_df(df)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    # validated first: the cache takes 1, 1.0 and True for one key
    return _quantile(float(p), df)


def _normal_quantile_guess(p: float) -> float:
    """Phi^{-1}(p) to 4.5e-4 (Abramowitz & Stegun 26.2.23)."""
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - ((2.515517 + 0.802853 * t + 0.010328 * t * t)
             / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))))
    return z if p > 0.5 else -z


@functools.lru_cache(maxsize=256)
def _quantile(p: float, df: int) -> float:
    """Newton on G_df(x) = p, kept inside the bracket that the signs of
    G_df(x) - p have shown so far."""
    c = 2.0 / (9.0 * df)
    w = 1.0 - c + _normal_quantile_guess(p) * math.sqrt(c)
    if w > 0.0:
        x = df * w ** 3
    else:
        # far lower tail: G_df(x) ~ (x/2)^a / Gamma(a + 1), a = df/2
        a = 0.5 * df
        x = 2.0 * math.exp((math.log(p) + math.lgamma(a + 1.0)) / a)
    lo, hi = 0.0, math.inf
    for _ in range(100):
        f = chi2_cdf(x, df) - p
        if f == 0.0:
            break
        if f < 0.0:
            lo = x
        else:
            hi = x
        dens = chi2_pdf(x, df)
        step = x - f / dens if dens > 0.0 else math.inf
        if dens > 0.0 and abs(f) <= dens * 1e-12 * x + _G_ROUNDING:
            # within 1e-12 x of the root or G's rounding of it: one more
            # step of quadratic convergence leaves only the rounding, unless
            # G's rounding sends it out of the bracket, where x is as good
            return step if lo <= step <= hi else x
        if not lo < step < hi:
            step = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        if step == x:       # a fixed point: every further step is this one
            break
        x = step
    return x


def std_normal_cdf(v: float) -> float:
    """Phi(v)."""
    return 0.5 * math.erfc(-v / math.sqrt(2.0))


def std_normal_tail_scaled(v: float) -> float:
    """e^{v^2/2} (1 - Phi(v)), evaluated without overflow.

    Equals erfcx(v/sqrt(2))/2; stable for v up to and beyond 1e4.
    """
    return 0.5 * _erfcx(v / math.sqrt(2.0))
