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
arithmetic means.  The two are written as one equation, H in row 0 and
G in row 1 of a (2, k) iterate for a (k, n) matrix of data sets, and
solved per element from sqrt(s r) by one safeguarded Newton: a step is
taken when it stays inside the shrinking bracket or lands on the end
that the current iterate set, and the bracket is bisected otherwise,
until a step moves the root by at most 1e-13 relative, in at most 200
steps.  A step onto the other end, set by an earlier iterate, is
bisected because near a double root of H it can cycle between the two
ends of a collapsed bracket.  A data set that does not converge is a
failed fit, and so is an unrestricted fit whose phi_hat^2 is within
rounding of 0, as it is for data of one value (``estimates``).

Layout.  ``summarize`` keeps a (k, n) block as a contiguous (n, k) copy,
one data set per column; the summaries of several blocks of different n
keep one copy per block and join s, r and n end to end.  ``estimates``
solves H and G for all K data sets in one Newton run over a (2, K)
iterate, so every block shares one pass of bookkeeping per sweep.  The
column sums come block by block, through one (n, 2, k) buffer that
serves each block in turn and takes x + b, its reciprocal and its
square in place; once every element of a block has converged, the
block's sums are kept rather than taken again.  S is bit for bit what a
row-per-data-set layout with one Newton run per fit and block gives:
every element takes the same floating-point operations in the same
order, a converged element stays where it is while the others go on,
and ``_pairwise_sum`` adds the n values of a column in the order in
which numpy's pairwise summation adds a contiguous row.  A matrix of
one data set takes this array run too.

The one-row driver of ``gradient_statistic``, ``fit_restricted`` and
``fit_unrestricted`` gives one data set as scalar summaries, where a
numpy call on a one-element array costs more than its arithmetic, so
``_lockstep_newton`` steps H and G together on numpy float64 scalars,
which give inf and NaN where Python floats would raise; each sweep takes
the four sums from one (4, n) buffer and one reduce of its contiguous
rows.  Both drivers run the same ``_step``, and H and G run unchanged on
a scalar or an array, so a one-row result is its array run's to the bit.

Cumulants involve the scaled normal tail R = e^{2/phi^2}(1 - Phi(2/phi))
only through kappa_betabeta and its relatives; everything is assembled
from closed forms, no quadrature at run time.
"""

from __future__ import annotations

import math

import numpy as np

from ..special import std_normal_tail_scaled
from .base import POSITIVE, ModelFamily, check_observations

__all__ = ["BirnbaumSaunders"]

# a Python float: a zero denominator in the cumulant entries then raises
# ZeroDivisionError instead of printing a numpy warning
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_REL_TOL = 1e-13
_EPS = 2.0**-52


# what ``_step`` does differently on arrays and on numpy float64 scalars:
# pick per element, as np.where, and whether every element holds
_ARRAYS = (np.where, np.ndarray.all)
_SCALARS = (lambda c, a, b: a if c else b, bool)


def _step(x, fx, d, lo, hi, ops=_ARRAYS):
    """One step of the safeguarded Newton (module docstring) from x, where f
    is fx and f' is d, on [lo, hi] with f(lo) > 0 >= f(hi): the step and the
    bracket narrowed by x, elementwise on arrays or, with ops = _SCALARS,
    on numpy float64 scalars, where inf and NaN stay values, not errors."""
    pick, every = ops
    above = fx > 0.0
    lo = pick(above, x, lo)
    hi = pick(above, hi, x)
    step = x - fx / d
    # a step onto the far end, set by an earlier iterate, would cycle
    # between the ends of a collapsed bracket: bisect instead
    inside = (lo < step) & (step < hi) | (step == x)
    if not every(inside):
        step = pick(inside, step, 0.5 * (lo + hi))
    return step, lo, hi


def _safeguarded_newton(f, lo, hi, x):
    """Elementwise root of f on [lo, hi] by ``_step`` from x, where f(x, done)
    gives f and f', any values where ``done`` marks an element converged,
    which then stays where it is.  Returns the roots and the flags."""
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(200):
        step, lo, hi = _step(x, *f(x, done), lo, hi)
        x_new = np.where(done, x, step) if done.any() else step
        done |= abs(x_new - x) <= _REL_TOL * abs(x_new)
        x = x_new
        if done.all():
            break
    return x, done


def _lockstep_newton(f, lo, hi, x):
    """``_safeguarded_newton`` of two numpy float64 scalars, the lists lo, hi
    and x, where f(x) gives the pairs of f and f': each steps until it
    converges, as in the array run."""
    done = [False, False]
    for _ in range(200):
        fx, d = f(x)
        for i in (0, 1):
            if not done[i]:
                step, lo[i], hi[i] = _step(x[i], fx[i], d[i], lo[i], hi[i],
                                           _SCALARS)
                done[i] = abs(step - x[i]) <= _REL_TOL * abs(step)
                x[i] = step
        if done[0] and done[1]:
            break
    return x, done


def _pairwise_sum(a):
    """a.sum(axis=0) for an (n, ...) array, adding whole slices a[i] in the
    order in which numpy's pairwise summation adds one contiguous row of n
    values: sequentially below 8; up to 128, eight accumulators over
    strides of 8, summed as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    tail in turn; above 128, the two halves split at n/2 rounded down to
    a multiple of 8.  So every element equals the row sum of the
    transposed array bit for bit (a sum of negative zeros aside).

    numpy itself reduces an axis that runs along memory pairwise and an
    outer axis sequentially, so it does the work where that is the same
    order: for a first axis along memory, below 8 and for the eight
    accumulators."""
    n = len(a)
    if n < 8 or a.strides[0] == a.itemsize:
        return np.add.reduce(a, axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])
    whole = n - n % 8
    acc = np.add.reduce(a[:whole].reshape((whole // 8, 8) + a.shape[1:]),
                        axis=0) if whole > 8 else a[:8]
    acc = acc[0::2] + acc[1::2]
    acc = acc[0::2] + acc[1::2]
    total = acc[0] + acc[1]
    for i in range(whole, n):
        total += a[i]
    return total


def _block_sums(xv, b, buf):
    """The column sums of 1/(x+b) and of 1/(x+b)^2 per element of the
    iterate b, from one pass through buf: x + b, its reciprocal, then its
    square.  xv is an (n, k) block shaped to broadcast against b, and buf
    has shape (n,) + b.shape."""
    u = np.add(xv, b, out=buf)
    np.divide(1.0, u, out=u)
    s1 = _pairwise_sum(u)
    np.multiply(u, u, out=u)
    return s1, _pairwise_sum(u)


def _inverse_sums(blocks, b, done, sums):
    """``_block_sums`` of the (2, K) iterate b over the data blocks, each
    (xv, cols, buf) with cols the slice of its columns of b, one block or
    several.  ``sums`` holds each block's pair from the sweep before: a
    block whose elements ``done`` all marks as converged keeps it."""
    settled = np.logical_and.reduceat(
        done.all(axis=0), [cols.start for _, cols, _ in blocks]).tolist()
    for i, (xv, cols, buf) in enumerate(blocks):
        if not settled[i]:
            sums[i] = _block_sums(xv, b[:, cols], buf)
    s1, s2 = zip(*sums)
    return np.concatenate(s1, axis=1), np.concatenate(s2, axis=1)


# H and G with their derivatives from m1 = mean(1/(x+b)) and
# m2 = mean(1/(x+b)^2): arithmetic only, so they run unchanged on a float
# or an array and round alike on both.  Squares are products: ** 2 on a
# numpy scalar is C pow, which misses x * x in the last bit about once in
# a thousand, where an array squares exactly.


def _restricted_equation(b, m1, m2, s, r, c, rc):
    """H(b) and H'(b), with c = phi0^2 and rc = r c."""
    bb2 = 2.0 * b * b
    return ((s - b * b / r) / c - b + bb2 * m1,
            -2.0 * b / rc - 1.0 + 4.0 * b * m1 - bb2 * m2)


def _profile_equation(b, m1, m2, s, r, r2):
    """G(b) and G'(b), with r2 = 2 r."""
    K = 1.0 / m1
    return (b * b - b * (K + r2) + r * (K + s),
            2.0 * b - K - r2 + (r - b) * (m2 / (m1 * m1)))


def _solve(m, phi0):
    """The roots of H in row 0 and G in row 1 of a (2, K) iterate, on the
    brackets [0, hi] and [r, s], from sqrt(s r), and which converged:
    scalar summaries by ``_solve_one``, as pairs, and arrays by one array
    run, whatever their number of rows."""
    n, s, r, xcs = m
    c = phi0**2
    rc = r * c
    r2 = 2.0 * r
    sr = np.sqrt(s * r)
    if np.ndim(s) == 0:
        return _solve_one(xcs[0][:, 0], n, s, r, c, rc, r2, sr)
    lo = np.array([np.zeros_like(s), r])
    hi = np.array([rc + sr, s])
    x0 = np.clip(sr, lo, hi)
    # one buffer serves every block in turn, so it stays in cache
    scratch = np.empty(2 * max(xc.size for xc in xcs))
    blocks, start = [], 0
    for xc in xcs:
        nb, k = xc.shape
        buf = scratch[:2 * xc.size].reshape(nb, 2, k)
        blocks.append((xc[:, None, :], slice(start, start + k), buf))
        start += k
    sums = [None] * len(blocks)

    def HG(b, done):
        """H and G with their derivatives, stale where done."""
        s1, s2 = _inverse_sums(blocks, b, done, sums)
        m1t, m1h = s1 / n
        m2t, m2h = s2 / n
        h, dh = _restricted_equation(b[0], m1t, m2t, s, r, c, rc)
        g, dg = _profile_equation(b[1], m1h, m2h, s, r, r2)
        return np.array([h, g]), np.array([dh, dg])

    return _safeguarded_newton(HG, lo, hi, x0)


def _solve_one(xv, n, s, r, c, rc, r2, sr):
    """``_solve`` of one data set, its column xv, on scalars: H and G in
    lockstep, each sweep through one (4, n) buffer that holds x + b for
    both iterates, then their reciprocals, and their squares in rows 2-3."""
    buf = np.empty((4, len(xv)))
    u, squares = buf[:2], buf[2:]

    def HG(b):
        """H and G with their derivatives at the pair b."""
        np.add(xv, b[0], out=buf[0])
        np.add(xv, b[1], out=buf[1])
        np.divide(1.0, u, out=u)
        np.multiply(u, u, out=squares)
        m1t, m1h, m2t, m2h = np.add.reduce(buf, axis=1) / n
        h, dh = _restricted_equation(b[0], m1t, m2t, s, r, c, rc)
        g, dg = _profile_equation(b[1], m1h, m2h, s, r, r2)
        return (h, g), (dh, dg)

    # the array run's np.clip: sqrt(s r) is inside H's bracket
    return _lockstep_newton(HG, [0.0, r], [rc + sr, s],
                            [sr, min(max(sr, r), s)])


class BirnbaumSaunders(ModelFamily):
    """Birnbaum-Saunders(phi, beta), testing the shape phi."""

    name = "birnbaum-saunders"
    p = 2
    q = 1
    param_names = ("phi", "beta")
    default_theta = (1.0, 1.0)
    lower = (0.0, 0.0)

    def sample(self, theta, size, rng):
        phi, beta = self._theta(theta).tolist()
        t = rng.standard_normal(size)
        t *= 0.5 * phi
        x = t * t                       # beta (t + sqrt(t^2 + 1))^2
        x += 1.0
        np.sqrt(x, out=x)
        x += t
        x *= x
        x *= beta
        return x

    def validate_data(self, data):
        check_observations(self.name, data, POSITIVE, least=2)

    def summarize(self, x):
        """n, the row means s and row harmonic means r of x, and its (n, k)
        transposed copy as a block of one."""
        xc = np.ascontiguousarray(x.T)
        n = len(xc)
        return (n, _pairwise_sum(xc) / n,
                1.0 / (_pairwise_sum(1.0 / xc) / n), (xc,))

    def estimates(self, m, theta10):
        """Both fits from one Newton run.  The unrestricted fit fails where
        phi_sq = s/b + b/r - 2 is within its own rounding error of 0, at or
        below (n + 4) eps.  It is exactly 0 for data of one value, but the
        computed s and r then carry relative errors of up to n u and
        (n + 2) u (u = eps/2: n - 1 additions in any order, the division
        by n and, for r, the reciprocals), so s/r - 1, the largest phi_sq
        on [r, s], can reach (n + 1) eps; evaluating phi_sq adds 2 eps more,
        to (n + 3) eps to first order, and the last eps covers the rest.
        Such data cannot tell phi_hat from 0."""
        n, s, r, _ = m
        phi0 = float(theta10[0])
        (bt, bh), (ok_t, ok_h) = _solve(m, phi0)
        phi_sq = s / bh + bh / r - 2.0
        return (((phi0, bt), ok_t),
                ((np.sqrt(phi_sq), bh),
                 ok_h & (s > r) & (phi_sq > (n + 4) * _EPS)))

    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        n, s, r, _ = m
        phi0, bt = float(theta10[0]), theta_tilde[1]
        return (n * (theta_hat[0] - phi0) / phi0**3
                * (s / bt + bt / r - (2.0 + phi0**2)))

    def cumulant_entries(self, theta) -> tuple:
        f, b = self._theta(theta).tolist()
        R = std_normal_tail_scaled(2.0 / f)
        T = f**2 - _SQRT_2PI * f * R + 2.0
        W = _SQRT_2PI * f**2 * R - 6.0 * f + 4.0 * _SQRT_2PI * R
        k2 = {(0, 0): -2.0 / f**2, (1, 1): -T / (2.0 * b**2 * f**2)}
        k3 = {(0, 0, 0): 10.0 / f**3,
              (0, 1, 1): (f**2 + 2.0) / (b**2 * f**3),
              (1, 1, 1): 1.5 * T / (b**3 * f**2)}
        k4 = {(0, 0, 0, 0): -54.0 / f**4,
              (0, 0, 1, 1): -3.0 * (f**2 + 2.0) / (b**2 * f**4),
              (0, 1, 1, 1): -3.0 * (f**2 + 2.0) / (b**3 * f**3),
              (1, 1, 1, 1): 3.0 * (-16.0 * f**3 + 15.0 * _SQRT_2PI * f**2 * R
                                   - 34.0 * f + 4.0 * _SQRT_2PI * R)
              / (8.0 * b**4 * f**3)}
        d2 = {(0, 0, 0): 4.0 / f**3,            # [k,l,u] = D_u kappa_{kl}
              (1, 1, 0): -W / (2.0 * b**2 * f**4),
              (1, 1, 1): T / (b**3 * f**2)}
        d3 = {(0, 0, 0, 0): -30.0 / f**4,       # [j,r,s,u] = D_j kappa_{rsu}
              (0, 0, 1, 1): -(f**2 + 6.0) / (b**2 * f**4),
              (1, 0, 1, 1): -2.0 * (f**2 + 2.0) / (b**3 * f**3),
              (0, 1, 1, 1): 1.5 * W / (b**3 * f**4),
              (1, 1, 1, 1): -4.5 * T / (b**4 * f**2)}
        dd2 = {(0, 0, 0, 0): -12.0 / f**4,  # [j,r,s,u] = D_j D_r kappa_{su}
               (0, 0, 1, 1): (_SQRT_2PI * f**4 * R - 10.0 * f**3
                              + 10.0 * _SQRT_2PI * f**2 * R - 4.0 * f
                              + 8.0 * _SQRT_2PI * R) / (b**2 * f**7),
               (0, 1, 1, 1): W / (b**3 * f**4),
               (1, 1, 1, 1): -3.0 * T / (b**4 * f**2)}
        return k2, k3, k4, d2, d3, dd2
