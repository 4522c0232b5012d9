"""Independent reference implementations used to freeze expected values.

Nothing here leans on the package's numeric internals.  The incomplete
gamma is a hand-rolled series / continued-fraction pair, the normal CDF
is Gauss-Legendre quadrature of the density, quantiles come from
bisection, derivatives from central differences, and the expansion
coefficients from the divergence form of the order-n^{-1} term in exact
Fraction arithmetic, a different algebraic lineage than the production
tensor contractions.  Two closed forms written in their own variables
stand beside it: the one-parameter exponential-family formula in the
derivatives of alpha and beta, and the Birnbaum-Saunders coefficients
in the shape alone.  One reference does call the package: the gradient
statistic rebuilt from its definition, the score at the restricted fit
times the estimate shift, out of a family's one-data-set fits and score
instead of its row-wise statistic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# ------------------------------------------------------------ chi-square

def lower_gamma_regularized(a: float, x: float, tol: float = 1e-15,
                            max_iter: int = 500) -> float:
    """P(a, x) by power series (x < a+1) or Lentz continued fraction."""
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    log_front = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        k = a
        for _ in range(max_iter):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * tol:
                break
        return total * math.exp(log_front)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_iter):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            break
    return 1.0 - math.exp(log_front) * h


def chi2_cdf_oracle(x: float, q: int) -> float:
    return lower_gamma_regularized(0.5 * q, 0.5 * x)


def chi2_pdf_oracle(x: float, q: int) -> float:
    if x < 0.0:
        return 0.0
    if x == 0.0:
        return 0.5 if q == 2 else (math.inf if q < 2 else 0.0)
    return math.exp((0.5 * q - 1.0) * math.log(x) - 0.5 * x
                    - 0.5 * q * math.log(2.0) - math.lgamma(0.5 * q))


def bisect_root(f, lo: float, hi: float, tol: float = 5e-14,
                max_iter: int = 200) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    if flo * f(hi) > 0.0:
        raise ValueError("root not bracketed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo <= tol * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def chi2_quantile_oracle(pr: float, q: int) -> float:
    hi = 1.0
    while chi2_cdf_oracle(hi, q) < pr:
        hi *= 2.0
    return bisect_root(lambda x: chi2_cdf_oracle(x, q) - pr, 0.0, hi)


def normal_cdf_oracle(z: float) -> float:
    """0.5 + integral of the density over [0, z], 120-point Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(120)
    half = 0.5 * z
    x = half * (nodes + 1.0)
    return 0.5 + half * float(weights @ np.exp(-0.5 * x * x)) \
        / math.sqrt(2.0 * math.pi)


def central_diff(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------- divergence-form coefficients
#
# Exact Fraction evaluation of the three coefficients written as total
# divergences of the information geometry (the representation the
# order-n^{-1} term integrates to), on integer-valued cumulant arrays.
# Array layout matches CumulantBundle:
#   d_kappa2[k][l][u]    = D_u kappa_{kl}
#   d_kappa3[j][r][s][u] = D_j kappa_{rsu}
#   dd_kappa2[j][r][s][u] = D_j D_r kappa_{su}

def _zeros(*shape):
    if len(shape) == 1:
        return [Fraction(0)] * shape[0]
    return [_zeros(*shape[1:]) for _ in range(shape[0])]


def _mat_inv(M):
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)]
         + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [x / pv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [row[n:] for row in A]


def _matmul(X, Y):
    return [[sum(X[i][t] * Y[t][j] for t in range(len(Y)))
             for j in range(len(Y[0]))] for i in range(len(X))]


def _matsub(X, Y):
    return [[a - b for a, b in zip(rx, ry)] for rx, ry in zip(X, Y)]


def _matneg(X):
    return [[-a for a in row] for row in X]


def random_integer_bundle(p: int, rng) -> dict:
    """Integer arrays with CumulantBundle's layout and symmetries."""
    L = [[rng.randint(-3, 3) if j < i else (rng.randint(1, 3) if i == j else 0)
          for j in range(p)] for i in range(p)]
    kappa2 = [[-(sum(L[i][t] * L[j][t] for t in range(p))
                 + (p + 1) * (i == j)) for j in range(p)] for i in range(p)]
    kappa3 = _zeros(p, p, p)
    for j in range(p):
        for r in range(j, p):
            for s in range(r, p):
                v = Fraction(rng.randint(-4, 4))
                for a, b, c in itertools.permutations((j, r, s)):
                    kappa3[a][b][c] = v
    kappa4 = _zeros(p, p, p, p)
    for j in range(p):
        for r in range(j, p):
            for s in range(r, p):
                for u in range(s, p):
                    v = Fraction(rng.randint(-4, 4))
                    for a, b, c, d in itertools.permutations((j, r, s, u)):
                        kappa4[a][b][c][d] = v
    d2 = _zeros(p, p, p)
    for j in range(p):
        for r in range(j, p):
            for u in range(p):
                v = Fraction(rng.randint(-4, 4))
                d2[j][r][u] = d2[r][j][u] = v
    d3 = _zeros(p, p, p, p)
    for j in range(p):
        for r in range(p):
            for s in range(r, p):
                for u in range(s, p):
                    v = Fraction(rng.randint(-4, 4))
                    for a, b, c in itertools.permutations((r, s, u)):
                        d3[j][a][b][c] = v
    dd2 = _zeros(p, p, p, p)
    for j in range(p):
        for r in range(j, p):
            for s in range(p):
                for u in range(s, p):
                    v = Fraction(rng.randint(-4, 4))
                    for a, b in ((j, r), (r, j)):
                        for c, d in ((s, u), (u, s)):
                            dd2[a][b][c][d] = v
    return {"kappa2": kappa2, "kappa3": kappa3, "kappa4": kappa4,
            "d_kappa2": d2, "d_kappa3": d3, "dd_kappa2": dd2}


def divergence_coefficients(bundle: dict, q: int):
    """(A1, A2, A3) as Fractions from the divergence representation."""
    p = len(bundle["kappa2"])
    R = range(p)
    kappa2 = bundle["kappa2"]
    kappa3 = bundle["kappa3"]
    kappa4 = bundle["kappa4"]
    d2 = bundle["d_kappa2"]
    # internal convention: derivative index last
    d3 = [[[[Fraction(bundle["d_kappa3"][u][j][r][s]) for u in R]
            for s in R] for r in R] for j in R]
    dd2 = [[[[Fraction(bundle["dd_kappa2"][s][u][j][r]) for u in R]
             for s in R] for r in R] for j in R]

    K = [[-Fraction(kappa2[i][j]) for j in range(p)] for i in range(p)]
    Kinv = _mat_inv(K)
    A = _zeros(p, p)
    if q < p:
        K22inv = _mat_inv([[K[i][j] for j in range(q, p)]
                           for i in range(q, p)])
        for i in range(q, p):
            for j in range(q, p):
                A[i][j] = K22inv[i - q][j - q]
    M = [[Kinv[i][j] - A[i][j] for j in range(p)] for i in range(p)]

    dK = [[[-Fraction(d2[s][t][u]) for t in R] for s in R] for u in R]
    ddK = [[[[-dd2[s][t][j][r] for t in R] for s in R] for r in R]
           for j in R]

    dKinv = [_matneg(_matmul(_matmul(Kinv, dK[u]), Kinv)) for u in R]
    dA = [_matneg(_matmul(_matmul(A, dK[u]), A)) for u in R]
    dM = [_matsub(dKinv[u], dA[u]) for u in R]

    def dd_of_inverse(B):
        out = [[None] * p for _ in R]
        for j in R:
            for r in R:
                t1 = _matmul(_matmul(B, dK[j]), _matmul(_matmul(B, dK[r]), B))
                t2 = _matmul(_matmul(B, dK[r]), _matmul(_matmul(B, dK[j]), B))
                t3 = _matmul(_matmul(B, ddK[j][r]), B)
                out[j][r] = _matsub([[a + b for a, b in zip(ra, rb)]
                                     for ra, rb in zip(t1, t2)], t3)
        return out

    ddKinv = dd_of_inverse(Kinv)
    ddA = dd_of_inverse(A)

    term1 = 12 * sum(ddKinv[j][r][j][r] - ddA[j][r][j][r]
                     for j in R for r in R)

    def div_k3_XY(X, dX, Y, dY):
        tot = Fraction(0)
        for j, r, s, u in itertools.product(R, repeat=4):
            tot += d3[j][r][s][u] * X[j][r] * Y[s][u]
            tot += kappa3[j][r][s] * dX[u][j][r] * Y[s][u]
            tot += kappa3[j][r][s] * X[j][r] * dY[u][s][u]
        return tot

    term2 = -6 * div_k3_XY(M, dM, M, dM)
    term3 = -12 * div_k3_XY(M, dM, A, dA)

    term4 = Fraction(0)
    for j, s, u, r in itertools.product(R, repeat=4):
        term4 += d3[j][s][u][r] * M[j][r] * A[s][u]
        term4 += kappa3[j][s][u] * dM[r][j][r] * A[s][u]
        term4 += kappa3[j][s][u] * M[j][r] * dA[r][s][u]
    term4 *= -12

    term5 = 6 * sum(Fraction(kappa4[j][r][s][u]) * M[j][r] * A[s][u]
                    for j, r, s, u in itertools.product(R, repeat=4))

    term6 = Fraction(0)
    term7 = Fraction(0)
    for j, r, s, u, v, w in itertools.product(R, repeat=6):
        c = kappa3[j][r][s] * kappa3[u][v][w]
        if c:
            term6 += 3 * c * (M[j][r] * M[s][u] * A[v][w]
                              + 2 * M[j][r] * A[s][u] * A[v][w])
        c2 = kappa3[j][s][u] * kappa3[r][v][w]
        if c2:
            term7 += 9 * c2 * M[j][r] * A[s][u] * A[v][w]
    A1 = term1 + term2 + term3 + term4 + term5 + term6 + term7

    A2 = 6 * div_k3_XY(M, dM, M, dM)
    for j, r, s, u, v, w in itertools.product(R, repeat=6):
        c = kappa3[j][r][s] * kappa3[u][v][w]
        if c:
            A2 += -3 * c * (M[j][r] * M[s][u] * A[v][w]
                            + Fraction(3, 4) * M[j][r] * M[s][u] * M[v][w]
                            + Fraction(1, 2) * M[j][u] * M[r][v] * M[s][w])
        c2 = kappa3[j][r][v] * kappa3[s][u][w]
        if c2:
            A2 += -9 * c2 * M[j][r] * M[s][u] * A[v][w]
    A2 += -3 * sum(Fraction(kappa4[j][r][s][u]) * M[j][r] * M[s][u]
                   for j, r, s, u in itertools.product(R, repeat=4))

    A3 = Fraction(0)
    for j, r, s, u, v, w in itertools.product(R, repeat=6):
        c = kappa3[j][r][s] * kappa3[u][v][w]
        if c:
            A3 += Fraction(1, 12) * c * (9 * M[j][r] * M[s][u] * M[v][w]
                                         + 6 * M[j][u] * M[r][v] * M[s][w])
    return A1, A2, A3


def bundle_to_float_arrays(bundle: dict) -> dict:
    return {key: np.array(value, dtype=float)
            for key, value in bundle.items()}


# ---------------------------------------------------- closed-form oracles

def expfam_coefficients(a1: float, a2: float, a3: float,
                        b1: float, b2: float, b3: float) -> tuple:
    """(A1, A2, A3) of the one-parameter exponential family.

    Density exp{-alpha(phi) d(x) + v(x)} / xi(phi); the arguments are
    alpha', alpha'', alpha''' and beta', beta'', beta''' at phi, where
    beta = xi'/(xi alpha') = -E d(X).
    """
    ra = a2 / a1
    rb = b2 / b1
    A1 = 6.0 / (a1 * b1) * (2.0 * rb ** 2 + ra * rb - b3 / b1)
    A2 = 3.0 / (a1 * b1) * (rb * (4.0 * ra - rb / 4.0)
                            + 3.0 * (ra ** 2 + rb ** 2)
                            - (a3 / a1 + b3 / b1))
    A3 = 5.0 / (a1 * b1) * (ra + rb / 2.0) ** 2
    return A1, A2, A3


def birnbaum_saunders_coefficients(f: float) -> dict:
    """The Birnbaum-Saunders shape test's coefficients at shape f in the
    printed closed form: the phi part (-3, 69/8, 125/8) plus the phi-beta
    interaction terms, through h(f) = f sqrt(pi/2) - pi R with
    R = e^{2/f^2}(1 - Phi(2/f)) from math.erfc.

    The printed interaction terms read
      A1_phibeta = -3(7f^4 + 6f^2 + 16)/(2f^2 den)
                   + 3(f^2 + 2)(2f^4 + 3f^2 + 4)/(f^2 den^2),
      A2_phibeta = -45(2 + f^2)/(2 den),
    den = 1 + f h/sqrt(2 pi).  Both are replaced here by the reduction of
    the orthogonal route on this family's cumulants.  The printed
    A2_phibeta is 3 times 3 kpbb kppp/(kpp^2 kbb).  With the printed
    A1_phibeta, the mean 1 + A1/(12n) of S lies 20 standard errors from a
    400,000-replicate simulated mean at phi = beta = 1, n = 20 (10 at
    n = 40); with the derived one it lies within 1.
    """
    R = 0.5 * math.exp(2.0 / f**2) * math.erfc(math.sqrt(2.0) / f)
    h = f * math.sqrt(0.5 * math.pi) - math.pi * R
    den = 1.0 + f * h / math.sqrt(2.0 * math.pi)
    a1pb = -3.0 * (9.0 * f**4 + 18.0 * f**2 + 32.0) / (2.0 * f**2 * den) \
        + 3.0 * (f**2 + 2.0) * (5.0 * f**4 + 6.0 * f**2 + 16.0) \
        / (2.0 * f**2 * den**2)
    a2pb = -7.5 * (2.0 + f**2) / den
    return dict(A1=-3.0 + a1pb, A2=69.0 / 8.0 + a2pb, A3=125.0 / 8.0,
                A1_phi=-3.0, A1_phibeta=a1pb,
                A2_phi=69.0 / 8.0, A2_phibeta=a2pb)


# ------------------------------------------------------------ statistic

def gradient_statistic_reference(model, data, theta10) -> float:
    """Unclamped S = n U_1(theta_tilde)'(theta_hat_1 - theta10) of one data
    set from the model's two fits and its score; FitError where a fit
    fails."""
    theta10 = np.atleast_1d(np.asarray(theta10, dtype=float))
    n = sum(map(len, data)) if isinstance(data, tuple) else len(data)
    theta_tilde = np.atleast_1d(model.fit_restricted(data, theta10))
    theta_hat = np.atleast_1d(model.fit_unrestricted(data))
    u1 = np.atleast_1d(model.score(data, theta_tilde))[:model.q]
    return float(n * u1 @ (theta_hat[:model.q] - theta10))
