"""Expansion coefficients A1, A2, A3 of the gradient statistic's null CDF.

Three routes compute the same triple:

* ``coefficients_general`` -- the full tensor contraction over a
  CumulantBundle for any p, q.  Every term is read from one of three
  tables over S = stack(Kinv, A, M) (``_tables``).  A six-index term
  joins two three-index tensors (kappa3 or d_kappa2) through three
  slices of S: traced, where one matrix traces each tensor to a vector
  and a third joins the vectors, all in one batched V S V^T (O(p^3)); or
  crossing, where every index runs from one tensor to the other, so S
  is applied one axis at a time before the inner product, all 27 of
  them in one batched matmul (O(p^4)).  The four-index terms form one
  (4, 3, 3) table of S_f F S_f^T (O(p^4)).  A call takes 0.11-0.39 ms
  for p = 1..8 on a shared 2-vCPU Xeon.
* ``coefficients_one_param`` -- scalar closed forms for p = q = 1 models.
* ``coefficients_orthogonal`` -- closed forms for two-parameter models
  with block-diagonal information (kappa_phibeta = 0), testing phi with
  beta as nuisance, on scalars read from the cumulant entries.

``ModelFamily.coefficients`` picks a family's scalar route where one
applies, the general route otherwise.

The general contraction was pinned down against the divergence form of
the coefficients (exact rational arithmetic, random bundles over p <= 4
and every q); the closed forms are sympy reductions of that contraction.
The test suite re-derives both checks numerically.

From the A's the CDF expansion weights follow:

    R1 = 3 A3 - 2 A2 + A1,  R2 = A2 - 3 A3,  R3 = A3,
    R0 = -(R1 + R2 + R3),

so that Pr(S <= x) = G_q(x) + (1/24n) sum_i Ri G_{q+2i}(x).
"""

from __future__ import annotations

import numpy as np

from ._record import Record

__all__ = ["ExpansionCoefficients", "OrthogonalCoefficients",
           "OneParamCumulants", "OrthogonalCumulants",
           "coefficients_general", "coefficients_one_param",
           "coefficients_orthogonal"]


class ExpansionCoefficients(Record):
    """A1, A2, A3 plus the chi-square mixture weights R0..R3 they imply."""

    __slots__ = ("A1", "A2", "A3", "R0", "R1", "R2", "R3")

    def __init__(self, A1: float, A2: float, A3: float):
        r1 = 3.0 * A3 - 2.0 * A2 + A1
        r2 = A2 - 3.0 * A3
        r3 = A3
        self._fill(A1, A2, A3, -(r1 + r2 + r3), r1, r2, r3)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.A1, self.A2, self.A3)


class OrthogonalCoefficients(ExpansionCoefficients):
    """ExpansionCoefficients with the phi / phi-beta split exposed."""

    __slots__ = ("A1_phi", "A1_phibeta", "A2_phi", "A2_phibeta")

    def __init__(self, A1: float, A2: float, A3: float, A1_phi: float = 0.0,
                 A1_phibeta: float = 0.0, A2_phi: float = 0.0,
                 A2_phibeta: float = 0.0):
        super().__init__(A1, A2, A3)
        self._fill(A1_phi, A1_phibeta, A2_phi, A2_phibeta,
                   start=len(ExpansionCoefficients._names))


class OneParamCumulants(Record):
    """Scalar cumulants of a one-parameter model at phi.

    kpp    = kappa_phiphi            kpp_p   = d kappa_phiphi / d phi
    kppp   = kappa_phiphiphi         kppp_p  = d kappa_phiphiphi / d phi
    kpppp  = kappa_phiphiphiphi      kpp_pp  = d^2 kappa_phiphi / d phi^2
    """

    __slots__ = ("kpp", "kppp", "kpppp", "kpp_p", "kppp_p", "kpp_pp")

    def __init__(self, kpp: float, kppp: float, kpppp: float, kpp_p: float,
                 kppp_p: float, kpp_pp: float):
        self._fill(kpp, kppp, kpppp, kpp_p, kppp_p, kpp_pp)

    # where each field sits: the array, in CumulantBundle field order, and
    # the index (phi 0), sorted within each run of symmetric axes
    index = ((0, (0, 0)), (1, (0, 0, 0)), (2, (0, 0, 0, 0)), (3, (0, 0, 0)),
             (4, (0, 0, 0, 0)), (5, (0, 0, 0, 0)))

    @classmethod
    def from_arrays(cls, kappa2, kappa3, kappa4, d_kappa2, d_kappa3,
                    dd_kappa2):
        """The scalars at ``index`` of a model's cumulant arrays."""
        arrays = (kappa2, kappa3, kappa4, d_kappa2, d_kappa3, dd_kappa2)
        return cls(*(arrays[a][i] for a, i in cls.index))


class OrthogonalCumulants(OneParamCumulants):
    """The sixteen scalars the orthogonal closed forms consume: the six
    phi scalars of OneParamCumulants, then ten more.

    Naming: p and b in field names stand for the tested parameter phi and
    the nuisance beta; a trailing ``_x`` marks a derivative with respect
    to x.  So kppb_b is d kappa_phiphibeta / d beta and kpp_pp is
    d^2 kappa_phiphi / d phi^2.
    """

    __slots__ = ("kbb", "kbbb", "kpbb", "kppb", "kppbb", "kpp_b", "kppb_b",
                 "kpbb_p", "kbb_b", "kbb_p")

    def __init__(self, kpp: float, kppp: float, kpppp: float, kpp_p: float,
                 kppp_p: float, kpp_pp: float, kbb: float, kbbb: float,
                 kpbb: float, kppb: float, kppbb: float, kpp_b: float,
                 kppb_b: float, kpbb_p: float, kbb_b: float, kbb_p: float):
        self._fill(kpp, kppp, kpppp, kpp_p, kppp_p, kpp_pp, kbb, kbbb, kpbb,
                   kppb, kppbb, kpp_b, kppb_b, kpbb_p, kbb_b, kbb_p)

    # the phi scalars' positions, then the ten more (beta 1)
    index = OneParamCumulants.index + (
        (0, (1, 1)), (1, (1, 1, 1)), (1, (0, 1, 1)), (1, (0, 0, 1)),
        (2, (0, 0, 1, 1)), (3, (0, 0, 1)), (4, (1, 0, 0, 1)),
        (4, (0, 0, 1, 1)), (3, (1, 1, 1)), (3, (1, 1, 0)))


# Slots of S = stack(Kinv, A, M) and of V: V[U + m] traces kappa3 with
# S[m] (any two axes), V[W + m] d_kappa2 over axes (1, 2), equal to (0, 2).
K, A, M = 0, 1, 2
U, W = 0, 3


def _tables(b: CumulantBundle, geo, mix) -> tuple:
    """The three tables every term of ``coefficients_general`` reads.

    traced[m, a, c] = V[a] S[m] V[c]; crossing[m, i, r] = x_i[j,r,s]
    S[m]^{ja} S[m]^{rb} S[r]^{sc} y_i[a,b,c] for (x_i, y_i) = (kappa3,
    d_kappa2), (kappa3, kappa3), (d_kappa2, d_kappa2 with its derivative
    axis first), all 27 (m, i, r), of which the sums read nine;
    four[t, a, c] = F_t[j,r,s,u] S[a]^{jr} S[c]^{su} for F = (kappa_31,
    kappa4, kappa4 + kappa_31 with u second, the A1 mix with s second).
    """
    p = b.p
    k3, k4, d2, k31 = b.kappa3, b.kappa4, b.d_kappa2, mix.kappa_31
    S = np.array([geo.Kinv, geo.A, geo.M])
    Sf, St = S.reshape(3, p * p), S.transpose(0, 2, 1)
    V = np.concatenate([Sf @ k3.reshape(p * p, p),
                        (d2.reshape(p, p * p) @ Sf.T).T])
    # x[i] S[m] S[m] over its first two axes, [i, m, a, b, s], against
    # y[i] joined to S[r] on its last, [i, r, ab, s]: one inner product
    # per (i, m, r)
    x = np.array([k3, k3, d2]).reshape(3, 1, p, p * p)
    xm = St[:, None] @ (St @ x).reshape(3, 3, p, p, p)
    y = np.array([d2, k3, d2.transpose(1, 2, 0)]).reshape(3, 1, p * p, p)
    yr = (y @ St).reshape(3, 3, -1).transpose(0, 2, 1)
    crossing = (xm.reshape(3, 3, -1) @ yr).transpose(1, 0, 2)
    # k_{jrsu} + k_{j,rsu} + k_{jsu,r} + (k_{ju,rs} + k_{j,u,rs}), the
    # cumulant mix multiplying the final A1 factor
    five = k4 + mix.kappa_13 + k31.transpose(0, 3, 1, 2) + mix.T
    F = np.array([k31, k4, (k4 + k31).transpose(0, 3, 1, 2),
                  five.transpose(0, 2, 3, 1)])
    return V @ S @ V.T, crossing, Sf @ F.reshape(4, p * p, p * p) @ Sf.T


def coefficients_general(b: CumulantBundle,
                         h: HypothesisSpec) -> ExpansionCoefficients:
    """Full contraction of the cumulant arrays against Kinv, A, M.

    Reads the three A-sums term by term from the tables of ``_tables``
    (tr traced, cr crossing, f four-index).  Two details in the A1 sum
    are easy to get wrong and are fixed here by the divergence-form
    oracle (tests/test_expansion.py): the first summand carries
    m^{jr}(m^{sk} + 2 a^{sk}), not kappa^{s,k} in place of m^{sk}, and
    the kappa_{jrs,u} m^{jr} a^{su} term enters with a minus sign.
    """
    from .cumulants import build_geometry, derive_mixed_cumulants
    tr, cr, f = _tables(b, build_geometry(b, h), derive_mixed_cumulants(b))
    A3 = 0.75 * tr[M, U + M, U + M] + 0.5 * cr[M, 1, M]

    # 3 k_{jrs} k_{klu} a^{lu} (3 m^{jk} a^{rs} + m^{jr}(m^{sk} + 2 a^{sk}))
    A1 = (9.0 * tr[M, U + A, U + A]
          + 3.0 * (tr[M, U + M, U + A] + 2.0 * tr[A, U + M, U + A]))
    A1 -= 6.0 * (f[0, M, A] + f[1, M, K] + f[0, M, K] + 2.0 * f[2, M, A])
    A1 += 12.0 * (f[3, K, K] - f[3, A, A])
    # 6 (k_{klu} + k_{kl,u}) times the bracket of the d_kappa2 sum
    A1 += 12.0 * (tr[K, W + K, W + K] - tr[A, W + A, W + A]
                  + cr[K, 2, K] - cr[A, 2, A])
    # k_{jrs} against (k_{klu} + k_{kl,u}), crossing and traced; the
    # m^{jr} traced pair and the (A, A, M) crossing are also A2's
    A1 -= 6.0 * (cr[K, 0, K] + cr[K, 0, A] - cr[A, 0, K] - cr[A, 0, A]
                 + tr[A, U + M, W + A] + tr[K, U + M, W + K]
                 + 2.0 * (tr[K, U + A, W + K] - tr[A, U + A, W + A])
                 + 2.0 * cr[A, 0, M])

    # the k_{jrs} k_{klu} m^{jr} (3/4 m^{sk} m^{lu}) and
    # (1/2) m^{jk} m^{rl} m^{su} terms of A2 are -3 A3
    A2 = -3.0 * (tr[M, U + M, U + A] + 3.0 * tr[A, U + M, U + M] + A3)
    A2 += 6.0 * (cr[K, 0, M] - cr[A, 0, M]
                 + tr[K, U + M, W + K] - tr[A, U + M, W + A])
    A2 += 3.0 * (f[1, M, M] + 2.0 * f[0, M, M])

    return ExpansionCoefficients(A1=float(A1), A2=float(A2), A3=float(A3))


def coefficients_one_param(c: OneParamCumulants) -> ExpansionCoefficients:
    """Scalar closed forms for p = q = 1."""
    k2 = c.kpp
    if k2 >= 0:
        raise ValueError(f"kappa_phiphi must be negative, got {k2}")
    k2c = k2 ** 3
    A1 = (6.0 * k2 * (2.0 * c.kpp_pp - c.kppp_p)
          + 12.0 * c.kpp_p * (c.kppp - 2.0 * c.kpp_p)) / k2c
    A2 = (12.0 * k2 * (2.0 * c.kppp_p - c.kpppp)
          + 3.0 * c.kppp * (5.0 * c.kppp - 16.0 * c.kpp_p)) / (4.0 * k2c)
    A3 = -5.0 * c.kppp ** 2 / (4.0 * k2c)
    if not 0.0 <= A3 < np.inf:
        raise ValueError(f"A3 must be finite and nonnegative, got {A3}")
    return ExpansionCoefficients(A1=A1, A2=A2, A3=A3)


def coefficients_orthogonal(c: OrthogonalCumulants) -> OrthogonalCoefficients:
    """Closed forms for orthogonal (phi, beta) models testing phi.

    They are invalid unless kappa_phibeta = 0, which the scalars do not
    carry; ``ModelFamily.specialized_coefficients`` checks it.
    """
    if c.kpp >= 0 or c.kbb >= 0:
        raise ValueError("kappa_phiphi and kappa_betabeta must be negative")
    phi = coefficients_one_param(c)
    kpp, kbb = c.kpp, c.kbb
    A1pb = (3.0 * (4.0 * c.kppb * c.kpp_b
                   + c.kpbb * (4.0 * c.kpp_p - c.kppp)) / (kpp ** 2 * kbb)
            + 6.0 * (c.kppbb - 2.0 * c.kppb_b - 2.0 * c.kpbb_p) / (kpp * kbb)
            + 3.0 * (2.0 * c.kppb * (2.0 * c.kbb_b - c.kbbb)
                     + c.kpbb * (4.0 * c.kbb_p - 3.0 * c.kpbb))
            / (kpp * kbb ** 2))
    A2pb = (3.0 * c.kppp * c.kpbb + 9.0 * c.kppb ** 2) / (kpp ** 2 * kbb)
    return OrthogonalCoefficients(A1=phi.A1 + A1pb, A2=phi.A2 + A2pb,
                                  A3=phi.A3,
                                  A1_phi=phi.A1, A1_phibeta=A1pb,
                                  A2_phi=phi.A2, A2_phibeta=A2pb)
