"""Expansion coefficients A1, A2, A3 of the gradient statistic's null CDF.

Three routes compute the same triple:

* ``coefficients_general`` -- the full tensor contraction over a
  CumulantBundle for any p, q.  Every six-index term joins two
  three-index tensors (kappa3 or d_kappa2) through three of Kinv, A, M,
  and is evaluated pairwise in one of two shapes: traced, where one
  matrix traces each tensor to a vector and the third joins the vectors
  (O(p^3)); or crossing, where every index runs from one tensor to the
  other, so the matrices are applied one axis at a time before the
  inner product (O(p^4)).  The four-index terms are single einsums,
  also O(p^4).
* ``coefficients_one_param`` / ``coefficients_expfam`` -- scalar closed
  forms for p = q = 1 models.
* ``coefficients_orthogonal`` -- closed forms for two-parameter models
  with block-diagonal information (kappa_phibeta = 0), testing phi with
  beta as nuisance, on scalars indexed from the cumulant arrays.

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

import functools
from dataclasses import dataclass, field

import numpy as np

from .cumulants import (CumulantBundle, HypothesisSpec, build_geometry,
                        derive_mixed_cumulants)

__all__ = ["ExpansionCoefficients", "OrthogonalCoefficients",
           "OneParamCumulants", "OrthogonalCumulants",
           "coefficients_general", "coefficients_one_param",
           "coefficients_expfam", "coefficients_orthogonal"]


@dataclass(frozen=True)
class ExpansionCoefficients:
    """A1, A2, A3 plus the chi-square mixture weights R0..R3 they imply."""

    A1: float
    A2: float
    A3: float
    R0: float = field(init=False)
    R1: float = field(init=False)
    R2: float = field(init=False)
    R3: float = field(init=False)

    def __post_init__(self):
        r1 = 3.0 * self.A3 - 2.0 * self.A2 + self.A1
        r2 = self.A2 - 3.0 * self.A3
        r3 = self.A3
        object.__setattr__(self, "R1", r1)
        object.__setattr__(self, "R2", r2)
        object.__setattr__(self, "R3", r3)
        object.__setattr__(self, "R0", -(r1 + r2 + r3))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.A1, self.A2, self.A3)


@dataclass(frozen=True)
class OrthogonalCoefficients(ExpansionCoefficients):
    """ExpansionCoefficients with the phi / phi-beta split exposed."""

    A1_phi: float = 0.0
    A1_phibeta: float = 0.0
    A2_phi: float = 0.0
    A2_phibeta: float = 0.0


@dataclass(frozen=True)
class OneParamCumulants:
    """Scalar cumulants of a one-parameter model at phi.

    kpp    = kappa_phiphi            kpp_p   = d kappa_phiphi / d phi
    kppp   = kappa_phiphiphi         kppp_p  = d kappa_phiphiphi / d phi
    kpppp  = kappa_phiphiphiphi      kpp_pp  = d^2 kappa_phiphi / d phi^2
    """

    kpp: float
    kppp: float
    kpppp: float
    kpp_p: float
    kppp_p: float
    kpp_pp: float

    def to_bundle(self) -> CumulantBundle:
        """The equivalent p=1 CumulantBundle (for the general engine)."""
        shape = lambda v, k: np.full((1,) * k, float(v))
        return CumulantBundle(kappa2=shape(self.kpp, 2),
                              kappa3=shape(self.kppp, 3),
                              kappa4=shape(self.kpppp, 4),
                              d_kappa2=shape(self.kpp_p, 3),
                              d_kappa3=shape(self.kppp_p, 4),
                              dd_kappa2=shape(self.kpp_pp, 4))


@dataclass(frozen=True)
class OrthogonalCumulants:
    """The sixteen scalars the orthogonal closed forms consume.

    Naming: p and b in field names stand for the tested parameter phi and
    the nuisance beta; a trailing ``_x`` marks a derivative with respect
    to x.  So kppb_b is d kappa_phiphibeta / d beta and kpp_pp is
    d^2 kappa_phiphi / d phi^2.
    """

    kpp: float
    kppp: float
    kpppp: float
    kpp_p: float
    kppp_p: float
    kpp_pp: float
    kbb: float
    kbbb: float
    kpbb: float
    kppb: float
    kppbb: float
    kpp_b: float
    kppb_b: float
    kpbb_p: float
    kbb_b: float
    kbb_p: float

    @classmethod
    def from_arrays(cls, kappa2, kappa3, kappa4, d_kappa2, d_kappa3,
                    dd_kappa2) -> "OrthogonalCumulants":
        """Index the scalars from a p = 2 model's cumulant arrays (the
        CumulantBundle layouts, phi first, beta second)."""
        return cls(kpp=kappa2[0, 0], kppp=kappa3[0, 0, 0],
                   kpppp=kappa4[0, 0, 0, 0], kpp_p=d_kappa2[0, 0, 0],
                   kppp_p=d_kappa3[0, 0, 0, 0], kpp_pp=dd_kappa2[0, 0, 0, 0],
                   kbb=kappa2[1, 1], kbbb=kappa3[1, 1, 1],
                   kpbb=kappa3[0, 1, 1], kppb=kappa3[0, 0, 1],
                   kppbb=kappa4[0, 0, 1, 1], kpp_b=d_kappa2[0, 0, 1],
                   kppb_b=d_kappa3[1, 0, 0, 1], kpbb_p=d_kappa3[0, 0, 1, 1],
                   kbb_b=d_kappa2[1, 1, 1], kbb_p=d_kappa2[1, 1, 0])

    def phi_part(self) -> OneParamCumulants:
        return OneParamCumulants(kpp=self.kpp, kppp=self.kppp,
                                 kpppp=self.kpppp, kpp_p=self.kpp_p,
                                 kppp_p=self.kppp_p, kpp_pp=self.kpp_pp)


@functools.lru_cache(maxsize=None)
def _plan(subscripts: str) -> tuple:
    """The einsum steps of ``_pairwise``: x steps, y steps and the last
    step, each a (matrix slot, subscripts) pair.  Cached without bound:
    the keys are the subscript literals of ``coefficients_general``."""
    xs, *links, ys = subscripts.split(",")
    x_steps, y_steps, cross = [], [], []

    def trace(subs, slot, ab, steps):
        out = "".join(c for c in subs if c not in ab)
        steps.append((slot, f"{subs},{ab}->{out}"))
        return out

    for slot, ab in enumerate(links):
        if set(ab) <= set(xs):
            xs = trace(xs, slot, ab, x_steps)
        elif set(ab) <= set(ys):
            ys = trace(ys, slot, ab, y_steps)
        else:
            cross.append((slot, ab))
    *carry, (last, join) = cross
    for slot, link in carry:
        old, new = link if link[0] in xs else link[::-1]
        out = xs.replace(old, new)
        x_steps.append((slot, f"{xs},{link}->{out}"))
        xs = out
    return tuple(x_steps), tuple(y_steps), (last, f"{xs},{join},{ys}->")


def _pairwise(subscripts: str, x, *operands) -> float:
    """np.einsum(subscripts + "->", x, P, Q, R, y) for one six-index shape,
    evaluated pairwise in O(p^4).

    ``subscripts`` reads "jrs,ab,cd,ef,klu": two three-index tensors x and
    y joined through three matrices.  A matrix whose indices both belong
    to x (or both to y) traces it; every other matrix carries one index
    of x over to y, applied to x one axis at a time.  The last one joins
    what is left of x to y in a single einsum over at most four indices.
    """
    *mats, y = operands
    x_steps, y_steps, (last, final) = _plan(subscripts)
    for slot, subs in x_steps:
        x = np.einsum(subs, x, mats[slot])
    for slot, subs in y_steps:
        y = np.einsum(subs, y, mats[slot])
    return float(np.einsum(final, x, mats[last], y))


def coefficients_general(b: CumulantBundle,
                         h: HypothesisSpec) -> ExpansionCoefficients:
    """Full contraction of the cumulant arrays against Kinv, A, M.

    Evaluates the three A-sums term by term, each six-index term as the
    einsum its subscripts spell, contracted pairwise.  Two details in the
    A1 sum are easy to get wrong and are fixed here by the divergence-form
    oracle (tests/test_expansion.py): the first summand carries
    m^{jr}(m^{sk} + 2 a^{sk}), not kappa^{s,k} in place of m^{sk}, and
    the kappa_{jrs,u} m^{jr} a^{su} term enters with a minus sign.
    """
    geo = build_geometry(b, h)
    Ki, Am, Mm = geo.Kinv, geo.A, geo.M
    k3, k4 = b.kappa3, b.kappa4
    d2 = b.d_kappa2                                   # [k,l,u] = D_u k_{kl}
    mix = derive_mixed_cumulants(b)
    k31 = mix.kappa_31                                # [j,r,s,u] = k_{jrs,u}
    six = _pairwise

    # k_{jrsu} + k_{j,rsu} + k_{jsu,r} + (k_{ju,rs} + k_{j,u,rs}), the
    # cumulant mix multiplying the final A1 factor
    five = k4 + mix.kappa_13 + k31.transpose(0, 3, 1, 2) + mix.T
    k4k31 = k4 + k31
    # k_{jrs} m^{jr} against (k_{klu} + k_{kl,u}) through a^{sk} a^{lu}
    # and kappa^{s,k} kappa^{l,u}: both A1 and A2 carry these two
    mAA = six("jrs,jr,sk,lu,klu", k3, Mm, Am, Am, d2)
    mKK = six("jrs,jr,sk,lu,klu", k3, Mm, Ki, Ki, d2)

    A3 = (0.75 * six("jrs,jr,sk,lu,klu", k3, Mm, Mm, Mm, k3)
          + 0.5 * six("jrs,jk,rl,su,klu", k3, Mm, Mm, Mm, k3))

    # 3 k_{jrs} k_{klu} a^{lu} (3 m^{jk} a^{rs} + m^{jr}(m^{sk} + 2 a^{sk}))
    A1 = (9.0 * six("jrs,jk,rs,lu,klu", k3, Mm, Am, Am, k3)
          + 3.0 * six("jrs,jr,sk,lu,klu", k3, Mm, Mm + 2.0 * Am, Am, k3))
    A1 -= 6.0 * np.einsum("jrsu,jr,su->", k31, Mm, Am)
    A1 -= 6.0 * (np.einsum("jrsu,jr,su->", k4k31, Mm, Ki)
                 + 2.0 * np.einsum("jrsu,ju,rs->", k4k31, Mm, Am))
    A1 += 12.0 * (np.einsum("jrsu,js,ur->", five, Ki, Ki)
                  - np.einsum("jrsu,js,ur->", five, Am, Am))
    # 6 (k_{klu} + k_{kl,u}) times the bracket of the d_kappa2 sum
    A1 += 12.0 * (six("jrs,sj,rk,lu,klu", d2, Ki, Ki, Ki, d2)
                  - six("jrs,sj,rk,lu,klu", d2, Am, Am, Am, d2)
                  + six("jrs,sk,lj,ru,klu", d2, Ki, Ki, Ki, d2)
                  - six("jrs,sk,lj,ru,klu", d2, Am, Am, Am, d2))
    A1 -= 6.0 * (six("jrs,su,jk,lr,klu", k3, Ki + Am, Ki, Ki, d2)
                 - six("jrs,su,jk,lr,klu", k3, Ki + Am, Am, Am, d2)
                 + mAA + mKK
                 + 2.0 * six("jrs,rs,jk,lu,klu", k3, Am, Ki, Ki, d2)
                 - 2.0 * six("jrs,rs,jk,lu,klu", k3, Am, Am, Am, d2)
                 + 2.0 * six("jrs,rk,ls,ju,klu", k3, Am, Am, Mm, d2))

    # the k_{jrs} k_{klu} m^{jr} (3/4 m^{sk} m^{lu}) and
    # (1/2) m^{jk} m^{rl} m^{su} terms of A2 are -3 A3
    A2 = -3.0 * (six("jrs,jr,sk,lu,klu", k3, Mm, Mm, Am, k3)
                 + 3.0 * six("jrs,jr,kl,su,klu", k3, Mm, Mm, Am, k3)
                 + A3)
    A2 += 6.0 * (six("jrs,su,jk,lr,klu", k3, Mm, Ki, Ki, d2)
                 - six("jrs,su,jk,lr,klu", k3, Mm, Am, Am, d2)
                 + mKK - mAA)
    A2 += 3.0 * np.einsum("jrsu,jr,su->", k4 + 2.0 * k31, Mm, Mm)

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


def coefficients_expfam(a1: float, a2: float, a3: float,
                        b1: float, b2: float, b3: float) -> ExpansionCoefficients:
    """Closed forms for the one-parameter exponential family.

    Density exp{-alpha(phi) d(x) + v(x)} / xi(phi); the arguments are
    alpha', alpha'', alpha''' and beta', beta'', beta''' at phi0, where
    beta = xi'/(xi alpha') = -E d(x).
    """
    if a1 == 0.0 or b1 == 0.0:
        raise ValueError("alpha' and beta' must both be nonzero")
    ra = a2 / a1
    rb = b2 / b1
    A1 = 6.0 / (a1 * b1) * (2.0 * rb ** 2 + ra * rb - b3 / b1)
    A2 = 3.0 / (a1 * b1) * (rb * (4.0 * ra - rb / 4.0)
                            + 3.0 * (ra ** 2 + rb ** 2)
                            - (a3 / a1 + b3 / b1))
    A3 = 5.0 / (a1 * b1) * (ra + rb / 2.0) ** 2
    return ExpansionCoefficients(A1=A1, A2=A2, A3=A3)


def coefficients_orthogonal(c: OrthogonalCumulants) -> OrthogonalCoefficients:
    """Closed forms for orthogonal (phi, beta) models testing phi.

    They are invalid unless kappa_phibeta = 0, which the scalars do not
    carry; ``ModelFamily.specialized_coefficients`` checks it.
    """
    if c.kpp >= 0 or c.kbb >= 0:
        raise ValueError("kappa_phiphi and kappa_betabeta must be negative")
    phi = coefficients_one_param(c.phi_part())
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
