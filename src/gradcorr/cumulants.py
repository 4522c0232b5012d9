"""Cumulant arrays of log-likelihood derivatives and the information geometry.

A model is summarized, at a parameter point, by six dense arrays of joint
cumulants of the per-observation log-likelihood derivatives (sample-size
scaling lives in the statistic formulas, never here):

    kappa2[j,r]      = E(U_jr)
    kappa3[j,r,s]    = E(U_jrs)
    kappa4[j,r,s,u]  = E(U_jrsu)
    d_kappa2[j,r,s]  = D_s kappa2[j,r]
    d_kappa3[j,r,s,u]  = D_j kappa3[r,s,u]   (derivative index FIRST)
    dd_kappa2[j,r,s,u] = D_j D_r kappa2[s,u] (derivative pair FIRST)

Mixed cumulants such as kappa_{jr,s} = cum(U_jr, U_s) are not stored; they
are all recoverable from the arrays above through the functional relations
between cumulants and their parameter derivatives, which is what
derive_mixed_cumulants does.  The genuinely bivariate covariance
kappa_{jr,su} = cum(U_jr, U_su) is never needed at all: the expansion
consumes it only through the sum T_jrsu = kappa_{ju,rs} + kappa_{j,u,rs},
and expanding kappa_{j,u,rs} via

    kappa_{j,u,rs} = kappa_{jurs} - kappa_{jrs}^{(u)} - kappa_{urs}^{(j)}
                     + kappa_{rs}^{(ju)} - kappa_{ju,rs}

cancels it, leaving T in terms of stored arrays only.  (Dropping the
-kappa_{urs}^{(j)} term breaks the cancellation: the assembled coefficient
then disagrees with its divergence form on every test bundle, which is how
the expression above was pinned down by exact rational arithmetic.)
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ._record import Record
from .special import _is_int

__all__ = ["HypothesisSpec", "CumulantBundle", "DerivedCumulants",
           "FisherGeometry", "IllConditionedInformationError",
           "derive_mixed_cumulants", "build_geometry"]

_SYM_TOL = 1e-9


class IllConditionedInformationError(ValueError):
    """Information matrix is singular or numerically untrustworthy."""


class HypothesisSpec(Record):
    """Null hypothesis theta_1 = theta10 on the first q of p components."""

    __slots__ = ("p", "q", "theta10")

    def __init__(self, p: int, q: int, theta10: tuple[float, ...] = ()):
        if not (_is_int(p) and _is_int(q)):
            raise TypeError(f"p and q must be integers, got p={p!r}, q={q!r}")
        if not 1 <= q <= p:
            raise ValueError(f"need 1 <= q <= p, got q={q}, p={p}")
        if theta10 and len(theta10) != q:
            raise ValueError("theta10 must have length q")
        self._fill(p, q, theta10)


# (field, rank, axes of its index symmetry), in field order
_LAYOUT = (("kappa2", 2, (0, 1)), ("kappa3", 3, (0, 1, 2)),
           ("kappa4", 4, (0, 1, 2, 3)), ("d_kappa2", 3, (0, 1)),
           ("d_kappa3", 4, (1, 2, 3)), ("dd_kappa2", 4, (2, 3)))


@functools.lru_cache(maxsize=8)
def _symmetry_pairs(p: int) -> tuple:
    """Flat indices (x, y), x < y, into the six raveled arrays laid end to
    end, of every two entries that a required transposition of their
    array's axes swaps, array by array; and the offset of each array."""
    pairs, starts = [], [0]
    for _, rank, axes in _LAYOUT:
        idx = starts[-1] + np.arange(p ** rank).reshape((p,) * rank)
        pairs += [np.stack([idx, idx.swapaxes(i, k)]).reshape(2, -1)
                  for i, k in itertools.combinations(axes, 2)]
        starts.append(starts[-1] + p ** rank)
    x, y = np.concatenate(pairs, axis=1)
    return x[x < y], y[x < y], np.array(starts[:-1])


def _require_finite(arrays) -> None:
    for (name, _, _), arr in zip(_LAYOUT, arrays):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has non-finite entries")


class CumulantBundle(Record):
    """Per-observation cumulant arrays; see module docstring for layouts.

    The definiteness check factors K = -kappa2 = V diag(w) V^T, and the
    bundle keeps (w, V) for ``build_geometry``."""

    __slots__ = ("kappa2", "kappa3", "kappa4", "d_kappa2", "d_kappa3",
                 "dd_kappa2", "_K_eigh")

    def __init__(self, kappa2: np.ndarray, kappa3: np.ndarray,
                 kappa4: np.ndarray, d_kappa2: np.ndarray,
                 d_kappa3: np.ndarray, dd_kappa2: np.ndarray):
        self._fill(kappa2, kappa3, kappa4, d_kappa2, d_kappa3, dd_kappa2)
        # the checks keep the name under which the benchmark traces them
        self.__post_init__()

    def __post_init__(self):
        """Shapes in field order, then finiteness and index symmetry in one
        pass over all six arrays, naming the first that fails; kappa2 < 0."""
        dims = np.shape(self.kappa2)
        if not dims:
            raise ValueError("kappa2 has shape (), expected (p, p)")
        p, arrays = dims[0], []
        for name, rank, _ in _LAYOUT:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (p,) * rank:
                _require_finite(arrays)
                raise ValueError(f"{name} has shape {arr.shape}, "
                                 f"expected {(p,) * rank}")
            arrays.append(arr)
            object.__setattr__(self, name, arr)
        flat = np.concatenate([arr.ravel() for arr in arrays])
        if not np.isfinite(flat).all():
            _require_finite(arrays)
        x, y, starts = _symmetry_pairs(p)
        a, t = flat[x], flat[y]
        # |a - t| <= tol + tol |t| and its mirror |t - a| <= tol + tol |a|
        ok = np.abs(a - t) <= _SYM_TOL + _SYM_TOL * np.minimum(np.abs(a),
                                                             np.abs(t))
        if not ok.all():
            name = _LAYOUT[np.searchsorted(starts, x[ok.argmin()], "right")
                           - 1][0]
            raise ValueError(f"{name} violates its index symmetry")
        w, V = np.linalg.eigh(-self.kappa2)       # w ascending
        if w[0] <= 0:
            raise ValueError("kappa2 must be negative definite")
        object.__setattr__(self, "_K_eigh", (w, V))

    @property
    def p(self) -> int:
        return self.kappa2.shape[0]


class DerivedCumulants(Record):
    """Mixed cumulants recovered from a CumulantBundle.

    kappa_21[j,r,s]   = kappa_{jr,s}  = cum(U_jr, U_s)
    kappa_31[j,r,s,u] = kappa_{jrs,u} = cum(U_jrs, U_u)
    kappa_13[j,r,s,u] = kappa_{j,rsu} = cum(U_j, U_rsu)
    T[j,r,s,u]        = kappa_{ju,rs} + kappa_{j,u,rs}
    """

    __slots__ = ("kappa_21", "kappa_31", "kappa_13", "T")

    def __init__(self, kappa_21: np.ndarray, kappa_31: np.ndarray,
                 kappa_13: np.ndarray, T: np.ndarray):
        self._fill(kappa_21, kappa_31, kappa_13, T)


def derive_mixed_cumulants(b: CumulantBundle) -> DerivedCumulants:
    """Recover the mixed cumulants the expansion needs from a bundle."""
    # kappa_{jrs}^{(u)} reindexed so the derivative index comes last,
    # kappa_{urs}^{(j)} with j first, kappa_{rs}^{(ju)} with (j,u) outer
    d3_u_last = b.d_kappa3.transpose(1, 2, 3, 0)      # [j,r,s,u] = D_u k_{jrs}
    d3_j_first = b.d_kappa3.transpose(0, 2, 3, 1)     # [j,r,s,u] = D_j k_{urs}
    dd2_ju = b.dd_kappa2.transpose(0, 2, 3, 1)        # [j,r,s,u] = D_jD_u k_{rs}
    kappa_21 = b.d_kappa2 - b.kappa3
    kappa_31 = d3_u_last - b.kappa4
    kappa_13 = b.d_kappa3 - b.kappa4                  # [j,r,s,u] = k_{j,rsu}
    T = b.kappa4 - d3_u_last - d3_j_first + dd2_ju
    return DerivedCumulants(kappa_21=kappa_21, kappa_31=kappa_31,
                            kappa_13=kappa_13, T=T)


class FisherGeometry(Record):
    """K = -kappa2, its inverse, the nuisance block inverse A, and M = Kinv - A."""

    __slots__ = ("K", "Kinv", "A", "M", "q")

    def __init__(self, K: np.ndarray, Kinv: np.ndarray, A: np.ndarray,
                 M: np.ndarray, q: int = 0):
        self._fill(K, Kinv, A, M, q)


def build_geometry(b: CumulantBundle, h: HypothesisSpec) -> FisherGeometry:
    """Information geometry induced by the hypothesis partition.

    A is zero except for the lower-right (p-q)x(p-q) block, which holds
    the inverse of the nuisance sub-information K22; with q = p there is
    no nuisance block and A = 0, M = Kinv.

    Each matrix is factored once, K = V diag(w) V^T, for its inverse
    (V / w) V^T; K's factors are those the bundle's check took.  K > 0
    (the bundle checks), so cond(K) = max w / min w; by Cauchy
    interlacing cond(K22) <= cond(K), so K's check covers K22.
    """
    if h.p != b.p:
        raise ValueError(f"bundle has p={b.p} but hypothesis has p={h.p}")
    K = -b.kappa2
    w, V = b._K_eigh                          # w ascending
    if w[-1] >= 1e12 * w[0]:
        raise IllConditionedInformationError(
            "information matrix condition number exceeds 1e12")
    Kinv = (V / w) @ V.T
    A = np.zeros_like(K)
    if h.q < h.p:
        w, V = np.linalg.eigh(K[h.q:, h.q:])
        A[h.q:, h.q:] = (V / w) @ V.T
    M = Kinv - A
    return FisherGeometry(K=K, Kinv=Kinv, A=A, M=M, q=h.q)
