"""Expansion coefficients: general contraction engine and closed-form routes.

The general engine is checked against an independently coded divergence
form of the same contractions (tests/oracles.py, exact rational
arithmetic) on random integer bundles, then both are pinned to the
catalog's hand-derivable values.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcorr import expansion
from gradcorr.cumulants import (CumulantBundle, HypothesisSpec,
                                build_geometry, derive_mixed_cumulants)
from gradcorr.expansion import (A, K, M, U, W, ExpansionCoefficients,
                                OneParamCumulants, OrthogonalCumulants,
                                _tables, coefficients_general,
                                coefficients_one_param,
                                coefficients_orthogonal)
from gradcorr.models import NormalMeanTest, make_model
from oracles import (bundle_to_float_arrays, divergence_coefficients,
                     expfam_coefficients, random_integer_bundle)

finite = st.floats(-5.0, 5.0, allow_nan=False)


@settings(max_examples=60)
@given(finite, finite, finite)
def test_mixture_weights_follow_from_a1_a2_a3(a1, a2, a3):
    c = ExpansionCoefficients(A1=a1, A2=a2, A3=a3)
    assert c.R1 == 3.0 * a3 - 2.0 * a2 + a1
    assert c.R2 == a2 - 3.0 * a3
    assert c.R3 == a3
    assert abs(c.R0 + c.R1 + c.R2 + c.R3) <= 1e-12 * (1 + abs(c.R0))


def test_general_engine_matches_divergence_oracle():
    rng = random.Random(20260814)
    # three bundles per shape up to p = 4, then one each at larger p
    # (the exact oracle takes about 2 s at p = 5)
    small = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)]
    shapes = [pq for pq in small for _ in range(3)]
    for p, q in shapes + [(4, 1), (4, 3), (4, 4), (5, 2)]:
        raw = random_integer_bundle(p, rng)
        want = divergence_coefficients(raw, q)
        b = CumulantBundle(**bundle_to_float_arrays(raw))
        got = coefficients_general(b, HypothesisSpec(p=p, q=q))
        for g, w in zip(got.as_tuple(), want):
            w = float(w)
            assert abs(g - w) <= 1e-10 * max(1.0, abs(w))


# Every entry coefficients_general reads from its tables, keyed by table
# and index, as the literal einsum it stands for: subscripts and operand
# names; k4k31 is kappa4 + kappa_31 and five the A1 cumulant mix.
_SIX = "jrs,{},{},{},klu"
TABLE_TERMS = {
    ("traced", A, U + M, W + A): (_SIX.format("jr", "sk", "lu"),
                                  "k3 M A A d2"),
    ("traced", K, U + M, W + K): (_SIX.format("jr", "sk", "lu"),
                                  "k3 M K K d2"),
    ("traced", M, U + M, U + M): (_SIX.format("jr", "sk", "lu"),
                                  "k3 M M M k3"),
    ("traced", M, U + A, U + A): (_SIX.format("jk", "rs", "lu"),
                                  "k3 M A A k3"),
    ("traced", M, U + M, U + A): (_SIX.format("jr", "sk", "lu"),
                                  "k3 M M A k3"),
    ("traced", A, U + M, U + A): (_SIX.format("jr", "sk", "lu"),
                                  "k3 M A A k3"),
    ("traced", K, W + K, W + K): (_SIX.format("sj", "rk", "lu"),
                                  "d2 K K K d2"),
    ("traced", A, W + A, W + A): (_SIX.format("sj", "rk", "lu"),
                                  "d2 A A A d2"),
    ("traced", K, U + A, W + K): (_SIX.format("rs", "jk", "lu"),
                                  "k3 A K K d2"),
    ("traced", A, U + A, W + A): (_SIX.format("rs", "jk", "lu"),
                                  "k3 A A A d2"),
    ("traced", A, U + M, U + M): (_SIX.format("jr", "kl", "su"),
                                  "k3 M M A k3"),
    ("crossing", M, 1, M): (_SIX.format("jk", "rl", "su"), "k3 M M M k3"),
    ("crossing", K, 2, K): (_SIX.format("sk", "lj", "ru"), "d2 K K K d2"),
    ("crossing", A, 2, A): (_SIX.format("sk", "lj", "ru"), "d2 A A A d2"),
    ("crossing", K, 0, K): (_SIX.format("su", "jk", "lr"), "k3 K K K d2"),
    ("crossing", K, 0, A): (_SIX.format("su", "jk", "lr"), "k3 A K K d2"),
    ("crossing", A, 0, K): (_SIX.format("su", "jk", "lr"), "k3 K A A d2"),
    ("crossing", A, 0, A): (_SIX.format("su", "jk", "lr"), "k3 A A A d2"),
    ("crossing", A, 0, M): (_SIX.format("rk", "ls", "ju"), "k3 A A M d2"),
    ("crossing", K, 0, M): (_SIX.format("su", "jk", "lr"), "k3 M K K d2"),
    ("four", 0, M, A): ("jrsu,jr,su", "k31 M A"),
    ("four", 1, M, K): ("jrsu,jr,su", "k4 M K"),
    ("four", 0, M, K): ("jrsu,jr,su", "k31 M K"),
    ("four", 2, M, A): ("jrsu,ju,rs", "k4k31 M A"),
    ("four", 3, K, K): ("jrsu,js,ur", "five K K"),
    ("four", 3, A, A): ("jrsu,js,ur", "five A A"),
    ("four", 1, M, M): ("jrsu,jr,su", "k4 M M"),
    ("four", 0, M, M): ("jrsu,jr,su", "k31 M M"),
}


class _Reads:
    """A table that logs the index of every entry read from it."""

    def __init__(self, name, table, log):
        self.name, self.table, self.log = name, table, log

    def __getitem__(self, index):
        self.log.add((self.name, *index))
        return self.table[index]


def test_table_entries_equal_literal_einsums(monkeypatch):
    # the engine reads exactly the entries listed above, and each equals
    # np.einsum(subscripts + "->", ...) of its term, to rounding of the
    # sum of absolute products, on random symmetric bundles at every (p, q)
    read = set()

    def logged(b, geo, mix):
        return tuple(_Reads(name, t, read) for name, t in
                     zip(("traced", "crossing", "four"),
                         _tables(b, geo, mix)))

    monkeypatch.setattr(expansion, "_tables", logged)
    rng = random.Random(20260814)
    for p in range(1, 9):
        raw = bundle_to_float_arrays(random_integer_bundle(p, rng))
        b = CumulantBundle(**raw)
        mix = derive_mixed_cumulants(b)
        k4, k31 = b.kappa4, mix.kappa_31
        for q in range(1, p + 1):
            geo = build_geometry(b, HypothesisSpec(p=p, q=q))
            ops = dict(k3=b.kappa3, d2=b.d_kappa2, k4=k4, k31=k31,
                       k4k31=k4 + k31, K=geo.Kinv, A=geo.A, M=geo.M,
                       five=(k4 + mix.kappa_13 + k31.transpose(0, 3, 1, 2)
                             + mix.T))
            tables = dict(zip(("traced", "crossing", "four"),
                              _tables(b, geo, mix)))
            for (name, *index), (subs, names) in TABLE_TERMS.items():
                args = [ops[n] for n in names.split()]
                want = np.einsum(subs + "->", *args)
                scale = np.einsum(subs + "->", *map(np.abs, args))
                got = tables[name][tuple(index)]
                assert abs(got - want) <= 1e-12 * max(1.0, scale), \
                    (p, q, name, index)
            coefficients_general(b, HypothesisSpec(p=p, q=q))
    assert read == set(TABLE_TERMS)


def test_crossing_table_holds_all_27_entries():
    # every crossing[m, i, r], not only the nine the sums read, is
    # x_i[j,r,s] S[m]^{ja} S[m]^{rb} S[r]^{sc} y_i[a,b,c]: pins the axis
    # order of the batched product
    rng = random.Random(20260815)
    subs = "jrs,ja,rb,sc,abc->"
    for p in range(1, 9):
        raw = bundle_to_float_arrays(random_integer_bundle(p, rng))
        b = CumulantBundle(**raw)
        mix = derive_mixed_cumulants(b)
        xs = (b.kappa3, b.kappa3, b.d_kappa2)
        ys = (b.d_kappa2, b.kappa3, b.d_kappa2.transpose(1, 2, 0))
        for q in range(1, p + 1):
            geo = build_geometry(b, HypothesisSpec(p=p, q=q))
            S = (geo.Kinv, geo.A, geo.M)
            crossing = _tables(b, geo, mix)[1]
            assert crossing.shape == (3, 3, 3)
            for m, i, r in itertools.product(range(3), repeat=3):
                args = (xs[i], S[m], S[m], S[r], ys[i])
                want = np.einsum(subs, *args)
                scale = np.einsum(subs, *map(np.abs, args))
                assert abs(crossing[m, i, r] - want) \
                    <= 1e-12 * max(1.0, scale), (p, q, m, i, r)


@pytest.mark.parametrize("p, q", [(6, 2), (7, 3), (8, 1), (8, 4)])
def test_general_engine_invariant_under_relabelling(p, q):
    # permuting the tested indices among themselves and the nuisance
    # indices among themselves is a relabelling of theta: A1-A3 stay put
    raw = bundle_to_float_arrays(random_integer_bundle(p, random.Random(p)))
    rng = np.random.default_rng(100 * p + q)
    perm = np.concatenate([rng.permutation(q), q + rng.permutation(p - q)])
    assert not np.array_equal(perm, np.arange(p))
    h = HypothesisSpec(p=p, q=q)
    base = coefficients_general(CumulantBundle(**raw), h).as_tuple()
    moved = coefficients_general(CumulantBundle(
        **{k: v[np.ix_(*[perm] * v.ndim)] for k, v in raw.items()}),
        h).as_tuple()
    scale = max(abs(v) for v in base)
    assert scale > 0.0
    for a, b in zip(base, moved):
        assert abs(a - b) <= 1e-12 * scale


def _general(model_id, theta):
    m = make_model(model_id)
    theta = np.asarray(theta, dtype=float)
    return coefficients_general(m.cumulants(theta), m.hypothesis(theta[:m.q]))


def test_general_engine_exponential():
    c = _general("exponential", [1.0])
    assert np.allclose(c.as_tuple(), (0.0, 18.0, 20.0), atol=1e-10)


def test_general_engine_normal_variance_known():
    c = _general("normal-variance-known", [0.0])
    assert np.allclose(c.as_tuple(), (0.0, 0.0, 0.0), atol=1e-10)


def test_general_engine_two_param_normal():
    c = _general("two-parameter-normal", [0.0, 1.0])
    assert np.allclose(c.as_tuple(), (0.0, -18.0, 0.0), atol=1e-9)


def test_one_param_route_exponential():
    c = coefficients_one_param(OneParamCumulants(
        kpp=-1.0, kppp=4.0, kpppp=-18.0, kpp_p=2.0, kppp_p=-12.0,
        kpp_pp=-6.0))
    assert np.allclose(c.as_tuple(), (0.0, 18.0, 20.0), atol=1e-12)


def test_one_param_route_inverse_normal_shape_known():
    m = make_model("inverse-normal", known="shape", shape=2.0)
    c = coefficients_one_param(OneParamCumulants.from_arrays(
        *m.cumulant_arrays(np.array([3.0]))))
    # 45 mu / lambda at mu = 3, lambda = 2
    assert np.allclose(c.as_tuple(), (0.0, 67.5, 67.5), rtol=1e-10)


def test_one_param_route_truncated_extreme_value_quoted_values():
    # the printed closed form for this family reads (0, 12, 20), but in phi
    # the log-likelihood is the exponential one in expm1(x), so the scalar
    # route must give the exponential row (0, 18, 20); the printed A2 = 12
    # does not satisfy the defining contractions
    m = make_model("truncated-extreme-value")
    c = coefficients_one_param(OneParamCumulants.from_arrays(
        *m.cumulant_arrays(np.array([1.0]))))
    assert np.allclose(c.as_tuple(), (0.0, 18.0, 20.0), rtol=1e-10)


# (model, constants, phi, alpha' .. alpha''' and beta' .. beta''' at phi),
# differentiated by hand from each density exp{-alpha d(x) + v(x)} / xi:
# gamma alpha = phi, beta = -k/phi; Pareto alpha = phi,
# beta = -1/phi - log k; Laplace alpha = 1/phi, beta = -phi
EXPFAM_DERIVATIVES = [
    ("gamma-rate", {"k": 2.0}, 1.3,
     (1.0, 0.0, 0.0, 2.0 / 1.3**2, -4.0 / 1.3**3, 12.0 / 1.3**4)),
    ("pareto-shape", {"k": 1.5}, 0.8,
     (1.0, 0.0, 0.0, 1.0 / 0.8**2, -2.0 / 0.8**3, 6.0 / 0.8**4)),
    ("laplace-scale", {}, 2.0,
     (-1.0 / 2.0**2, 2.0 / 2.0**3, -6.0 / 2.0**4, -1.0, 0.0, 0.0)),
]


def test_expfam_route_matches_scalar_route():
    for model_id, kwargs, phi, derivatives in EXPFAM_DERIVATIVES:
        m = make_model(model_id, **kwargs)
        got = expfam_coefficients(*derivatives)
        want = coefficients_one_param(OneParamCumulants.from_arrays(
            *m.cumulant_arrays(np.array([phi]))))
        assert np.allclose(got, want.as_tuple(), rtol=1e-12)


def test_expfam_route_gamma_values():
    m = make_model("gamma-rate", k=2.0)
    c = m.specialized_coefficients(np.array([1.0]))
    assert np.allclose(c.as_tuple(), (6.0, 7.5, 2.5), rtol=1e-12)


def test_orthogonal_route_two_sample_exponential():
    m = make_model("two-sample-exponential")
    c = coefficients_orthogonal(OrthogonalCumulants.from_arrays(
        *m.cumulant_arrays(np.array([1.0, 1.0]))))
    assert np.allclose(c.as_tuple(), (24.0, 63.0, 45.0), rtol=1e-12)
    assert abs(c.A2_phi - 72.0) <= 1e-10
    assert abs(c.A2_phibeta + 9.0) <= 1e-10
    assert abs(c.A1_phibeta) <= 1e-10


def test_orthogonal_route_birnbaum_saunders_phi_part():
    m = make_model("birnbaum-saunders")
    for phi in (0.5, 1.0, 2.0):
        c = m.specialized_coefficients(np.array([phi, 1.0]))
        assert abs(c.A1_phi + 3.0) <= 1e-9
        assert abs(c.A2_phi - 69.0 / 8.0) <= 1e-9
        assert abs(c.A3 - 125.0 / 8.0) <= 1e-9


def test_orthogonal_route_zero_cumulants():
    c = coefficients_orthogonal(OrthogonalCumulants(
        kpp=-1.0, kppp=0.0, kpppp=0.0, kpp_p=0.0, kppp_p=0.0, kpp_pp=0.0,
        kbb=-1.0, kbbb=0.0, kpbb=0.0, kppb=0.0, kppbb=0.0, kpp_b=0.0,
        kppb_b=0.0, kpbb_p=0.0, kbb_b=0.0, kbb_p=0.0))
    assert np.allclose(c.as_tuple(), (0.0, 0.0, 0.0), atol=1e-14)


def test_orthogonal_route_refuses_a_positive_nuisance_information():
    with pytest.raises(ValueError, match="^kappa_phiphi and kappa_betabeta "
                                         "must be negative$"):
        coefficients_orthogonal(OrthogonalCumulants(
            kpp=-1.0, kppp=0.0, kpppp=0.0, kpp_p=0.0, kppp_p=0.0, kpp_pp=0.0,
            kbb=1.0, kbbb=0.0, kpbb=0.0, kppb=0.0, kppbb=0.0, kpp_b=0.0,
            kppb_b=0.0, kpbb_p=0.0, kbb_b=0.0, kbb_p=0.0))


ONE_PARAM = ["exponential", "normal-mean-known", "normal-variance-known",
             "inverse-normal", "gamma-rate", "truncated-extreme-value",
             "pareto-shape", "power-shape", "laplace-scale"]


@pytest.mark.parametrize("model_id", ONE_PARAM)
def test_general_engine_matches_scalar_route(model_id):
    m = make_model(model_id)
    for shift in (0.0, 0.7):
        theta = np.asarray(m.default_theta, dtype=float) + shift
        want = coefficients_one_param(OneParamCumulants.from_arrays(
            *m.cumulant_arrays(theta)))
        got = coefficients_general(m.cumulants(theta),
                                   m.hypothesis(theta[:1]))
        for g, w in zip(got.as_tuple(), want.as_tuple()):
            assert abs(g - w) <= 1e-10 * max(1.0, abs(w))


TWO_PARAM = ["two-parameter-normal", "two-sample-exponential",
             "birnbaum-saunders"]


@pytest.mark.parametrize("model_id", TWO_PARAM)
def test_general_engine_matches_orthogonal_route(model_id):
    m = make_model(model_id)
    for phi in (0.5, 1.0, 2.0):
        theta = np.array([phi, 1.0])
        want = m.specialized_coefficients(theta)
        got = coefficients_general(m.cumulants(theta),
                                   m.hypothesis(theta[:1]))
        for g, w in zip(got.as_tuple(), want.as_tuple()):
            assert abs(g - w) <= 1e-8 * max(1.0, abs(w))


# The sixteen scalars at theta = (0.7, 1.3), evaluated from closed forms
# written out independently of each family's cumulant arrays; they pin the
# entries the orthogonal route indexes, which the engine-agreement test
# above cannot, as both routes read the same arrays.
ORTHOGONAL_AT_07_13 = {
    "two-parameter-normal": dict(
        kpp=-0.7692307692307692, kppp=0.0, kpppp=0.0, kpp_p=0.0,
        kppp_p=0.0, kpp_pp=0.0, kbb=-0.29585798816568043,
        kbbb=0.9103322712790168, kpbb=0.0, kppb=0.5917159763313609,
        kppbb=-0.9103322712790168, kpp_b=0.5917159763313609,
        kppb_b=-0.9103322712790168, kpbb_p=0.0, kbb_b=0.4551661356395084,
        kbb_p=0.0),
    "two-sample-exponential": dict(
        kpp=-0.5102040816326532, kppp=2.1865889212827994,
        kpppp=-11.713869221157854, kpp_p=1.4577259475218662,
        kppp_p=-9.371095376926283, kpp_pp=-6.247396917950855,
        kbb=-0.5917159763313609, kbbb=1.8206645425580337, kpbb=0.0,
        kppb=0.39246467817896397, kppbb=-0.6037918125830214, kpp_b=0.0,
        kppb_b=-0.3018959062915107, kpbb_p=0.0, kbb_b=0.9103322712790168,
        kbb_p=0.0),
    "birnbaum-saunders": dict(
        kpp=-4.0816326530612255, kppp=29.154518950437325,
        kpppp=-224.90628904623077, kpp_p=11.66180758017493,
        kppp_p=-124.9479383590171, kpp_pp=-49.97917534360684,
        kbb=-1.3692934200260267, kbbb=3.159907892367754,
        kpbb=4.295547466662066, kppb=0.0, kppbb=-18.409489142837426,
        kpp_b=0.0, kppb_b=0.0, kpbb_p=-15.994321892505345,
        kbb_b=2.1066052615785025, kbb_p=3.419307699858616),
}


@pytest.mark.parametrize("model_id", TWO_PARAM)
def test_orthogonal_scalars_match_independent_values(model_id):
    m = make_model(model_id)
    got = OrthogonalCumulants.from_arrays(
        *m.cumulant_arrays(np.array([0.7, 1.3])))
    for name, want in ORTHOGONAL_AT_07_13[model_id].items():
        assert abs(getattr(got, name) - want) <= 1e-14 * max(1.0, abs(want)), \
            name


def _orbit(idx, runs) -> set:
    """Every index equal to idx under the permutations within each of the
    runs of interchangeable axes, given by their lengths."""
    cuts = np.cumsum((0,) + runs).tolist()
    parts = [set(itertools.permutations(idx[i:j]))
             for i, j in zip(cuts, cuts[1:])]
    return {sum(part, ()) for part in itertools.product(*parts)}


@pytest.mark.parametrize("model_id", TWO_PARAM + ONE_PARAM)
def test_orthogonal_families_state_each_cumulant_once(model_id):
    # every entry is a float under the least index of its orbit (its
    # index sorted within each run), nonzero at p = 2, where a zero entry
    # is left out, no two entries share an orbit, and the dense arrays
    # hold each entry, to the bit, on its orbit and zero elsewhere; the
    # scalar route's closed forms read the entries to the bit of the
    # dense arrays
    from gradcorr.models.base import _ROUTES, SYMMETRY
    m = make_model(model_id)
    for theta in ([0.7, 1.3], [1.0, 1.0], [2.5, 0.2]):
        theta = np.array(theta[:m.p])
        entries = m.cumulant_entries(theta)
        arrays = m.cumulant_arrays(theta)
        for runs, table, a in zip(SYMMETRY, entries, arrays):
            orbits = [_orbit(idx, runs) for idx in table]
            held = set().union(*orbits)
            assert sum(map(len, orbits)) == len(held)
            assert set(zip(*map(tuple, np.nonzero(a)))) == set().union(
                *(o for o, v in zip(orbits, table.values()) if v != 0.0))
            for (idx, value), orbit in zip(table.items(), orbits):
                assert idx == min(orbit)
                assert type(value) is float and (value != 0.0 or m.p == 1)
                assert all(a[i].tobytes() == np.float64(value).tobytes()
                           for i in orbit)
        scalars = _ROUTES[m.p, m.q][0]
        got = scalars(*(entries[a].get(i, 0.0) for a, i in scalars.index))
        want = scalars.from_arrays(*arrays)
        assert [float(v).hex() for v in got._values()] == \
            [float(v).hex() for v in want._values()]


def _symmetrized(a, axes):
    """a averaged over every permutation of its axes ``axes``."""
    perms = list(itertools.permutations(axes))
    out = np.zeros_like(a)
    for perm in perms:
        order = list(range(a.ndim))
        for src, dst in zip(axes, perm):
            order[src] = dst
        out += a.transpose(order)
    return out / len(perms)


@pytest.mark.parametrize("seed", range(4))
def test_orthogonal_route_matches_engine_on_random_bundles(seed):
    # the catalog's two-parameter families leave kappa_phiphibeta times
    # (2 kappa_betabeta^(beta) - kappa_betabetabeta) at zero, so only a
    # random bundle pins that A1 term; orthogonality must hold near the
    # point, so the derivatives of kappa_phibeta are zero too
    rng = np.random.default_rng(seed)
    k2 = np.diag(-rng.uniform(0.5, 2.0, 2))
    k3 = _symmetrized(rng.normal(size=(2, 2, 2)), (0, 1, 2))
    k4 = _symmetrized(rng.normal(size=(2, 2, 2, 2)), (0, 1, 2, 3))
    d2 = _symmetrized(rng.normal(size=(2, 2, 2)), (0, 1))
    d3 = _symmetrized(rng.normal(size=(2, 2, 2, 2)), (1, 2, 3))
    dd2 = _symmetrized(rng.normal(size=(2, 2, 2, 2)), (2, 3))
    d2[0, 1, :] = d2[1, 0, :] = 0.0
    dd2[:, :, 0, 1] = dd2[:, :, 1, 0] = 0.0
    arrays = (k2, k3, k4, d2, d3, dd2)
    want = coefficients_general(CumulantBundle(*arrays),
                                HypothesisSpec(p=2, q=1))
    got = coefficients_orthogonal(OrthogonalCumulants.from_arrays(*arrays))
    assert got.A1_phibeta != 0.0
    for g, w in zip(got.as_tuple(), want.as_tuple()):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


class _Correlated(NormalMeanTest):
    """The two-parameter normal with a nonzero kappa_phibeta."""

    def cumulant_entries(self, theta):
        k2, *rest = super().cumulant_entries(theta)
        return ({**k2, (0, 1): 0.1}, *rest)


def test_orthogonal_route_requires_orthogonal_parameters():
    m = _Correlated()
    theta = np.array([0.0, 1.0])
    with pytest.raises(NotImplementedError, match="orthogonal"):
        m.specialized_coefficients(theta)
    assert m.coefficients(theta) == m.general_coefficients(theta)


def _scaled(c: OneParamCumulants, s: float) -> OneParamCumulants:
    # under phi -> phi/s the per-observation cumulants pick up powers of s
    return OneParamCumulants(kpp=c.kpp * s ** 2, kppp=c.kppp * s ** 3,
                             kpppp=c.kpppp * s ** 4, kpp_p=c.kpp_p * s ** 3,
                             kppp_p=c.kppp_p * s ** 4,
                             kpp_pp=c.kpp_pp * s ** 4)


@pytest.mark.parametrize("model_id", ONE_PARAM)
def test_coefficients_invariant_under_scale_reparameterization(model_id):
    # A1, A2, A3 are invariant under smooth reparameterization; check the
    # linear family phi = c * psi by transforming the scalar cumulants
    m = make_model(model_id)
    theta = np.asarray(m.default_theta, dtype=float) + 0.31
    c = OneParamCumulants.from_arrays(*m.cumulant_arrays(theta))
    base = coefficients_one_param(c)
    for s in (0.5, 2.0, 3.7):
        scaled = coefficients_one_param(_scaled(c, s))
        for g, w in zip(scaled.as_tuple(), base.as_tuple()):
            assert abs(g - w) <= 1e-9 * max(1.0, abs(w))


@pytest.mark.parametrize("model_id", ONE_PARAM + TWO_PARAM)
def test_a3_nonnegative_at_default_point(model_id):
    m = make_model(model_id)
    c = m.specialized_coefficients(np.asarray(m.default_theta, dtype=float))
    assert c.A3 >= -1e-12


@settings(max_examples=60)
@given(st.floats(0.1, 4.0), finite, finite, finite, finite, finite)
def test_a3_nonnegative_for_any_scalar_cumulants(k, kppp, kpppp, kpp_p,
                                                 kppp_p, kpp_pp):
    c = coefficients_one_param(OneParamCumulants(
        kpp=-k, kppp=kppp, kpppp=kpppp, kpp_p=kpp_p, kppp_p=kppp_p,
        kpp_pp=kpp_pp))
    assert c.A3 >= -1e-10


def test_one_param_route_rejects_nonnegative_information():
    with pytest.raises(ValueError):
        coefficients_one_param(OneParamCumulants(
            kpp=0.0, kppp=0.0, kpppp=0.0, kpp_p=0.0, kppp_p=0.0, kpp_pp=0.0))


def test_one_param_route_rejects_nonfinite_cumulants():
    # an explicit error, not an assert that -O strips
    with pytest.raises(ValueError, match="A3"):
        coefficients_one_param(OneParamCumulants(
            kpp=-1.0, kppp=np.nan, kpppp=0.0, kpp_p=0.0, kppp_p=0.0,
            kpp_pp=0.0))


def test_orthogonal_route_rejects_nonfinite_cumulants():
    with pytest.raises(ValueError, match="A3"):
        coefficients_orthogonal(OrthogonalCumulants(
            kpp=-1.0, kppp=np.inf, kpppp=0.0, kpp_p=0.0, kppp_p=0.0,
            kpp_pp=0.0, kbb=-1.0, kbbb=0.0, kpbb=0.0, kppb=0.0, kppbb=0.0,
            kpp_b=0.0, kppb_b=0.0, kpbb_p=0.0, kbb_b=0.0, kbb_p=0.0))
