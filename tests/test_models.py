"""Model catalog: samplers, fits, scores, statistics, coefficient tables."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcorr.cumulants import CumulantBundle
from gradcorr.models import (FitError, builtin_models, gradient_statistic,
                             make_model)
from gradcorr.models.base import ModelFamily, check_observations
from gradcorr.simulate import (SimulationConfig, replicate_statistics,
                               run_cdf_study)
from oracles import (birnbaum_saunders_coefficients,
                     gradient_statistic_reference, score)

SEED = 20260814


def test_catalog_has_twelve_families():
    assert len(builtin_models()) == 12


def test_make_model_rejects_unknown_id():
    with pytest.raises(ValueError, match="exponential"):
        make_model("no-such-family")


@pytest.mark.parametrize("model_id, constants, message", (
    ("normal-variance-known", dict(variance=0.0), "variance must be positive"),
    ("inverse-normal", dict(mu=-1.0), "mu must be positive"),
    ("inverse-normal", dict(known="shape", shape=0.0),
     "shape must be positive"),
    ("inverse-normal", dict(known="x"),
     "known must be 'mean' or 'shape', got 'x'"),
    ("gamma-rate", dict(k=0.0), "k must be positive"),
    ("pareto-shape", dict(k=-1.0), "k must be positive"),
    ("power-shape", dict(theta=0.0), "theta must be positive"),
    # every constant, the unbounded mu and center too, must be finite
    *((model_id, dict(extra, **{name: v}), f"{name} must be finite, got {v}")
      for model_id, name, extra in (
          ("normal-mean-known", "mu", {}),
          ("normal-variance-known", "variance", {}),
          ("inverse-normal", "mu", {}),
          ("inverse-normal", "shape", dict(known="shape")),
          ("gamma-rate", "k", {}), ("pareto-shape", "k", {}),
          ("power-shape", "theta", {}), ("laplace-scale", "center", {}))
      for v in (math.nan, math.inf, -math.inf)),
    ("gamma-rate", dict(k="abc"), "k must be a number, got 'abc'"),
    # the constant of the inverse-normal case not chosen is checked too
    ("inverse-normal", dict(known="shape", mu=-1.0), "mu must be positive"),
    ("inverse-normal", dict(known="shape", mu=math.nan),
     "mu must be finite, got nan"),
    ("inverse-normal", dict(shape=math.inf), "shape must be finite, got inf"),
))
def test_make_model_rejects_bad_constants(model_id, constants, message):
    with pytest.raises(ValueError) as refused:
        make_model(model_id, **constants)
    assert str(refused.value) == message


@pytest.mark.parametrize("model_id, theta, message", (
    ("birnbaum-saunders", (-1.0, 1.0),
     "birnbaum-saunders: phi must exceed 0.0, got -1.0"),
    ("two-parameter-normal", (0.0, -1.0),
     "two-parameter-normal: beta must exceed 0.0, got -1.0"),
    ("two-sample-exponential", (1.0, 0.0),
     "two-sample-exponential: beta must exceed 0.0, got 0.0")))
def test_sampling_rejects_theta_outside_the_space(model_id, theta, message):
    with pytest.raises(ValueError) as refused:
        make_model(model_id).sample(theta, 6, np.random.default_rng(0))
    assert str(refused.value) == message


# each family's parameter space: the name and open lower bound of each
# component of theta
SPACES = {
    "birnbaum-saunders": (("phi", 0.0), ("beta", 0.0)),
    "exponential": (("phi", 0.0),),
    "gamma-rate": (("phi", 0.0),),
    "inverse-normal": (("phi", 0.0),),
    "laplace-scale": (("theta", 0.0),),
    "normal-mean-known": (("phi", 0.0),),
    "normal-variance-known": (("mu", -math.inf),),
    "pareto-shape": (("phi", 0.0),),
    "power-shape": (("phi", 0.0),),
    "truncated-extreme-value": (("phi", 0.0),),
    "two-parameter-normal": (("phi", -math.inf), ("beta", 0.0)),
    "two-sample-exponential": (("phi", 0.0), ("beta", 0.0)),
}


def _null_of(m):
    return m.default_theta[:m.q]


# entry point -> call with a point as theta (first table) or as theta10
_THETA_PATHS = {
    "sample": lambda mid, m, theta: m.sample(theta, 6,
                                             np.random.default_rng(0)),
    "coefficients": lambda mid, m, theta: m.coefficients(theta),
    "general_coefficients": lambda mid, m, theta:
        m.general_coefficients(theta),
    "SimulationConfig": lambda mid, m, theta: SimulationConfig(
        model_id=mid, theta=theta, theta10=_null_of(m), sizes=(6,),
        replicates=5),
    "replicate_statistics": lambda mid, m, theta: replicate_statistics(
        m, theta, _null_of(m), 6, 5, 0),
    "run_cdf_study": lambda mid, m, theta: run_cdf_study(
        m, theta, _null_of(m), 6, 5, 0),
}
_NULL_PATHS = {
    "gradient_statistic": lambda mid, m, theta10: gradient_statistic(
        m, m.sample(m.default_theta, 6, np.random.default_rng(0)), theta10),
    "batch_statistics": lambda mid, m, theta10: m.batch_statistics(
        m.sample(m.default_theta, (3, 6), np.random.default_rng(0)),
        theta10),
    "fit_restricted": lambda mid, m, theta10: m.fit_restricted(
        m.sample(m.default_theta, 6, np.random.default_rng(0)), theta10),
    "fit_rows": lambda mid, m, theta10: m.fit_rows(m.summarize(
        m.sample(m.default_theta, (3, 6), np.random.default_rng(0))),
        theta10),
    "hypothesis": lambda mid, m, theta10: m.hypothesis(theta10),
    "SimulationConfig": lambda mid, m, theta10: SimulationConfig(
        model_id=mid, theta=m.default_theta, theta10=theta10, sizes=(6,),
        replicates=5),
    "replicate_statistics": lambda mid, m, theta10: replicate_statistics(
        m, m.default_theta, theta10, 6, 5, 0),
    "run_cdf_study": lambda mid, m, theta10: run_cdf_study(
        m, m.default_theta, theta10, 6, 5, 0),
}


def _outside(model_id, m, what, k):
    """(point, message) for each way a point of k components, ``what`` in
    the message, misses the space: the wrong length or shape, a component
    not finite, or a bounded component at its bound."""
    good = list(m.default_theta[:k])
    for size in sorted({0, k - 1, k + 1}):
        yield ([1.0] * size,
               f"{what} must have {k} value(s) for {m.name}, got {size}")
    yield ([[1.0] * k],
           f"{what} must have {k} value(s) for {m.name}, got shape (1, {k})")
    for i, (param, lo) in enumerate(SPACES[model_id][:k]):
        for v in (math.nan, math.inf, -math.inf):
            point = good[:i] + [v] + good[i + 1:]
            yield point, f"{what} must be finite, got {tuple(point)}"
        if lo > -math.inf:
            point = good[:i] + [lo] + good[i + 1:]
            yield point, f"{m.name}: {param} must exceed {lo}, got {lo}"


@pytest.mark.parametrize("model_id", sorted(SPACES))
def test_each_family_declares_its_space(model_id):
    m = make_model(model_id)
    assert tuple(zip(m.param_names, m.lower)) == SPACES[model_id]
    assert len(m.lower) == m.p


@pytest.mark.parametrize("what, path", (
    *(("theta", path) for path in _THETA_PATHS),
    *(("theta10", path) for path in _NULL_PATHS)))
@pytest.mark.parametrize("model_id", sorted(SPACES))
def test_every_entry_point_refuses_points_outside_the_space(model_id, what,
                                                           path):
    m = make_model(model_id)
    call = (_THETA_PATHS if what == "theta" else _NULL_PATHS)[path]
    k = m.p if what == "theta" else m.q
    for point, message in _outside(model_id, m, what, k):
        with pytest.raises(ValueError) as refused:
            call(model_id, m, point)
        assert str(refused.value) == message, point


def test_two_sample_batch_refuses_an_odd_width():
    # batch_statistics is public and takes matrices from outside the
    # package: an odd width would average unequal halves
    with pytest.raises(ValueError) as refused:
        make_model("two-sample-exponential").batch_statistics(
            np.ones((2, 5)), (1.0,))
    assert str(refused.value) == "total sample size must be even, got 5"


def test_check_observations_refuses_two_dimensional_data():
    with pytest.raises(ValueError) as refused:
        check_observations("exponential", np.ones((2, 3)))
    assert str(refused.value) == "exponential: data must be one-dimensional"


class _StubFamily(ModelFamily):
    """A one-parameter family with neither route to its coefficients."""

    name = "stub"

    def sample(self, theta, size, rng):
        return rng.standard_normal(size)

    def summarize(self, x):
        return x.shape[1], x.mean(axis=1)

    def estimates(self, m, theta10):
        return ((theta10[0],), True), ((m[1],), True)

    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        return m[0] * m[1] ** 2


def test_family_without_cumulants_has_no_coefficients():
    # the specialized route is for p = 2, q = 1 only, and the general
    # route needs the cumulant arrays the stub does not define
    with pytest.raises(NotImplementedError,
                       match="^stub has no specialized route$"):
        _StubFamily().specialized_coefficients((1.0,))
    with pytest.raises(NotImplementedError,
                       match="^stub has no cumulant arrays$"):
        _StubFamily().coefficients((1.0,))


def test_every_family_reports_consistent_dimensions(model):
    assert 1 <= model.q <= model.p
    assert len(model.param_names) == model.p
    assert len(model.default_theta) == model.p
    theta = np.asarray(model.default_theta, dtype=float)
    b = model.cumulants(theta)
    assert b.p == model.p


def test_cumulants_are_the_bundle_of_the_cumulant_arrays(model):
    # one cumulant source per family: no family builds its bundle itself
    theta = np.asarray(model.default_theta, dtype=float)
    got = model.cumulants(theta)
    want = CumulantBundle(*model.cumulant_arrays(theta))
    for name in ("kappa2", "kappa3", "kappa4", "d_kappa2", "d_kappa3",
                 "dd_kappa2"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_statistic_exponential_fixture():
    # xbar = 1.5 with n = 4 at phi0 = 1: S = n (xbar - 1)^2 = 1
    m = make_model("exponential")
    g = gradient_statistic(m, np.array([1.0, 1.2, 1.8, 2.0]), 1.0)
    assert g.n == 4
    assert abs(g.value - 1.0) <= 1e-12
    assert not g.clamped


def test_statistic_normal_mean_fixture():
    m = make_model("two-parameter-normal")
    g = gradient_statistic(m, np.array([-1.0, 1.0]), 0.0)
    assert g.value == 0.0


def test_statistic_two_sample_fixture():
    m = make_model("two-sample-exponential")
    g = gradient_statistic(m, (np.array([1.0, 3.0]), np.array([2.0, 2.0])),
                           1.0)
    assert abs(g.value) <= 1e-14


def test_statistic_rejects_wrong_null_shape():
    m = make_model("exponential")
    with pytest.raises(ValueError):
        gradient_statistic(m, np.array([1.0, 2.0]), [1.0, 2.0])


class _NegativeRawStub(ModelFamily):
    """Forces n u1 (theta_hat - theta10) < 0 to exercise the clamp."""

    name = "negative-raw-stub"

    def sample(self, theta, n, rng):
        return np.zeros(n)

    def summarize(self, x):
        return x.shape[1], x[:, 0]

    def estimates(self, m, theta10):
        return ((theta10[0],), True), ((2.0,), True)

    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        # a score of -1 at theta_tilde
        return m[0] * -1.0 * (theta_hat[0] - theta10[0])

    def cumulants(self, theta):
        raise NotImplementedError


def test_statistic_clamps_negative_raw_value():
    g = gradient_statistic(_NegativeRawStub(), [0.0, 0.0, 0.0], 1.0)
    assert g.raw == -3.0
    assert g.value == 0.0
    assert g.clamped


def _closed_form_statistic(model_id, data, theta10):
    phi0 = float(theta10[0])
    if model_id == "exponential":
        x = np.asarray(data, dtype=float)
        return len(x) * (x.mean() - phi0) ** 2 / phi0 ** 2
    if model_id == "two-parameter-normal":
        x = np.asarray(data, dtype=float)
        t1 = (x.mean() - phi0) ** 2
        t2 = float(np.mean((x - x.mean()) ** 2))
        return len(x) * t1 / (t1 + t2)
    if model_id == "two-sample-exponential":
        x1, x2 = (np.asarray(v, dtype=float) for v in data)
        n = len(x1) + len(x2)
        pooled = 0.5 * (x1.mean() + x2.mean())
        return n * (x1.mean() - x2.mean()) ** 2 / (4.0 * x1.mean() * pooled)
    if model_id == "birnbaum-saunders":
        x = np.asarray(data, dtype=float)
        n = len(x)
        s = float(x.mean())
        r = 1.0 / float(np.mean(1.0 / x))
        m = make_model(model_id)
        beta_t = m.fit_restricted(x, phi0)[1]
        phi_h = m.fit_unrestricted(x)[0]
        raw = (n * (phi_h - phi0) / phi0 ** 3
               * (s / beta_t + beta_t / r - (2.0 + phi0 ** 2)))
        return max(raw, 0.0)
    raise KeyError(model_id)


CLOSED_STAT = {
    "exponential": ([1.0], [1.0], (0.3, 0.0)),
    "two-parameter-normal": ([0.0, 1.0], [0.0], (0.4, 0.0)),
    "two-sample-exponential": ([1.0, 1.0], [1.0], (0.0, 0.5)),
    "birnbaum-saunders": ([1.0, 1.0], [1.0], (0.4, 0.5)),
}


@pytest.mark.parametrize("model_id", sorted(CLOSED_STAT))
def test_generic_statistic_matches_printed_form(model_id):
    theta0, theta10, (dphi, dbeta) = CLOSED_STAT[model_id]
    m = make_model(model_id)
    rng = np.random.default_rng(SEED)
    for trial in range(100):
        n = 2 * int(rng.integers(3, 31))
        theta = np.array(theta0, dtype=float)
        # half the draws sit off the null to vary the statistic's size
        if trial % 2:
            theta[0] += dphi
            theta[-1] += dbeta
        data = m.sample(theta, n, rng)
        generic = gradient_statistic(m, data, theta10).value
        closed = _closed_form_statistic(model_id, data, theta10)
        assert abs(generic - closed) <= 1e-8 * max(1.0, abs(closed))


def test_unrestricted_score_vanishes(model):
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        data = model.sample(np.asarray(model.default_theta, float), 50, rng)
        try:
            theta_hat = model.fit_unrestricted(data)
        except FitError:
            continue
        u = score(model, data, theta_hat)
        assert np.all(np.abs(u) <= 1e-8)


def test_restricted_nuisance_score_vanishes(model):
    if model.p == model.q:
        pytest.skip("no nuisance component")
    theta = np.asarray(model.default_theta, float)
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        data = model.sample(theta, 50, rng)
        theta_t = model.fit_restricted(data, theta[:model.q])
        u = score(model, data, theta_t)
        assert np.all(np.abs(u[model.q:]) <= 1e-8)


FD_POINT = {
    "two-parameter-normal": (0.3, 1.7),
    "two-sample-exponential": (1.2, 0.9),
    "birnbaum-saunders": (0.8, 1.3),
}


def test_derivative_arrays_match_finite_differences(model):
    # d_kappa2, d_kappa3, dd_kappa2 are hand-differentiated; cross-check
    # against central differences of kappa2/kappa3 (test-only, step 1e-5)
    theta = np.asarray(FD_POINT.get(model.name,
                                    (model.default_theta[0] + 0.3,)), float)
    p, h = model.p, 1e-5
    b = model.cumulants(theta)

    def shifted(*pairs):
        t = theta.copy()
        for axis, step in pairs:
            t[axis] += step
        return model.cumulants(t)

    fd_d2 = np.empty_like(b.d_kappa2)
    for u in range(p):
        fd_d2[:, :, u] = (shifted((u, h)).kappa2
                          - shifted((u, -h)).kappa2) / (2.0 * h)
    assert np.allclose(b.d_kappa2, fd_d2, rtol=1e-5, atol=1e-5)

    fd_d3 = np.empty_like(b.d_kappa3)
    for j in range(p):
        fd_d3[j] = (shifted((j, h)).kappa3
                    - shifted((j, -h)).kappa3) / (2.0 * h)
    assert np.allclose(b.d_kappa3, fd_d3, rtol=1e-5, atol=1e-5)

    fd_dd2 = np.empty_like(b.dd_kappa2)
    for j in range(p):
        fd_dd2[j, j] = (shifted((j, h)).kappa2 - 2.0 * b.kappa2
                        + shifted((j, -h)).kappa2) / h ** 2
        for r in range(p):
            if r == j:
                continue
            fd_dd2[j, r] = (shifted((j, h), (r, h)).kappa2
                            - shifted((j, h), (r, -h)).kappa2
                            - shifted((j, -h), (r, h)).kappa2
                            + shifted((j, -h), (r, -h)).kappa2) / (4.0 * h ** 2)
    assert np.allclose(b.dd_kappa2, fd_dd2, rtol=1e-5, atol=1e-5)


def test_every_family_takes_its_specialized_route(model):
    # a family added without a specialized route would otherwise fall back
    # to the general engine unnoticed
    theta = np.asarray(model.default_theta, dtype=float)
    assert model.coefficients(theta) == model.specialized_coefficients(theta)


# the families in the mean parametrization, E d(X) = phi, with constants
MEAN_FAMILIES = (("exponential", {}), ("normal-mean-known", dict(mu=0.3)),
                 ("normal-variance-known", dict(variance=2.5)),
                 ("inverse-normal", dict(known="shape", shape=2.5)),
                 ("truncated-extreme-value", {}),
                 ("laplace-scale", dict(center=-0.4)))


@settings(max_examples=40, deadline=None)
@given(phi=st.floats(1e-2, 1e2))
@pytest.mark.parametrize("model_id, constants", MEAN_FAMILIES)
def test_mean_parametrized_families_have_no_a1(model_id, constants, phi):
    # beta = -phi gives kpp = a1, kppp = 2 a2 = 2 kpp_p and kppp_p = 2 a3
    # = 2 kpp_pp, so both terms of A1's numerator vanish
    m = make_model(model_id, **constants)
    assert m.specialized_coefficients((phi,)).A1 == 0.0
    general = m.general_coefficients((phi,))
    assert abs(general.A1) <= 1e-12 * max(abs(general.A2), 1.0)


def test_birnbaum_saunders_printed_nuisance_interaction_value():
    # -15(2+phi^2)/(2{1 + phi h(phi)/sqrt(2 pi)}) at phi = 1, with
    # h(1) = 0.72520612521905 frozen from the quadrature oracle.  The
    # printed -45/2 in front was 3 times the derived 3 kpbb kppp/(kpp^2 kbb)
    m = make_model("birnbaum-saunders")
    h1 = 0.72520612521905
    want = -15.0 * 3.0 / (2.0 * (1.0 + h1 / math.sqrt(2.0 * math.pi)))
    for got in (birnbaum_saunders_coefficients(1.0)["A2_phibeta"],
                m.specialized_coefficients(np.array([1.0, 1.0])).A2_phibeta):
        assert abs(got - want) <= 1e-10
        assert abs(got - (-17.451121933046565)) <= 1e-10


def test_birnbaum_saunders_coefficients_ignore_scale():
    m = make_model("birnbaum-saunders")
    for route in (m.specialized_coefficients, m.general_coefficients):
        at2 = route(np.array([1.0, 2.0])).as_tuple()
        at7 = route(np.array([1.0, 7.0])).as_tuple()
        assert np.allclose(at2, at7, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("beta", [0.7, 2.5])
def test_birnbaum_saunders_closed_form_matches_routes_across_shape(beta):
    # the closed interaction terms must hold along the whole shape axis,
    # not only at the default point
    m = make_model("birnbaum-saunders")
    for phi in (0.3, 0.5, 1.0, 2.0, 5.0):
        theta = np.array([phi, beta])
        closed = birnbaum_saunders_coefficients(phi)
        split = m.specialized_coefficients(theta)
        for name in ("A1_phibeta", "A2_phibeta"):
            want = getattr(split, name)
            assert abs(closed[name] - want) <= 1e-10 * abs(want)
        for route in (m.general_coefficients, m.specialized_coefficients):
            got = route(theta)
            for name in ("A1", "A2", "A3"):
                w = getattr(got, name)
                assert abs(closed[name] - w) <= 1e-10 * abs(w), \
                    (phi, route.__name__)


def _bs_loglik_derivative(x, phi, beta, i, j):
    """d^{i+j} ell / d phi^i d beta^j for i + j >= 2, written out by hand.

    ell = P(phi) A(beta) - log phi + log(x + beta) - log(beta)/2 with
    P = -1/(2 phi^2) and A = x/beta + beta/x - 2.
    """
    P = (-0.5 / phi**2, 1.0 / phi**3, -3.0 / phi**4, 12.0 / phi**5,
         -60.0 / phi**6)[i]
    A = (x / beta + beta / x - 2.0, -x / beta**2 + 1.0 / x,
         2.0 * x / beta**3, -6.0 * x / beta**4, 24.0 * x / beta**5)[j]
    out = P * A
    if j == 0:
        out += (0.0, -1.0 / phi, 1.0 / phi**2, -2.0 / phi**3,
                6.0 / phi**4)[i]
    if i == 0:
        out += (0.0, 0.0, -1.0 / (x + beta)**2 + 0.5 / beta**2,
                2.0 / (x + beta)**3 - 1.0 / beta**3,
                -6.0 / (x + beta)**4 + 3.0 / beta**4)[j]
    return out


@pytest.mark.parametrize("phi", [0.5, 1.0, 2.0])
def test_birnbaum_saunders_cumulants_match_quadrature(phi):
    # kappa_{rs..} = E[d^k ell] by quadrature over X = beta (t + sqrt(t^2+1))^2,
    # t = phi Z / 2, Z standard normal; independent of the closed forms
    from scipy import integrate
    beta = 1.3
    m = make_model("birnbaum-saunders")
    b = m.cumulants(np.array([phi, beta]))

    def expect(i, j):
        def integrand(z):
            t = 0.5 * phi * z
            x = beta * (t + math.sqrt(t * t + 1.0)) ** 2
            return (_bs_loglik_derivative(x, phi, beta, i, j)
                    * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))
        return integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-13,
                              epsrel=1e-12, limit=200)[0]

    for arr in (b.kappa2, b.kappa3, b.kappa4):
        for idx in np.ndindex(arr.shape):
            i = idx.count(0)
            want = expect(i, len(idx) - i)
            assert abs(arr[idx] - want) <= 1e-9 * max(1.0, abs(want)), idx


@pytest.mark.parametrize("phi", [0.5, 1.0, 2.0])
def test_truncated_extreme_value_is_exponential_in_expm1(phi):
    # in phi the log-likelihood is the exponential one in y = expm1(x), so
    # the statistic agrees sample by sample and every route gives the
    # exponential row
    tev, exp = make_model("truncated-extreme-value"), make_model("exponential")
    rng = np.random.default_rng([SEED, int(10 * phi)])
    for k in range(200):
        x = tev.sample(np.array([phi]), 5 + k % 20, rng)
        got = gradient_statistic(tev, x, 1.0).value
        want = gradient_statistic(exp, np.expm1(x), 1.0).value
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    theta = np.array([phi])
    want = (0.0, 18.0, 20.0)        # the exponential row, at every phi
    for route in (exp.specialized_coefficients, tev.specialized_coefficients,
                  tev.general_coefficients):
        got = route(theta).as_tuple()
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10), route.__name__


def test_birnbaum_saunders_estimator_consistency():
    m = make_model("birnbaum-saunders")
    rng = np.random.default_rng(SEED)
    data = m.sample(np.array([1.0, 1.0]), 5000, rng)
    phi_hat = m.fit_unrestricted(data)[0]
    # observed information for phi is 2n/phi^2, so 3 SE = 3/sqrt(2n) = 0.03
    assert abs(phi_hat - 1.0) < 0.03


def test_birnbaum_saunders_restricted_score_component():
    m = make_model("birnbaum-saunders")
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        data = m.sample(np.array([0.9, 1.4]), 40, rng)
        theta_t = m.fit_restricted(data, 0.9)
        assert abs(score(m, data, theta_t)[1]) <= 1e-8


def test_birnbaum_saunders_degenerate_data():
    m = make_model("birnbaum-saunders")
    data = np.full(6, 1.3)
    theta_t = m.fit_restricted(data, 0.5)
    assert abs(theta_t[1] - 1.3) <= 1e-9   # rho(x/b) = 0 at b = x
    with pytest.raises(FitError):
        m.fit_unrestricted(data)


def _counting(solve, counts):
    """solve with its f counted: each call appends how many times it
    evaluated f to counts."""
    def counted(f, *args):
        calls = [0]

        def f_counted(*x):
            calls[0] += 1
            return f(*x)

        root = solve(f_counted, *args)
        counts.append(calls[0])
        return root

    return counted


def test_birnbaum_saunders_fits_take_few_solver_evaluations(monkeypatch):
    # the Newton step is kept when it lands on a bracket end, so a fit
    # near its root does not fall back to bisection; a one-row fit solves
    # H and G by one scalar run each, and two rows share one array run
    from gradcorr.models import birnbaum_saunders as bs
    scalar, array = [], []
    monkeypatch.setattr(bs, "_scalar_newton",
                        _counting(bs._scalar_newton, scalar))
    monkeypatch.setattr(bs, "_safeguarded_newton",
                        _counting(bs._safeguarded_newton, array))
    m = make_model("birnbaum-saunders")
    rng = np.random.default_rng(SEED)
    for n in (5, 10, 20, 50, 200):
        for phi in (1.0, 0.7):
            sets = [m.sample(np.array([phi, 1.0]), n, rng) for _ in range(30)]
            for data in sets:
                for phi0 in (1.0, 0.7):
                    m.fit_restricted(data, phi0)
                m.fit_unrestricted(data)
            for pair in zip(sets[::2], sets[1::2]):
                for phi0 in (1.0, 0.7):
                    with np.errstate(all="ignore"):
                        m.fit_rows(m.summarize(np.array(pair)), (phi0,))
    assert len(scalar) == 2 * 900 and max(scalar) <= 8
    assert len(array) == 300 and max(array) <= 8


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=30),
       st.floats(0.02, 50.0))
def test_birnbaum_saunders_restricted_bracket_end_is_past_the_root(data,
                                                                   phi0):
    # mean(1/(x+b)) < 1/b gives H(b) < (s - b^2/r)/phi0^2 + b, which is
    # -sqrt(s r) at b = phi0^2 r + sqrt(s r), the closed-form bracket end;
    # checked on the one-row driver and on the array run of two rows
    from gradcorr.models import birnbaum_saunders as bs
    scalar, array = bs._scalar_newton, bs._safeguarded_newton
    ends = []

    def scalar_spy(f, lo, hi, x0):
        # H is solved first
        if not ends:
            ends.append(("scalar", f(hi)[0], hi, x0))
        return scalar(f, lo, hi, x0)

    def array_spy(f, lo, hi, x0):
        # H and its bracket are row 0 of the iterate
        ends.append(("array", f(hi, np.zeros(hi.shape, dtype=bool))[0][0],
                     hi[0], x0[0]))
        return array(f, lo, hi, x0)

    m = make_model("birnbaum-saunders")
    pair = np.array([data, data[::-1]])
    for driver, rows, fit in (
            ("scalar", np.array([data]),
             lambda: m.fit_restricted(data, phi0)),
            ("array", pair, lambda: m.fit_rows(m.summarize(pair), (phi0,)))):
        _, s, r, _ = m.summarize(rows)
        ends.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bs, "_scalar_newton", scalar_spy)
            mp.setattr(bs, "_safeguarded_newton", array_spy)
            with np.errstate(all="ignore"), contextlib.suppress(FitError):
                fit()
        ran, h, hi, start = ends[0]
        h, hi, start = np.atleast_1d(h, hi, start)
        assert ran == driver
        assert np.array_equal(hi, phi0**2 * r + np.sqrt(s * r))
        assert np.array_equal(start, np.sqrt(s * r))
        assert (h < -start).all() and (-start < 0.0).all()


def test_birnbaum_saunders_solves_pick_their_driver_by_entry_point(
        monkeypatch):
    # the one-row driver's scalar summaries run the scalar Newton, and
    # every batch_statistics or fit_rows call one (2, K) array run, one row
    # included; a fallback to the other driver gives the same numbers,
    # only slower, so only a count of the calls shows it
    from gradcorr.models import birnbaum_saunders as bs
    scalar, array = [], []
    monkeypatch.setattr(bs, "_scalar_newton",
                        _counting(bs._scalar_newton, scalar))
    monkeypatch.setattr(bs, "_safeguarded_newton",
                        _counting(bs._safeguarded_newton, array))
    m = make_model("birnbaum-saunders")
    x = m.sample((1.0, 1.0), (130, 7), np.random.default_rng(SEED))
    m.fit_restricted(x[0], 1.0)
    m.fit_unrestricted(x[0])
    gradient_statistic(m, x[0], 1.0)
    assert (len(scalar), len(array)) == (2 * 3, 0)
    for rows in (x[:1], x[:2], x[:3], x, [x[:1], x[1:2]],
                 [x[:1], x[:, :5]]):
        m.batch_statistics(rows, (1.0,))
    with np.errstate(all="ignore"):
        m.fit_rows(m.summarize(x[:1]), (1.0,))
        m.fit_rows(m.summarize(x[:2]), (1.0,))
    assert (len(scalar), len(array)) == (2 * 3, 8)


def _same_fit(row, view) -> bool:
    """row of a fit_rows result against the one-row view: equal to the bit,
    or NaN where the view raises FitError."""
    try:
        one = view()
    except FitError:
        return bool(np.isnan(row).any())
    return np.array_equal(row, one)


def _bs_case(kind, n, scale, phi0, seed):
    """Data and null of one case: a Birnbaum-Saunders sample of scale
    ``scale``, constant data, data near a double root of H (near-constant,
    phi0 near 2), or the 437/444 pair that once collapsed the bracket."""
    rng = np.random.default_rng(seed)
    if kind == "pair":
        return np.array([437.0, 444.0]), (2.0, 2.00001)[seed % 2]
    if kind == "constant":
        return np.full(n, scale), phi0
    if kind == "double-root":
        return (scale * (1.0 + rng.uniform(-1e-2, 1e-2, n)),
                2.0 * (1.0 + rng.uniform(-1e-4, 1e-4)))
    m = make_model("birnbaum-saunders")
    return scale * m.sample((rng.uniform(0.05, 7.4), 1.0), n, rng), phi0


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["sample", "constant", "double-root", "pair"]),
       st.integers(2, 300), st.floats(1e-3, 1e3), st.floats(0.02, 50.0),
       st.integers(0, 2**32 - 1))
@example("pair", 2, 1.0, 2.0, 0)
@example("pair", 2, 1.0, 2.0, 1)
def test_birnbaum_saunders_one_row_fit_is_the_batch_row(kind, n, scale,
                                                        phi0, seed):
    # the scalar driver of one data set against the array run on the data
    # set alone as a matrix and on 2- and 130-row matrices: the same bits,
    # and the same failures
    m = make_model("birnbaum-saunders")
    x, phi0 = _bs_case(kind, n, scale, phi0, seed)
    try:
        want = gradient_statistic(m, x, phi0).value
    except (FitError, OverflowError):
        want = np.nan
    others = m.sample((1.0, 1.0), (130, len(x)),
                      np.random.default_rng(seed + 1))
    for k, i in ((1, 0), (2, 1), (130, 77)):
        rows = others[:k].copy()
        rows[i] = x
        with np.errstate(all="ignore"):
            tilde, hat = m.fit_rows(m.summarize(rows), (phi0,))
        assert _same_fit(tilde[i], lambda: m.fit_restricted(x, phi0)), k
        assert _same_fit(hat[i], lambda: m.fit_unrestricted(x)), k
        S, _ = m.batch_statistics(rows, (phi0,))
        assert np.array_equal(S[i], want, equal_nan=True), k


def _bs_means(data, beta):
    """s, r and mean(1/(x + beta)) of each data set in the last axis."""
    x = np.asarray(data, dtype=float)
    return (x.mean(axis=-1), 1.0 / np.mean(1.0 / x, axis=-1),
            np.mean(1.0 / (x + np.expand_dims(beta, -1)), axis=-1))


def _bs_restricted_residual(data, phi0, beta):
    """H(beta) / beta: the restricted scale equation, written from the
    log-likelihood, relative to the scale."""
    s, r, m1 = _bs_means(data, beta)
    return ((s - beta**2 / r) / phi0**2 - beta + 2.0 * beta**2 * m1) / beta


def _bs_unrestricted_residual(data, beta):
    """G(beta) / beta^2: the beta-score with phi profiled out, written from
    the log-likelihood, relative to the squared scale."""
    s, r, m1 = _bs_means(data, beta)
    K = 1.0 / m1
    return (beta**2 - beta * (K + 2.0 * r) + r * (K + s)) / beta**2


def test_birnbaum_saunders_restricted_fit_leaves_a_collapsed_bracket():
    # near a double root of H a Newton step from one end of the bracket
    # landed exactly on the other and back, until the 200-step cap
    m = make_model("birnbaum-saunders")
    data = np.array([437.0, 444.0])
    for phi0 in (2.0, 2.00001):
        beta = m.fit_restricted(data, phi0)[1]
        assert 437.0 < beta < 444.0
        assert abs(_bs_restricted_residual(data, phi0, beta)) <= 1e-12
        assert math.isfinite(gradient_statistic(m, data, phi0).value)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 1e3),
       st.lists(st.floats(-1e-2, 1e-2), min_size=2, max_size=30),
       st.floats(-1e-4, 1e-4))
def test_birnbaum_saunders_restricted_fit_near_a_double_root(scale, spread,
                                                             shift):
    # at constant data x = a and phi0 = 2, H(a t) = a (1 - t)^3 / (4 (1 + t)),
    # so data close to constant with phi0 close to 2 puts up to three
    # roots of H close together, where H is flat
    m = make_model("birnbaum-saunders")
    data = scale * (1.0 + np.array(spread))
    phi0 = 2.0 * (1.0 + shift)
    beta = m.fit_restricted(data, phi0)[1]
    assert 0.0 < beta < math.inf
    assert abs(_bs_restricted_residual(data, phi0, beta)) <= 1e-12


def test_pairwise_sum_adds_in_numpys_row_order():
    # _pairwise_sum reads numpy's order off its source; if a numpy release
    # sums rows differently, this fails before any CSV moves
    from gradcorr.models.birnbaum_saunders import _pairwise_sum
    rng = np.random.default_rng(SEED)
    for n in range(1, 301):
        for k in (1, 2, 7, 500):
            rows = (rng.choice([-1.0, 1.0], (k, n))
                    * np.exp(rng.uniform(-30.0, 30.0, (k, n))))
            want = rows.sum(axis=1)
            # columns in memory (the wide path), rows in memory (numpy's
            # own reduction) and a strided (n, 1, k) view
            for a in (np.ascontiguousarray(rows.T), rows.T,
                      rows.T.reshape(n, 1, k)):
                got = _pairwise_sum(a).reshape(k)
                assert np.array_equal(got, want), (n, k, a.strides)


def _bs_blocks(k, n, seed):
    """A seeded (k, n) Birnbaum-Saunders block with constant rows, where the
    unrestricted fit fails, and for k > 1 a row alternating 437 and 444,
    near a double root of H at phi0 = 2."""
    m = make_model("birnbaum-saunders")
    x = m.sample((1.0, 1.0), (k, n), np.random.default_rng(seed))
    x[::29] = 1.3
    if k > 1:
        x[1] = 437.0 + 7.0 * (np.arange(n) % 2)
    return m, x


@pytest.mark.parametrize("k", [1, 37, 4096])
@pytest.mark.parametrize("n", [2, 5, 8, 13, 22, 129, 200])
def test_birnbaum_saunders_fused_fits_match_one_row_views(k, n):
    m, x = _bs_blocks(k, n, SEED + n)
    # every converged root of the whole block solves its equation; at
    # k = 4096 every 61st row against the one-row views
    rows = range(k) if k < 4096 else range(0, k, 61)
    for phi0 in (1.0, 1.5, 2.00001):
        S, failed = m.batch_statistics(x, (phi0,))
        with np.errstate(all="ignore"):
            tilde, hat = m.fit_rows(m.summarize(x), (phi0,))
        assert not np.isnan(tilde).any()
        assert (np.abs(_bs_restricted_residual(x, phi0, tilde[:, 1]))
                <= 1e-12).all()
        # the unrestricted fit may fail on the constant rows alone
        ok = ~np.isnan(hat[:, 1])
        assert ok[np.arange(k) % 29 != 0].all()
        assert (np.abs(_bs_unrestricted_residual(x[ok], hat[ok, 1]))
                <= 1e-12).all()
        assert failed == np.count_nonzero(np.isnan(S))
        for i in rows:
            try:
                want = gradient_statistic(m, x[i], phi0).value
            except (FitError, OverflowError):
                want = np.nan
            assert np.array_equal(S[i], want, equal_nan=True), (i, phi0)
            for fit, view in ((tilde, lambda: m.fit_restricted(x[i], phi0)),
                              (hat, lambda: m.fit_unrestricted(x[i]))):
                try:
                    one = view()
                except FitError:
                    one = np.full(2, np.nan)
                assert np.array_equal(fit[i], one, equal_nan=True), (i, phi0)


@pytest.mark.parametrize("value", [1.3, 0.1, 7.0, 123.456, 1e-3])
def test_birnbaum_saunders_constant_data_fail_the_unrestricted_fit(value):
    # phi_hat^2 of data of one value is 0 up to rounding, which left
    # phi_hat near 2e-8 at some n (S = 13.0 at n = 13) and failed at others
    m = make_model("birnbaum-saunders")
    for n in range(2, 41):
        x = np.full(n, value)
        with pytest.raises(FitError, match="unrestricted fit failed"):
            gradient_statistic(m, x, 1.0)
        with pytest.raises(FitError, match="unrestricted fit failed"):
            m.fit_unrestricted(x)
        assert math.isfinite(m.fit_restricted(x, 1.0)[1])
    blocks = [np.full((3, n), value) for n in range(2, 41)]
    S, failed = m.batch_statistics(blocks, (1.0,))
    assert failed == len(S) == 3 * 39 and np.isnan(S).all()


GROUP_SIZES = (2, 3, 5, 7, 8, 13, 16, 24, 100, 128, 129, 300)


def test_grouped_blocks_give_the_per_block_statistics(model):
    # one batch_statistics call over blocks of many sizes, of fewer and
    # more than 128 data sets each, some rows constant, gives each block's
    # own S to the bit, and the same count of failed fits
    theta = np.asarray(model.default_theta, dtype=float)
    null = theta[:model.q]
    rng = np.random.default_rng(SEED)
    blocks = []
    for n in GROUP_SIZES:
        n += n % model.samples          # a two-sample row splits in halves
        for k in (50, 200):
            x = model.sample(theta, (k, n), rng)
            x[::17] = x[::17, :1]
            blocks.append(x)
    S, failed = model.batch_statistics(blocks, null)
    alone = [model.batch_statistics(x, null) for x in blocks]
    assert S.tobytes() == np.concatenate([s for s, _ in alone]).tobytes()
    assert failed == sum(f for _, f in alone)


@pytest.mark.parametrize("k", [1, 80])
def test_unrestricted_fit_does_not_depend_on_the_null(model, k):
    # fit_unrestricted reads theta_hat off fit_rows at the default null;
    # 80 rows put Birnbaum-Saunders on its wide layout
    x = model.sample(np.asarray(model.default_theta, dtype=float), (k, 8),
                     np.random.default_rng(SEED))
    x[::3] = 1.3                        # where some fits fail
    null = np.asarray(model.default_theta[:model.q], dtype=float)
    with np.errstate(all="ignore"):
        m = model.summarize(x)
        a, b = (model.fit_rows(m, t)[1] for t in (null, 1.5 * null + 0.25))
    assert np.array_equal(a, b, equal_nan=True)


def test_validate_data_names_offending_observation():
    m = make_model("exponential")
    with pytest.raises(ValueError, match="observation 2"):
        m.validate_data(np.array([1.0, -3.0, 2.0]))
    with pytest.raises(ValueError, match="observation 3"):
        m.validate_data(np.array([1.0, 3.0, np.nan]))
    ts = make_model("two-sample-exponential")
    with pytest.raises(ValueError, match="sample 2, observation 1"):
        ts.validate_data((np.array([1.0, 2.0]), np.array([-1.0, 2.0])))
    with pytest.raises(ValueError, match="equal length"):
        ts.validate_data((np.array([1.0]), np.array([1.0, 2.0])))


@pytest.mark.parametrize("model_id, kwargs, data, message", [
    ("exponential", {}, [1.0, -3.0, 2.0],
     "observation 2: must be positive (-3.0)"),
    ("exponential", {}, [np.nan, -1.0], "observation 1: not finite (nan)"),
    ("exponential", {}, [-1.0, np.nan],
     "observation 1: must be positive (-1.0)"),
    ("pareto-shape", {"k": 2.0}, [3.0, 1.5],
     "observation 2: must exceed the scale 2.0 (1.5)"),
    ("power-shape", {"theta": 2.0}, [0.5, 2.0],
     "observation 2: must lie strictly inside (0, 2.0) (2.0)"),
    ("laplace-scale", {}, [-5.0, np.inf], "observation 2: not finite (inf)"),
    ("two-parameter-normal", {}, [-3.0, -np.inf],
     "observation 2: not finite (-inf)"),
    ("two-parameter-normal", {}, [1.0],
     "two-parameter-normal: need at least 2 observations"),
    ("birnbaum-saunders", {}, [1e-300, -0.0],
     "observation 2: must be positive (-0.0)"),
    ("birnbaum-saunders", {}, [np.nan],
     "observation 1: not finite (nan)"),
    ("exponential", {}, [], "exponential: need at least 1 observation"),
    ("birnbaum-saunders", {}, [],
     "birnbaum-saunders: need at least 2 observations"),
])
def test_validate_data_messages(model_id, kwargs, data, message):
    # cli._locate rewrites "observation i" as a file and line number
    with pytest.raises(ValueError) as exc:
        make_model(model_id, **kwargs).validate_data(np.array(data))
    assert str(exc.value) == message


@pytest.mark.parametrize("x1, x2, message", [
    ([np.nan, -1.0], [1.0, 1.0], "sample 1, observation 1: not finite (nan)"),
    ([1.0, 0.0], [np.inf, 1.0],
     "sample 1, observation 2: must be positive (0.0)"),
    ([1.0, 2.0], [1.0, np.nan], "sample 2, observation 2: not finite (nan)"),
    ([], [], "two-sample-exponential: sample 1, need at least 1 observation"),
])
def test_two_sample_validate_data_messages(x1, x2, message):
    ts = make_model("two-sample-exponential")
    with pytest.raises(ValueError) as exc:
        ts.validate_data((np.array(x1), np.array(x2)))
    assert str(exc.value) == message


def test_gradient_statistic_carries_restricted_fit():
    m = make_model("birnbaum-saunders")
    data = m.sample(np.array([1.2, 0.8]), 15, np.random.default_rng(SEED))
    stat = gradient_statistic(m, data, [1.0])
    assert np.array_equal(stat.theta_tilde, m.fit_restricted(data, [1.0]))


def test_exponential_statistic_moments_match_exact_values():
    # exact moments of S at n = 10 are 1, 2.6, and 20.4; a light seeded
    # run must bracket all three (the full-size run lives in acceptance)
    m = make_model("exponential")
    n, reps = 10, 200_000
    S, failed = replicate_statistics(m, [1.0], [1.0], n, reps, SEED)
    assert failed == 0
    m1 = S.mean()
    c = S - m1
    m2 = np.mean(c ** 2)
    m3 = np.mean(c ** 3)
    se1 = S.std(ddof=1) / math.sqrt(reps)
    se2 = math.sqrt((np.mean(c ** 4) - m2 ** 2) / reps)
    se3 = math.sqrt((np.mean(c ** 6) - m3 ** 2
                     - 6.0 * np.mean(c ** 4) * m2 + 9.0 * m2 ** 3) / reps)
    assert abs(m1 - 1.0) <= 3.0 * se1
    assert abs(m2 - 2.6) <= 3.0 * se2
    assert abs(m3 - 20.4) <= 3.0 * se3


def test_normal_mean_scaled_statistic_is_beta_distributed():
    # n^{-1} S is exactly Beta(1/2, (n-1)/2); light KS check at 2e4 reps
    from scipy import special as sp
    m = make_model("two-parameter-normal")
    n, reps = 12, 20_000
    S, failed = replicate_statistics(m, [0.0, 1.0], [0.0], n, reps, SEED)
    assert failed == 0
    u = np.sort(S / n)
    cdf = sp.betainc(0.5, (n - 1) / 2.0, u)
    k = np.arange(1, reps + 1)
    ks = max(np.max(k / reps - cdf), np.max(cdf - (k - 1) / reps))
    assert ks < 1.62762 / math.sqrt(reps)   # 1% critical value


def _flat(data):
    return np.concatenate(data) if isinstance(data, tuple) else data


def test_sample_matrix_rows_are_successive_draws(model):
    theta = np.asarray(model.default_theta, dtype=float)
    k, n = 7, 12
    matrix = model.sample(theta, (k, n), np.random.default_rng(SEED))
    assert matrix.shape == (k, n)
    rng = np.random.default_rng(SEED)
    for row in matrix:
        assert np.array_equal(row, _flat(model.sample(theta, n, rng)))


def test_batch_statistics_agree_with_generic_loop(model):
    # row r of a (k, n) draw is the r-th of k successive size-n draws; the
    # batch rows and the one-row gradient_statistic both match S built from
    # the two fits and the score, and each other to the bit
    theta = np.asarray(model.default_theta, dtype=float)
    theta10 = theta[:model.q]
    count = 40
    for n in (5, 12, 50):
        n += n % model.samples          # a two-sample row splits in halves
        fast, fast_failed = model.batch_statistics(
            model.sample(theta, (count, n), np.random.default_rng(SEED)),
            theta10)
        slow = np.empty(count)
        one = np.empty(count)
        slow_failed = 0
        rng = np.random.default_rng(SEED)
        for i in range(count):
            data = model.sample(theta, n, rng)
            try:
                slow[i] = max(gradient_statistic_reference(model, data,
                                                           theta10), 0.0)
            except FitError:
                slow[i] = one[i] = np.nan
                slow_failed += 1
                with pytest.raises(FitError):
                    gradient_statistic(model, data, theta10)
                continue
            one[i] = gradient_statistic(model, data, theta10).value
        assert fast_failed == slow_failed, n
        ok = ~np.isnan(slow)
        assert np.allclose(fast[ok], slow[ok], rtol=1e-11, atol=1e-11), n
        assert np.allclose(one[ok], slow[ok], rtol=1e-11, atol=1e-11), n
        assert np.array_equal(np.isnan(fast), np.isnan(slow)), n
        assert np.array_equal(one, fast, equal_nan=True), n


# a value whose square C pow rounds away from v * v, as ** 2 on a numpy
# scalar does about once in a thousand values
_POW_MISS = 0.3624182010806754


def _awkward_rows(model):
    """Data sets that put the fits and S at their edges, as flat rows: n = 2,
    constant data, data scaled by 1e150 and by 1e-150, the 437/444 pair,
    and a pair of mean _POW_MISS."""
    theta = np.asarray(model.default_theta, dtype=float)
    x = model.sample(theta, (1, 8), np.random.default_rng(SEED))[0]
    return (x[:2], np.full(8, x[0]), 1e150 * x, 1e-150 * x,
            np.array([437.0, 444.0]), _POW_MISS + np.array([-0.125, 0.125]))


def test_one_row_fits_and_statistic_are_the_batch_row(model):
    # the one-row driver on numpy scalars against the batch driver on
    # arrays, with the row among others: the same bits, the same failures
    default = np.asarray(model.default_theta[:model.q], dtype=float)
    rng = np.random.default_rng(SEED + 1)
    for x in _awkward_rows(model):
        rows = model.sample(np.asarray(model.default_theta, dtype=float),
                            (3, len(x)), rng)
        rows[1] = x
        for null in (default, 1.5 * default + 0.25):
            with np.errstate(all="ignore"):
                tilde, hat = model.fit_rows(model.summarize(rows), null)
            assert _same_fit(tilde[1], lambda: model.fit_restricted(x, null))
            assert _same_fit(hat[1], lambda: model.fit_unrestricted(x))
            try:
                want = gradient_statistic(model, x, null).value
            except (FitError, OverflowError):
                want = np.nan
            S, _ = model.batch_statistics(rows, null)
            assert np.array_equal(S[1], want, equal_nan=True), (x, null)


class _FailingRows(ModelFamily):
    """A stub family whose data set i is i in every column: its restricted
    fit's flag is false for data set 0, its restricted fit has a NaN
    component under a true flag for data set 1, its S is infinite for
    data set 2, and data set 3 fits with S = 3n."""

    name = "failing-rows"
    p, q = 2, 1
    param_names = ("phi", "beta")
    default_theta = (0.0, 1.0)
    lower = (-math.inf, 0.0)

    def sample(self, theta, size, rng):
        return np.broadcast_to(np.arange(size[0])[:, None], size) + 0.0

    def summarize(self, x):
        return x.shape[1], x[:, 0].copy()

    def estimates(self, m, theta10):
        i = m[1]
        beta = np.where(i == 1.0, np.nan, i + 1.0)
        return ((theta10[0], beta), i != 0.0), ((i, i + 1.0), True)

    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        return np.where(m[1] == 2.0, np.inf, m[0] * theta_hat[0])


def test_both_drivers_read_fit_failures_by_one_rule():
    # a false flag, a NaN component under a true flag and an infinite S:
    # each fails its row in the batch driver and raises alone in the
    # one-row driver, and fit_rows fills a failed fit's row with NaN whole
    m = _FailingRows()
    x = m.sample(None, (4, 5), None)
    S, failed = m.batch_statistics(x, (0.0,))
    assert np.array_equal(S, [np.nan, np.nan, np.nan, 15.0], equal_nan=True)
    assert failed == 3
    tilde, hat = m.fit_rows(m.summarize(x), (0.0,))
    assert np.isnan(tilde[:2]).all() and not np.isnan(tilde[2:]).any()
    assert np.array_equal(hat, [[0.0, 1.0], [1.0, 2.0], [2.0, 3.0],
                                [3.0, 4.0]])
    for row in (0, 1):
        with pytest.raises(FitError, match="failing-rows: restricted"):
            gradient_statistic(m, x[row], (0.0,))
        with pytest.raises(FitError, match="failing-rows: restricted"):
            m.fit_restricted(x[row], (0.0,))
    with pytest.raises(OverflowError, match="failing-rows"):
        gradient_statistic(m, x[2], (0.0,))
    assert gradient_statistic(m, x[3], (0.0,)).value == 15.0


def test_one_data_set_takes_the_one_row_driver(model, monkeypatch):
    # gradient_statistic and the one-row fits run on scalars, never through
    # the batch driver's rows; batch_statistics does reach them: a fit on
    # per-row arrays is a batch fit
    calls, estimates = [], type(model).estimates

    def counted(self, m, theta10):
        if isinstance(m[1], np.ndarray):
            calls.append(len(m[1]))
        return estimates(self, m, theta10)

    monkeypatch.setattr(type(model), "estimates", counted)
    theta = np.asarray(model.default_theta, dtype=float)
    x = model.sample(theta, (2, 8), np.random.default_rng(SEED))
    gradient_statistic(model, x[0], theta[:model.q])
    model.fit_restricted(x[0], theta[:model.q])
    model.fit_unrestricted(x[0])
    assert calls == []
    model.batch_statistics(x, theta[:model.q])
    assert calls == [2]


def test_batch_entry_points_check_the_null_once(monkeypatch):
    # fit_rows checks theta10; batch_statistics checks it once and then
    # fits without the public method's second check
    m, calls, null = make_model("exponential"), [], ModelFamily._null
    monkeypatch.setattr(ModelFamily, "_null",
                        lambda self, t: calls.append(t) or null(self, t))
    x = m.sample((1.0,), (3, 6), np.random.default_rng(SEED))
    m.batch_statistics(x, (1.0,))
    assert len(calls) == 1
    m.fit_rows(m.summarize(x), (1.0,))
    assert len(calls) == 2


BOUNDED_NULL = sorted(set(builtin_models())
                      - {"normal-variance-known", "two-parameter-normal"})


@pytest.mark.parametrize("bad", [0.0, -1.0])
@pytest.mark.parametrize("model_id", BOUNDED_NULL)
def test_out_of_range_null_fails_alike_on_both_paths(model_id, bad):
    m = make_model(model_id)
    theta = np.asarray(m.default_theta, dtype=float)
    rng = np.random.default_rng(SEED)
    data, matrix = m.sample(theta, 10, rng), m.sample(theta, (4, 10), rng)
    with pytest.raises(ValueError) as want:
        m.fit_restricted(data, bad)
    for path in (lambda: m.batch_statistics(matrix, [bad]),
                 lambda: gradient_statistic(m, data, [bad])):
        with pytest.raises(ValueError) as got:
            path()
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_null_is_rejected_on_every_path(model, bad):
    theta = np.asarray(model.default_theta, dtype=float)
    rng = np.random.default_rng(SEED)
    data, matrix = model.sample(theta, 10, rng), model.sample(theta, (4, 10),
                                                              rng)
    null = theta[:model.q].copy()
    null[-1] = bad
    for path in (lambda: gradient_statistic(model, data, null),
                 lambda: model.fit_restricted(data, null),
                 lambda: model.batch_statistics(matrix, null)):
        with pytest.raises(ValueError, match="theta10 must be finite"):
            path()


def test_two_sample_batch_counts_failed_fits():
    m = make_model("two-sample-exponential")
    x = np.array([[1.0, 2.0, 0.5, 1.5],
                  [0.0, 0.0, 0.5, 1.5],
                  [1.0, 3.0, 0.0, 0.0]])
    S, failed = m.batch_statistics(x, [1.0])
    assert failed == 2
    assert np.isfinite(S[0]) and np.isnan(S[1:]).all()
    for row in x[1:]:
        with pytest.raises(FitError):
            gradient_statistic(m, (row[:2], row[2:]), [1.0])
