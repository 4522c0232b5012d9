"""Model catalog: samplers, fits, scores, statistics, coefficient tables."""

import math

import numpy as np
import pytest

from gradcorr.models import (FitError, builtin_models, gradient_statistic,
                             make_model)
from gradcorr.models.base import ModelFamily
from gradcorr.simulate import replicate_statistics
from oracles import (birnbaum_saunders_coefficients,
                     gradient_statistic_reference)

SEED = 20260814


def test_catalog_has_twelve_families():
    assert len(builtin_models()) == 12


def test_make_model_rejects_unknown_id():
    with pytest.raises(ValueError, match="exponential"):
        make_model("no-such-family")


def test_every_family_reports_consistent_dimensions(model):
    assert 1 <= model.q <= model.p
    assert len(model.param_names) == model.p
    assert len(model.default_theta) == model.p
    theta = np.asarray(model.default_theta, dtype=float)
    b = model.cumulants(theta)
    assert b.p == model.p


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
        return x

    def restricted_rows(self, m, theta10):
        return np.full((len(m), 1), theta10[0])

    def unrestricted_rows(self, m):
        return np.full((len(m), 1), 2.0)

    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        # the score below at theta_tilde
        return m.shape[1] * -1.0 * (theta_hat[:, 0] - theta10[0])

    def score(self, data, theta):
        return np.array([-1.0])

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
        u = model.score(data, theta_hat)
        assert np.all(np.abs(u) <= 1e-8)


def test_restricted_nuisance_score_vanishes(model):
    if model.p == model.q:
        pytest.skip("no nuisance component")
    theta = np.asarray(model.default_theta, float)
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        data = model.sample(theta, 50, rng)
        theta_t = model.fit_restricted(data, theta[:model.q])
        u = model.score(data, theta_t)
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
        assert abs(m.score(data, theta_t)[1]) <= 1e-8


def test_birnbaum_saunders_degenerate_data():
    m = make_model("birnbaum-saunders")
    data = np.full(6, 1.3)
    theta_t = m.fit_restricted(data, 0.5)
    assert abs(theta_t[1] - 1.3) <= 1e-9   # rho(x/b) = 0 at b = x
    with pytest.raises(FitError):
        m.fit_unrestricted(data)


def test_birnbaum_saunders_fits_take_few_solver_evaluations(monkeypatch):
    # the Newton step is kept when it lands on a bracket end, so a fit
    # near its root does not fall back to bisection
    from gradcorr.models import birnbaum_saunders as bs
    solve, counts = bs._safeguarded_newton, []

    def counted(f, lo, hi, x0):
        calls = [0]

        def f_counted(x):
            calls[0] += 1
            return f(x)

        root = solve(f_counted, lo, hi, x0)
        counts.append(calls[0])
        return root

    monkeypatch.setattr(bs, "_safeguarded_newton", counted)
    m = make_model("birnbaum-saunders")
    rng = np.random.default_rng(SEED)
    for n in (5, 10, 20, 50, 200):
        for phi in (1.0, 0.7):
            for _ in range(30):
                data = m.sample(np.array([phi, 1.0]), n, rng)
                for phi0 in (1.0, 0.7):
                    m.fit_restricted(data, phi0)
                m.fit_unrestricted(data)
    assert len(counts) == 900
    assert max(counts) <= 8


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
    # the two fits and the score
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
