"""Correction engine: Bartlett factors, expanded CDF, modified percentiles.

Numeric fixtures marked frozen come from tests/oracles.py.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from gradcorr._record import Record
from gradcorr.correction import (approximate_moments, bartlett_factors,
                                 corrected_statistic, expanded_cdf,
                                 modified_quantile, run_test)
from gradcorr.expansion import ExpansionCoefficients
from gradcorr.special import chi2_cdf, chi2_pdf, chi2_quantile
from helpers import (cancellation_derivative, expanded_cdf_eps,
                     modified_quantile_eps)
from oracles import chi2_cdf_oracle

EXP = ExpansionCoefficients(A1=0.0, A2=18.0, A3=20.0)      # exponential
TPN = ExpansionCoefficients(A1=0.0, A2=-18.0, A3=0.0)      # normal mean test
ZERO = ExpansionCoefficients(A1=0.0, A2=0.0, A3=0.0)


def test_bartlett_factors_exponential():
    f = bartlett_factors(EXP, q=1, n=20)
    assert abs(f.a - 20.0 / 3600.0) <= 1e-18
    assert abs(f.b - (-22.0 / 720.0)) <= 1e-18
    assert abs(f.c - 2.0 / 240.0) <= 1e-18


def test_bartlett_factors_scale_as_one_over_n():
    f1 = bartlett_factors(EXP, q=1, n=10)
    f2 = bartlett_factors(EXP, q=1, n=40)
    assert abs(f1.a - 4.0 * f2.a) <= 1e-18
    assert abs(f1.b - 4.0 * f2.b) <= 1e-18
    assert abs(f1.c - 4.0 * f2.c) <= 1e-18


def test_bartlett_factors_reject_bad_sizes():
    with pytest.raises(ValueError):
        bartlett_factors(EXP, q=0, n=10)
    with pytest.raises(ValueError):
        bartlett_factors(EXP, q=1, n=0)


@pytest.mark.parametrize("q", (1.5, True))
def test_factors_refuse_the_q_that_run_test_refuses(q):
    # one integer rule for q, that of special._check_df
    for call in (lambda: run_test(3.0, EXP, q, 20),
                 lambda: bartlett_factors(EXP, q, 20),
                 lambda: corrected_statistic(3.0, EXP, q, 20)):
        with pytest.raises(TypeError, match="df must be an integer"):
            call()


def test_bartlett_factors_take_a_numpy_integer_q():
    f, g = bartlett_factors(EXP, np.int64(1), 20), bartlett_factors(EXP, 1, 20)
    assert f == g and type(f.q) is int


# every public entry that takes n, at S = 3, gamma = 0.05 and q = 1
N_ENTRIES = {
    "bartlett_factors": lambda n: bartlett_factors(EXP, 1, n),
    "expanded_cdf": lambda n: expanded_cdf(3.0, EXP, 1, n),
    "corrected_statistic": lambda n: corrected_statistic(3.0, EXP, 1, n),
    "modified_quantile": lambda n: modified_quantile(0.05, EXP, 1, n),
    "approximate_moments": lambda n: approximate_moments(EXP, 1, n),
    "run_test": lambda n: run_test(3.0, EXP, 1, n),
}


@pytest.mark.parametrize("shape", ("scalar", "array"))
@pytest.mark.parametrize("n", (math.nan, math.inf, 10.5, True,
                               np.float64(10)),
                         ids=("nan", "inf", "10.5", "True", "float64"))
@pytest.mark.parametrize("entry", N_ENTRIES)
def test_entries_refuse_an_n_that_is_no_integer(entry, n, shape):
    # one integer rule for n, that of special._is_int; a NaN n used to
    # come back as a NaN result, and True as n = 1
    with pytest.raises(TypeError, match="n must"):
        N_ENTRIES[entry](np.array([n]) if shape == "array" else n)


@pytest.mark.parametrize("entry", ("corrected_statistic", "run_test"))
def test_scalar_entries_refuse_an_array_n(entry):
    # an integer array n, which bartlett_factors and expanded_cdf take
    # elementwise, used to fail inside the correction polynomial's
    # regime check with numpy's "truth value of an array is ambiguous"
    n = np.array([10, 20])
    with pytest.raises(TypeError, match=r"^n must be an integer, "
                       r"got array\(\[10, 20\]\)$"):
        N_ENTRIES[entry](n)
    for i, size in enumerate(n.tolist()):
        assert _bits(expanded_cdf(3.0, EXP, 1, n)[i]) == _bits(
            expanded_cdf(3.0, EXP, 1, size))
        assert _bits(bartlett_factors(EXP, 1, n).poly(3.0)[i]) == _bits(
            bartlett_factors(EXP, 1, size).poly(3.0))


# the entries that take one S, at q = 1 and n = 10
S_ENTRIES = {
    "corrected_statistic": lambda S: corrected_statistic(S, EXP, 1, 10),
    "run_test": lambda S: run_test(S, EXP, 1, 10),
}


@pytest.mark.parametrize("S", (True, False, np.True_, "3.0", 3.0 + 0j,
                               None, np.array([3.0])),
                         ids=("True", "False", "numpy-True", "str",
                              "complex", "None", "array"))
@pytest.mark.parametrize("entry", S_ENTRIES)
def test_scalar_entries_refuse_an_S_that_is_no_real_number(entry, S):
    # run_test(True, ...) used to report S = True with p_asymptotic 0.3173
    with pytest.raises(TypeError, match="^S must be a real number, got "):
        S_ENTRIES[entry](S)


@pytest.mark.parametrize("S", (3, np.float64(3.0), np.int64(3)),
                         ids=("int", "float64", "int64"))
@pytest.mark.parametrize("entry", S_ENTRIES)
def test_scalar_entries_take_any_real_S(entry, S):
    assert _bits(S_ENTRIES[entry](S)) == _bits(S_ENTRIES[entry](3.0))


def _bits(value):
    """The floats in value as hex strings, through records and tuples."""
    if isinstance(value, Record):
        value = value._values()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value if isinstance(value, str) else float(value).hex()


@pytest.mark.parametrize("entry", N_ENTRIES)
def test_entries_take_a_numpy_integer_n(entry):
    assert _bits(N_ENTRIES[entry](np.int64(10))) == _bits(
        N_ENTRIES[entry](10))


def test_array_n_matches_scalar_calls():
    # a study decides values of several sample sizes at once; each value
    # must meet the arithmetic of its own scalar n, bit for bit
    n = np.array([1, 5, 7, 13, 40, 5, 1000])
    S = np.array([0.0, 0.3, 1.7, 3.841459, 9.0, 25.0, 2.5])
    for coef, q in ((EXP, 1), (TPN, 2), (EXP, 3)):
        f = bartlett_factors(coef, q, n)
        crit = chi2_quantile(0.95, q)
        cdf = expanded_cdf(S, coef, q, n)
        star, z = f.corrected(S), f.modified(crit)
        for k, (nk, sk) in enumerate(zip(n.tolist(), S.tolist())):
            g = bartlett_factors(coef, q, nk)
            assert (f.a[k], f.b[k], f.c[k]) == (g.a, g.b, g.c)
            assert cdf[k] == expanded_cdf(sk, coef, q, nk)
            assert star[k] == g.corrected(sk)
            assert z[k] == g.modified(crit)


@pytest.mark.parametrize("n", (np.array([5, 0, 7]), np.array([-3]),
                               np.array([[4, 9], [1, 0]])))
def test_array_n_rejects_any_size_below_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        bartlett_factors(EXP, q=1, n=n)
    with pytest.raises(ValueError, match="n must be >= 1"):
        expanded_cdf(np.ones(n.shape), EXP, q=1, n=n)


def test_expanded_cdf_zero_coefficients_is_chisquare():
    for x in (0.0, 0.5, 2.0, 5.0, 12.0):
        assert expanded_cdf(x, ZERO, q=1, n=7) == chi2_cdf(x, 1)


def test_expanded_cdf_vanishes_at_origin():
    assert expanded_cdf(0.0, EXP, q=1, n=10) == 0.0


def test_expanded_cdf_rejects_negative_argument():
    with pytest.raises(ValueError):
        expanded_cdf(-1.0, EXP, q=1, n=10)


@pytest.mark.parametrize("x", [math.nan, [1.0, math.nan], [0.5, -1.0]])
def test_expanded_cdf_rejects_nan_and_negative_entries(x):
    with pytest.raises(ValueError, match="x must be >= 0"):
        expanded_cdf(x, EXP, q=1, n=10)


def test_expanded_cdf_is_elementwise_on_arrays():
    x = np.linspace(0.0, 20.0, 41)
    want = [expanded_cdf(float(v), EXP, q=1, n=10) for v in x]
    assert np.array_equal(expanded_cdf(x, EXP, q=1, n=10), want)


def test_expanded_cdf_within_mixture_bound():
    # |expanded - G_q| <= sum_i |R_i| / (24 n) since each G term is in [0,1]
    for coef in (EXP, TPN, ExpansionCoefficients(A1=24.0, A2=63.0, A3=45.0)):
        bound_scale = sum(abs(r) for r in (coef.R0, coef.R1, coef.R2, coef.R3))
        for n in (10, 50, 400):
            bound = bound_scale / (24.0 * n)
            for x in np.linspace(0.0, 30.0, 61):
                gap = abs(expanded_cdf(x, coef, 1, n) - chi2_cdf(x, 1))
                assert gap <= bound + 1e-15


def test_corrected_statistic_zero_coefficients_identity():
    s_star, warnings = corrected_statistic(3.1, ZERO, q=1, n=25)
    assert s_star == 3.1
    assert warnings == ()


def test_corrected_statistic_exponential_fixture():
    S = 3.841459
    s_star, warnings = corrected_statistic(S, EXP, q=1, n=20)
    want = S * (1.0 - (2.0 / 240.0 - 22.0 / 720.0 * S + 20.0 / 3600.0 * S * S))
    assert abs(s_star - want) <= 1e-14
    assert abs(s_star - 3.9454177852835257) <= 1e-12   # frozen
    assert warnings == ()


def test_corrected_statistic_warns_outside_regime():
    big = ExpansionCoefficients(A1=1000.0, A2=0.0, A3=0.0)
    s_star, warnings = corrected_statistic(1.0, big, q=1, n=1)
    assert s_star < 0
    assert any("outside" in w for w in warnings)
    assert any("negative" in w for w in warnings)


def test_modified_quantile_zero_coefficients_is_chisquare_quantile():
    for gamma in (0.01, 0.05, 0.10):
        z = modified_quantile(gamma, ZERO, q=1, n=20)
        assert abs(z - chi2_quantile(1.0 - gamma, 1)) <= 1e-14


def test_modified_quantile_normal_mean_fixture():
    z = modified_quantile(0.05, TPN, q=1, n=20)
    assert abs(z - 3.76064808546892) <= 1e-11           # frozen
    x = chi2_quantile(0.95, 1)
    assert abs(z - x * (1.075 - 0.025 * x)) <= 1e-14


def test_modified_quantile_approaches_chisquare_quantile():
    z = modified_quantile(0.05, EXP, q=1, n=10 ** 9)
    assert abs(z - chi2_quantile(0.95, 1)) <= 1e-7


def test_modified_quantile_rejects_bad_gamma():
    # 1 - 1e-17 rounds to 1.0, where no chi-square quantile exists
    for gamma in (0.0, 1.0, -0.1, 1.4, 1e-17, math.nan):
        message = (r"^gamma must lie in \(0,1\), with 1 - gamma below 1 in "
                   rf"floating point, got {gamma}$")
        with pytest.raises(ValueError, match=message):
            modified_quantile(gamma, EXP, q=1, n=10)
        with pytest.raises(ValueError, match=message):
            run_test(1.0, EXP, q=1, n=10, gamma=gamma)


def test_approximate_moments_exponential():
    assert approximate_moments(EXP, q=1, n=10) == (1.0, 2.6, 19.2)


def test_approximate_moments_pareto_like():
    coef = ExpansionCoefficients(A1=12.0, A2=15.0, A3=5.0)
    m1, m2, m3 = approximate_moments(coef, q=1, n=5)
    assert abs(m1 - 1.2) <= 1e-15
    assert abs(m2 - 3.8) <= 1e-15
    assert abs(m3 - 26.8) <= 1e-14


def test_approximate_moments_zero_coefficients():
    assert approximate_moments(ZERO, q=3, n=50) == (3.0, 6.0, 24.0)


@pytest.mark.parametrize("S", (np.nan, np.inf))
def test_corrected_statistic_rejects_nonfinite(S):
    with pytest.raises(ValueError, match="finite"):
        corrected_statistic(S, EXP, 1, 20)


@pytest.mark.parametrize("S", (np.nan, np.inf))
def test_run_test_rejects_nonfinite(S):
    with pytest.raises(ValueError, match="finite"):
        run_test(S, EXP, 1, 20)


@pytest.mark.parametrize("kind", (np.int32, np.int64))
def test_run_test_takes_a_numpy_integer_q(kind):
    want = run_test(3.0, EXP, 1, 20)
    got = run_test(3.0, EXP, kind(1), 20)
    for field in ("S_star", "p_asymptotic", "p_expanded", "p_corrected",
                  "z_modified"):
        assert (float(getattr(got, field)).hex()
                == float(getattr(want, field)).hex()), field
    with pytest.raises(TypeError, match="df must be an integer"):
        run_test(3.0, EXP, True, 20)


def test_run_test_rejects_negative_statistic():
    with pytest.raises(ValueError, match=r"^S must be >= 0, got -1\.0$"):
        run_test(-1.0, EXP, 1, 20)


def test_run_test_zero_coefficients_collapses():
    r = run_test(2.5, ZERO, q=1, n=30)
    assert r.S_star == 2.5
    assert r.p_asymptotic == r.p_expanded == r.p_corrected
    assert abs(r.z_modified - chi2_quantile(0.95, 1)) <= 1e-14
    assert r.warnings == ()


def test_run_test_at_zero_statistic():
    r = run_test(0.0, EXP, q=1, n=30)
    assert r.S_star == 0.0
    assert r.p_asymptotic == 1.0
    assert r.p_expanded == 1.0
    assert r.p_corrected == 1.0


def test_run_test_exponential_fixture():
    r = run_test(3.841459, EXP, q=1, n=20)
    assert abs(r.S_star - 3.9454177852835257) <= 1e-12             # frozen
    assert abs(r.p_corrected - 0.046999181974792026) <= 1e-12      # frozen
    assert abs(r.p_corrected - (1.0 - chi2_cdf_oracle(r.S_star, 1))) <= 1e-13
    assert r.p_corrected < r.p_asymptotic < 0.0501
    assert r.warnings == ()


def test_run_test_builds_bartlett_factors_once(monkeypatch):
    import gradcorr.correction as corr
    calls = []

    def counted(*args):
        calls.append(args)
        return bartlett_factors(*args)

    monkeypatch.setattr(corr, "bartlett_factors", counted)
    r = run_test(3.841459, EXP, q=1, n=20, gamma=0.05)
    assert calls == [(EXP, 1, 20)]
    assert (r.S_star, r.warnings) == corrected_statistic(3.841459, EXP, 1, 20)
    assert r.z_modified == modified_quantile(0.05, EXP, 1, 20)


@pytest.mark.parametrize("q", (1, 2, 3, 6))
def test_run_test_asymptotic_pvalue_is_the_ladder_first_rung(q):
    for S in (0.0, 1e-9, 0.004, 0.5, 3.841459, 12.0, 60.0, 800.0):
        r = run_test(S, EXP, q=q, n=15)
        assert r.p_asymptotic == 1.0 - chi2_cdf(S, q)


@pytest.mark.parametrize("A1, warnings", (
    (6.0, ()),
    (7.2, ("correction polynomial 0.6 outside asymptotic regime "
           "(|.| > 0.5)",))))
def test_run_test_regime_warning_starts_above_one_half(A1, warnings):
    # at n = q = 1 and A2 = A3 = 0 the polynomial is the constant A1 / 12
    coef = ExpansionCoefficients(A1=A1, A2=0.0, A3=0.0)
    r = run_test(1.0, coef, q=1, n=1)
    assert r.S_star == 1.0 - A1 / 12.0
    assert r.warnings == warnings


def test_run_test_flags_clamped_expanded_pvalue():
    big = ExpansionCoefficients(A1=1000.0, A2=0.0, A3=0.0)
    r = run_test(1.0, big, q=1, n=1)
    assert r.p_expanded == 1.0
    assert r.expanded_cdf_raw < 0.0
    assert any("clamped" in w for w in r.warnings)


# synthetic coefficients, every factor of the correction polynomial nonzero
SYN = ExpansionCoefficients(A1=5.0, A2=-7.0, A3=3.0)


def test_eps_forms_match_production_at_one_over_n():
    # guard: the test-side eps-parameterized formulas are the production
    # formulas under eps = 1/n, else the cancellation check proves nothing;
    # q > 1 tells q * n from n / q in the polynomial's denominators
    for coef, q in ((EXP, 1), (TPN, 1), (SYN, 1), (SYN, 2), (SYN, 3)):
        for n in (7, 20, 113):
            eps = 1.0 / n
            for x in (0.3, 2.0, 6.1):
                assert abs(expanded_cdf_eps(x, coef, q, eps)
                           - expanded_cdf(x, coef, q, n)) <= 1e-15
            for gamma in (0.01, 0.05, 0.10):
                assert abs(modified_quantile_eps(gamma, coef, q, eps)
                           - modified_quantile(gamma, coef, q, n)) <= 1e-13


def test_first_order_cancellation_all_builtin_coefficients(model):
    theta = np.asarray(model.default_theta, dtype=float)
    coef = model.specialized_coefficients(theta)
    for gamma in (0.01, 0.05, 0.10):
        d = cancellation_derivative(coef, model.q, gamma)
        assert abs(d) <= 1e-6


@pytest.mark.parametrize("q", (2, 3))
def test_first_order_cancellation_synthetic_coefficients(q):
    for coef in (EXP, SYN):
        for gamma in (0.01, 0.05, 0.10):
            assert abs(cancellation_derivative(coef, q, gamma)) <= 1e-6


def test_expanded_density_mean_matches_approximate_first_moment(model):
    # integrating x against the expanded density must land on q + A1/(12n)
    theta = np.asarray(model.default_theta, dtype=float)
    coef = model.specialized_coefficients(theta)
    q, n = model.q, 50

    def integrand(x):
        dens = chi2_pdf(x, q)
        dens += sum(r * chi2_pdf(x, q + 2 * i) for i, r in
                    enumerate((coef.R0, coef.R1, coef.R2, coef.R3))) / (24.0 * n)
        return x * dens

    # over the whole half-line: a cut at q + 40 drops about 1e-6 of the
    # R3 chi2_{q+6} tail for the largest coefficient set
    total, err = integrate.quad(integrand, 0.0, np.inf, limit=200)
    mu1 = approximate_moments(coef, q, n)[0]
    assert abs(total - mu1) <= 1e-9
