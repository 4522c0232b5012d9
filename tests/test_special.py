"""Chi-square and normal primitives against independent oracles.

Expected values marked as frozen were produced by tests/oracles.py
(hand-rolled incomplete gamma, quadrature normal CDF, bisection
quantiles) and pasted here as literals.  scipy, a test-only dependency,
is the second oracle.
"""

import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from gradcorr.special import (_chi2_ladder, chi2_cdf, chi2_pdf,
                              chi2_quantile, std_normal_cdf,
                              std_normal_tail_scaled)
from oracles import chi2_cdf_oracle, chi2_quantile_oracle, normal_cdf_oracle

# x = 2h with sqrt(h) in each of Cody's regions (<= 0.46875, <= 4, > 4)
# and at their edges, in the power-series region h < 0.01 and at its edge,
# at 0, at subnormal and tiny x, and at x >= 700 where e^{-x/2} underflows
CDF_GRID = np.concatenate([
    [0.0, 5e-324, 2e-218, 1e-300, 1e-12, 1e-6, 0.019999, 0.02, 0.020001,
     2 * 0.46875 ** 2, np.nextafter(2 * 0.46875 ** 2, 1.0), 31.99, 32.0,
     32.01, 700.0, 745.0, 1000.0, 1500.0, 1e5, 1e300],
    np.geomspace(1e-9, 0.02, 25), np.linspace(0.0, 40.0, 161),
    np.linspace(40.0, 120.0, 41)])


def test_import_leaves_scipy_out():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import gradcorr.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("df", range(1, 13))
def test_chi2_cdf_scalar_and_array_paths_are_bit_identical(df):
    arr = chi2_cdf(CDF_GRID, df)
    assert np.array_equal(arr, [chi2_cdf(float(v), df) for v in CDF_GRID])
    # expanded_cdf's four rungs are the same numbers as four chi2_cdf calls
    for g, step in zip(_chi2_ladder(CDF_GRID, df, 4), range(4)):
        assert np.array_equal(g, chi2_cdf(CDF_GRID, df + 2 * step))


@pytest.mark.parametrize("df", range(1, 17))
def test_chi2_cdf_matches_scipy_on_grid(df):
    got = chi2_cdf(CDF_GRID, df)
    want = sp.gammainc(df / 2.0, CDF_GRID / 2.0)
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.all((0.0 <= got) & (got <= 1.0))
    assert chi2_cdf(math.inf, df) == 1.0
    # the power series keeps small values accurate relative to themselves
    small = (CDF_GRID < 0.02) & (want > 1e-300)
    assert np.max(np.abs(got[small] / want[small] - 1.0)) <= 1e-13


@pytest.mark.parametrize("df", range(1, 9))
def test_chi2_cdf_is_elementwise_on_nd_arrays(df):
    # small-x entries off the first row and next to large ones: every
    # rung of the ladder must treat them one element at a time
    x = np.array([[3.0, 40.0, 0.5, 9.0],
                  [1e-6, 12.0, 2e-218, 0.0],
                  [7.5, 0.011, 150.0, 1e-3]])
    flat = _chi2_ladder(x.ravel(), df, 4)
    for g, want in zip(_chi2_ladder(x, df, 4), flat):
        assert g.shape == x.shape
        assert np.array_equal(g.ravel(), want)
    assert np.array_equal(chi2_cdf(x[None], df)[0], chi2_cdf(x, df))


# one x in each part of the ladder: the power series (h < 0.01, inside
# Cody's first region), the rest of his first region, his second, his third
LADDER_PARTS = (0.004, 0.2, 3.0, 40.0)


@pytest.mark.parametrize("q", range(1, 5))
def test_ladder_arrays_match_scalars_whichever_parts_they_reach(q):
    # every subset of the parts, the empty array among them, and a 2-D
    # array: CDF_GRID reaches all parts at once, so a part skipped when
    # it should run (or run on the wrong elements) would pass there
    subsets = [list(c) for k in range(len(LADDER_PARTS) + 1)
               for c in itertools.combinations(LADDER_PARTS, k)]
    arrays = [np.array(s, dtype=float) for s in subsets]
    arrays.append(np.array([[3.0, 0.004], [40.0, 0.004]]))
    for x in arrays:
        want = [_chi2_ladder(float(v), q, 4) for v in x.ravel()]
        rungs = _chi2_ladder(x, q, 4)
        assert len(rungs) == 4
        for step, g in enumerate(rungs):
            assert g.shape == x.shape
            assert np.array_equal(g.ravel(), [w[step] for w in want]), \
                (x, step)


@pytest.mark.parametrize("df", [100, 331, 999, 1000])
def test_chi2_cdf_matches_scipy_at_large_df(df):
    # e^{-x/2} is subnormal above x = 1417 and 0 above x = 1490
    x = np.concatenate([np.linspace(0.0, 2.5 * df, 1001),
                        np.linspace(1400.0, 1500.0, 401), [1600.0, 1e5]])
    got = chi2_cdf(x, df)
    assert np.max(np.abs(got - sp.gammainc(df / 2.0, x / 2.0))) <= 1e-13
    assert np.array_equal(got[::50], [chi2_cdf(float(v), df)
                                      for v in x[::50]])


def test_df_above_the_ladder_limit_is_rejected():
    with pytest.raises(ValueError, match="df must lie in"):
        chi2_cdf(1600.0, 2000)
    with pytest.raises(ValueError, match="df must lie in"):
        chi2_quantile(0.5, 1001)
    with pytest.raises(ValueError, match="df must lie in"):
        chi2_pdf(1.0, 1001)
    # the ladder's top rung counts too: expanded_cdf walks up to q + 6
    with pytest.raises(ValueError, match="df must lie in"):
        _chi2_ladder(1.0, 996, 4)
    assert len(_chi2_ladder(1.0, 994, 4)) == 4


@pytest.mark.parametrize("df", range(1, 11))
def test_chi2_quantile_matches_scipy(df):
    probs = np.concatenate([np.geomspace(1e-6, 0.5, 40),
                            1.0 - np.geomspace(1e-9, 0.5, 40)])
    for p in probs:
        got = chi2_quantile(float(p), df)
        want = sp.chdtri(df, 1.0 - p)
        assert abs(sp.chdtr(df, got) - sp.chdtr(df, want)) <= 1e-12, p


def test_chi2_quantile_cache_keeps_the_type_checks():
    chi2_quantile(0.95, 1)
    for df in (True, 1.0):
        with pytest.raises(TypeError):
            chi2_quantile(0.95, df)


@pytest.mark.parametrize("kind", (np.int32, np.int64))
def test_numpy_integer_df_gives_the_bits_of_an_int(kind):
    # the studies' integer rule: a numpy integer is one, a bool is not
    for df in (1, 2, 5):
        for f, x in ((chi2_cdf, 2.5), (chi2_pdf, 2.5), (chi2_quantile, 0.95)):
            assert f(x, kind(df)).hex() == f(x, df).hex(), (f, df)
        got = _chi2_ladder(np.array([0.5, 2.5]), kind(df), 4)
        assert np.array_equal(got, _chi2_ladder(np.array([0.5, 2.5]), df, 4))
    with pytest.raises(TypeError):
        chi2_cdf(2.5, True)


def test_scaled_tail_matches_scipy_across_cody_regions():
    # v / sqrt(2) on both sides of +-0.46875 and 4, and large; e^{v^2/2}
    # overflows far below -37
    for v in (-6.0, -0.66, -0.5, 0.0, 0.5, 0.66, 0.67, 3.0, 5.65,
              5.66, 8.0, 40.0, 1e4, 1e8):
        want = 0.5 * sp.erfcx(v / math.sqrt(2.0))
        assert abs(std_normal_tail_scaled(v) - want) <= 1e-14 * want, v
    assert std_normal_tail_scaled(-40.0) == math.inf


def test_chi2_cdf_at_origin():
    assert chi2_cdf(0.0, 1) == 0.0


def test_chi2_cdf_two_df_closed_form():
    # G_2(x) = 1 - exp(-x/2)
    assert abs(chi2_cdf(2.0 * math.log(2.0), 2) - 0.5) <= 1e-13
    for x in (0.3, 1.7, 6.0, 25.0):
        assert abs(chi2_cdf(x, 2) - (1.0 - math.exp(-0.5 * x))) <= 1e-13


def test_chi2_cdf_quantile_point():
    got = chi2_cdf(3.841459, 1)
    assert abs(got - 0.95) <= 1e-6
    assert abs(got - 0.9500000053468043) <= 1e-12   # frozen oracle value


def test_chi2_cdf_matches_oracle_on_grid():
    for q in (1, 2, 3, 5, 10):
        for x in (0.01, 0.5, 1.0, 3.0, 9.0, 30.0):
            assert abs(chi2_cdf(x, q) - chi2_cdf_oracle(x, q)) <= 1e-13


def test_chi2_cdf_rejects_bad_input():
    with pytest.raises(ValueError):
        chi2_cdf(-0.1, 1)
    with pytest.raises(ValueError):
        chi2_cdf(1.0, 0)


def test_chi2_quantile_closed_form():
    assert abs(chi2_quantile(0.5, 2) - 2.0 * math.log(2.0)) <= 1e-12


def test_chi2_quantile_fixture():
    got = chi2_quantile(0.95, 1)
    assert abs(got - 3.841459) <= 1e-5
    assert abs(got - 3.841458820694072) <= 1e-10    # frozen oracle value
    assert abs(chi2_quantile(0.99, 5) - 15.086272469389087) <= 1e-9


def test_chi2_quantile_rejects_bad_probability():
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            chi2_quantile(p, 1)


def test_quantile_roundtrip_grid():
    probs = [0.01] + [k / 20.0 for k in range(1, 20)] + [0.99]
    for df in range(1, 11):
        for p in probs:
            x = chi2_quantile(p, df)
            assert abs(chi2_cdf(x, df) - p) <= 1e-10


@settings(max_examples=80)
@given(st.floats(0.0, 60.0), st.floats(0.0, 60.0),
       st.integers(min_value=1, max_value=12))
def test_chi2_cdf_monotone_and_bounded(x1, x2, df):
    lo, hi = sorted((x1, x2))
    f_lo, f_hi = chi2_cdf(lo, df), chi2_cdf(hi, df)
    assert 0.0 <= f_lo <= f_hi <= 1.0


def test_chi2_pdf_integrates_to_cdf_increment():
    # quadrature of the density over [a, b] must reproduce G_q(b) - G_q(a);
    # start at a > 0 so the df=1 endpoint singularity never enters the grid
    x = np.linspace(0.5, 80.0, 40001)
    for q in (1, 2, 4, 7):
        y = np.array([chi2_pdf(v, q) for v in x])
        want = chi2_cdf(80.0, q) - chi2_cdf(0.5, q)
        assert abs(np.trapezoid(y, x) - want) <= 1e-6


def test_chi2_pdf_at_origin_and_below():
    # at 0 the density diverges for df = 1, is 1/2 for df = 2 and vanishes
    # above; below 0 it is refused
    assert [chi2_pdf(0.0, df) for df in (1, 2, 3)] == [math.inf, 0.5, 0.0]
    with pytest.raises(ValueError, match=r"^x must be >= 0, got -1\.0$"):
        chi2_pdf(-1.0, 3)


def test_std_normal_cdf_values():
    assert std_normal_cdf(0.0) == 0.5
    got = std_normal_cdf(1.959964)
    assert abs(got - 0.975) <= 1e-6
    assert abs(got - 0.9750000009035578) <= 1e-13   # frozen oracle value
    assert abs(std_normal_cdf(1.0) - 0.841344746068543) <= 1e-13


@settings(max_examples=80)
@given(st.floats(-8.0, 8.0))
def test_std_normal_symmetry(v):
    assert abs(std_normal_cdf(v) + std_normal_cdf(-v) - 1.0) <= 1e-14


def test_scaled_tail_consistency():
    for v in np.linspace(0.0, 8.0, 33):
        scaled = std_normal_tail_scaled(v)
        tail = std_normal_cdf(-v)
        assert abs(scaled * math.exp(-0.5 * v * v) - tail) <= 1e-10 * tail
    # moderate v: also against the quadrature oracle
    for v in (0.5, 1.0, 2.0, 4.0):
        tail_oracle = 1.0 - normal_cdf_oracle(v)
        got = std_normal_tail_scaled(v) * math.exp(-0.5 * v * v)
        assert abs(got - tail_oracle) <= 1e-8 * tail_oracle


def test_scaled_tail_stable_for_small_phi():
    # e^{v^2/2}(1 - Phi(v)) stays finite where the naive form overflows
    v = 2.0 / 0.05
    got = std_normal_tail_scaled(v)
    assert np.isfinite(got)
    # leading asymptotic 1/(v sqrt(2 pi))
    assert abs(got * v * math.sqrt(2.0 * math.pi) - 1.0) <= 1e-3
