"""End-to-end acceptance checks.

Each test carries its published tolerance; Monte Carlo runs are seeded
through the harness's counter-based streams so every number here is
reproducible bit for bit.
"""

import math

import numpy as np
import pytest
from scipy import special as sp

from gradcorr.correction import approximate_moments, bartlett_factors
from gradcorr.models import make_model
from gradcorr.simulate import (SimulationConfig, replicate_statistics,
                               run_cdf_study, run_size_study, write_cdf_csv,
                               write_size_csv)
from helpers import cancellation_derivative
from conftest import MODEL_IDS

SEED = 20260814


def _close(got, want, rel):
    return abs(got - want) <= rel * max(1.0, abs(want))


# --- 1: printed coefficient tables ------------------------------------
#
# The printed (A1, A2, A3) rows, checked against the specialized route
# (the closed forms ``ModelFamily.coefficients`` takes) and the general
# engine.  The Birnbaum-Saunders row is a formula in the shape, kept as
# ``oracles.birnbaum_saunders_coefficients``.

COEFF_ROWS = [
    ("exponential", {}, (1.0,), (0.0, 18.0, 20.0)),
    ("normal-mean-known", {}, (1.0,), (0.0, 36.0, 40.0)),
    ("normal-variance-known", {}, (0.0,), (0.0, 0.0, 0.0)),
    ("inverse-normal", {"known": "mean", "mu": 1.0}, (1.0,),
     (24.0, 30.0, 10.0)),
    ("inverse-normal", {"known": "mean", "mu": 3.0}, (2.0,),
     (24.0, 30.0, 10.0)),
    ("inverse-normal", {"known": "shape", "shape": 1.0}, (1.0,),
     (0.0, 45.0, 45.0)),
    ("inverse-normal", {"known": "shape", "shape": 2.0}, (3.0,),
     (0.0, 67.5, 67.5)),
    ("gamma-rate", {"k": 1.0}, (1.0,), (12.0, 15.0, 5.0)),
    ("gamma-rate", {"k": 2.0}, (1.5,), (6.0, 7.5, 2.5)),
    # printed as (0, 12, 20); in phi the family is the exponential in
    # expm1(x), so its row is the exponential one
    ("truncated-extreme-value", {}, (1.0,), (0.0, 18.0, 20.0)),
    ("pareto-shape", {"k": 2.0}, (1.0,), (12.0, 15.0, 5.0)),
    ("power-shape", {"theta": 2.0}, (1.0,), (12.0, 15.0, 5.0)),
    ("laplace-scale", {}, (1.0,), (0.0, 18.0, 20.0)),
    ("two-parameter-normal", {}, (0.0, 1.0), (0.0, -18.0, 0.0)),
    ("two-sample-exponential", {}, (1.0, 1.0), (24.0, 63.0, 45.0)),
    ("pareto-shape", {}, (1.0,), (12.0, 15.0, 5.0)),
    ("power-shape", {}, (1.0,), (12.0, 15.0, 5.0)),
]

IDS = [f"{row[0]}-{i}" for i, row in enumerate(COEFF_ROWS)]


@pytest.mark.parametrize("model_id,constants,theta,want", COEFF_ROWS, ids=IDS)
def test_criterion_1_closed_route(model_id, constants, theta, want):
    m = make_model(model_id, **constants)
    got = m.specialized_coefficients(np.array(theta)).as_tuple()
    for g, w in zip(got, want):
        assert _close(g, w, 1e-12)


@pytest.mark.parametrize("model_id,constants,theta,want", COEFF_ROWS, ids=IDS)
def test_criterion_1_general_engine(model_id, constants, theta, want):
    m = make_model(model_id, **constants)
    got = m.general_coefficients(np.array(theta)).as_tuple()
    for g, w in zip(got, want):
        assert _close(g, w, 1e-8)


def test_criterion_1_birnbaum_saunders_closed_route():
    m = make_model("birnbaum-saunders")
    for phi in (0.5, 1.0, 2.0):
        c = m.specialized_coefficients(np.array([phi, 1.0]))
        assert _close(c.A1_phi, -3.0, 1e-12)
        assert _close(c.A2_phi, 69.0 / 8.0, 1e-12)
        assert _close(c.A3, 125.0 / 8.0, 1e-12)


def test_criterion_1_birnbaum_saunders_engine():
    m = make_model("birnbaum-saunders")
    for phi in (0.5, 1.0, 2.0):
        theta = np.array([phi, 1.0])
        split = m.specialized_coefficients(theta)
        assert _close(split.A1_phi, -3.0, 1e-8)
        assert _close(split.A2_phi, 69.0 / 8.0, 1e-8)
        assert _close(m.general_coefficients(theta).A3, 125.0 / 8.0, 1e-8)


# --- 2: printed corrected-statistic polynomials ------------------------

POLY_ROWS = [
    # (model, constants, theta, (c0, c1, c2) with poly = (c0+c1*S+c2*S^2)/n)
    ("exponential", {}, (1.0,), (3 / 18, -11 / 18, 2 / 18)),
    ("inverse-normal", {"known": "mean", "mu": 2.0}, (1.0,),
     (6 / 18, 5 / 18, 1 / 18)),
    ("gamma-rate", {"k": 3.0}, (1.0,), (6 / 108, 5 / 108, 1 / 108)),
    ("pareto-shape", {"k": 2.0}, (1.0,), (6 / 36, 5 / 36, 1 / 36)),
    ("laplace-scale", {}, (1.0,), (3 / 18, -11 / 18, 2 / 18)),
    ("normal-mean-known", {}, (1.0,), (1 / 3, -11 / 9, 2 / 9)),
    ("inverse-normal", {"known": "shape", "shape": 2.0}, (3.0,),
     (0.0, -15 / 8, 3 / 8)),
    # printed as (12/18, -15/18, 2/18), whose b contradicts the printed
    # A2 = 12 (that gives -14/18); the row (0, 18, 20) gives the exponential
    # polynomial
    ("truncated-extreme-value", {}, (1.0,), (3 / 18, -11 / 18, 2 / 18)),
    ("two-parameter-normal", {}, (0.0, 1.0), (3 / 2, -1 / 2, 0.0)),
    ("two-sample-exponential", {}, (1.0, 1.0), (2 / 4, -3 / 4, 1 / 4)),
]


@pytest.mark.parametrize("model_id,constants,theta,poly", POLY_ROWS,
                         ids=[f"{r[0]}-{i}" for i, r in enumerate(POLY_ROWS)])
def test_criterion_2_correction_polynomials(model_id, constants, theta, poly):
    m = make_model(model_id, **constants)
    coef = m.coefficients(np.array(theta))
    c0, c1, c2 = poly
    for n in (7, 20, 113):
        f = bartlett_factors(coef, m.q, n)
        assert abs(f.c - c0 / n) <= 1e-12
        assert abs(f.b - c1 / n) <= 1e-12
        assert abs(f.a - c2 / n) <= 1e-12


# --- 3: exponential exact moments --------------------------------------

def test_criterion_3_exponential_exact_moments():
    m = make_model("exponential")
    n, reps = 10, 1_000_000
    S, failed = replicate_statistics(m, [1.0], [1.0], n, reps, SEED)
    assert failed == 0
    m1 = S.mean()
    c = S - m1
    m2 = float(np.mean(c ** 2))
    m3 = float(np.mean(c ** 3))
    m4 = float(np.mean(c ** 4))
    m6 = float(np.mean(c ** 6))
    se1 = S.std(ddof=1) / math.sqrt(reps)
    se2 = math.sqrt((m4 - m2 ** 2) / reps)
    se3 = math.sqrt((m6 - m3 ** 2 - 6.0 * m4 * m2 + 9.0 * m2 ** 3) / reps)
    exact = (1.0, 2.0 + 6.0 / n, 8.0 + 112.0 / n + 120.0 / n ** 2)
    assert abs(m1 - exact[0]) <= 3.0 * se1
    assert abs(m2 - exact[1]) <= 3.0 * se2
    assert abs(m3 - exact[2]) <= 3.0 * se3
    # the order-1/n approximations miss the exact values only at n^-2
    coef = m.specialized_coefficients(np.array([1.0]))
    approx = approximate_moments(coef, 1, n)
    assert approx == (1.0, 2.6, 19.2)
    gaps = tuple(e - a for e, a in zip(exact, approx))
    assert abs(gaps[0]) <= 1e-12
    assert abs(gaps[1]) <= 1e-12
    assert abs(gaps[2] - 120.0 / n ** 2) <= 1e-9


# --- 4: two-parameter normal exact law ---------------------------------

def test_criterion_4_scaled_statistic_beta_law():
    m = make_model("two-parameter-normal")
    n, reps = 12, 100_000
    S, failed = replicate_statistics(m, [0.0, 1.0], [0.0], n, reps, SEED)
    assert failed == 0
    u = np.sort(S / n)
    cdf = sp.betainc(0.5, (n - 1) / 2.0, u)
    k = np.arange(1, reps + 1)
    ks = max(np.max(k / reps - cdf), np.max(cdf - (k - 1) / reps))
    assert ks < 1.62762 / math.sqrt(reps)   # 1% critical value


# --- 5: size distortions shrink under the correction --------------------

BS_SIZE_CONFIG = SimulationConfig(
    model_id="birnbaum-saunders", theta=(1.0, 1.0), theta10=(1.0,),
    sizes=tuple(range(5, 23)), replicates=10_000, alphas=(0.05,),
    seed=SEED, procedures=("uncorrected", "corrected_statistic"))


@pytest.fixture(scope="module")
def bs_size_study():
    return run_size_study(BS_SIZE_CONFIG)


def test_criterion_5_corrected_distortion_smaller(bs_size_study):
    dist = {(r.n, r.procedure): abs(r.distortion) for r in bs_size_study.rows}
    wins = sum(dist[(n, "corrected_statistic")] < dist[(n, "uncorrected")]
               for n in BS_SIZE_CONFIG.sizes)
    assert len(BS_SIZE_CONFIG.sizes) == 18
    assert wins >= 15, f"corrected test wins only {wins}/18 grid points"


# --- 6: expanded CDF beats the first-order CDF at n = 10 ----------------

@pytest.fixture(scope="module")
def bs_cdf_study():
    return run_cdf_study("birnbaum-saunders", (1.0, 1.0), (1.0,), n=10,
                         replicates=100_000, seed=SEED)


def test_criterion_6_expanded_cdf_closer(bs_cdf_study):
    assert bs_cdf_study.sup_expanded < bs_cdf_study.sup_chisq


# --- 7: first-order cancellation for every built-in ----------------------

@pytest.mark.parametrize("model_id", MODEL_IDS)
@pytest.mark.parametrize("gamma", (0.01, 0.05, 0.10))
def test_criterion_7_first_order_cancellation(model_id, gamma):
    m = make_model(model_id)
    coef = m.specialized_coefficients(np.asarray(m.default_theta, float))
    assert abs(cancellation_derivative(coef, m.q, gamma)) <= 1e-6


# --- 8: byte-identical CSV artifacts, thread-count independent ------------

def test_criterion_8_determinism(tmp_path, monkeypatch, bs_size_study,
                                 bs_cdf_study):
    runs = {
        "moments": lambda: run_cdf_study("exponential", (1.0,), (1.0,),
                                         n=10, replicates=1_000_000,
                                         seed=SEED),
        "beta-law": lambda: run_cdf_study("two-parameter-normal", (0.0, 1.0),
                                          (0.0,), n=12, replicates=100_000,
                                          seed=SEED),
        "bs-size": lambda: run_size_study(BS_SIZE_CONFIG),
        "bs-cdf": lambda: run_cdf_study("birnbaum-saunders", (1.0, 1.0),
                                        (1.0,), n=10, replicates=100_000,
                                        seed=SEED),
    }

    def to_csv(name, result, tag):
        path = tmp_path / f"{name}-{tag}.csv"
        if name == "bs-size":
            write_size_csv(result, path)
        else:
            write_cdf_csv(result, path)
        return path.read_bytes()

    monkeypatch.delenv("GRADCORR_THREADS", raising=False)
    serial = {}
    for name, fn in runs.items():
        # reuse the module-scoped serial results where they exist
        if name == "bs-size":
            serial[name] = to_csv(name, bs_size_study, "serial")
        elif name == "bs-cdf":
            serial[name] = to_csv(name, bs_cdf_study, "serial")
        else:
            serial[name] = to_csv(name, fn(), "serial")

    monkeypatch.setenv("GRADCORR_THREADS", "2")
    for name, fn in runs.items():
        assert to_csv(name, fn(), "threaded") == serial[name], \
            f"{name}: output differs across thread counts"
