"""Monte Carlo harness: determinism, rejection rules, failure policy."""

import math

import numpy as np
import pytest

from gradcorr.correction import expanded_cdf, modified_quantile, run_test
from gradcorr.expansion import ExpansionCoefficients
from gradcorr.models import make_model
from gradcorr.models.base import ModelFamily
import gradcorr.simulate as sim
from gradcorr.simulate import (BLOCK, PROCEDURES, SimulationConfig,
                               SimulationError, replicate_statistics,
                               run_cdf_study, run_size_study, write_cdf_csv,
                               write_size_csv)
from gradcorr.special import chi2_quantile

SEED = 20260814


def _config(**overrides):
    base = dict(model_id="exponential", theta=(1.0,), theta10=(1.0,),
                sizes=(8, 13), replicates=400, alphas=(0.05,), seed=SEED,
                procedures=("uncorrected", "corrected_statistic"))
    base.update(overrides)
    return SimulationConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(replicates=0)
    with pytest.raises(ValueError):
        _config(sizes=(1, 8))
    with pytest.raises(ValueError):
        _config(alphas=(0.0,))
    with pytest.raises(ValueError):
        _config(alphas=(1.0,))
    with pytest.raises(ValueError):
        _config(procedures=("uncorrected", "bonferroni"))
    with pytest.raises(ValueError, match="seed"):
        _config(seed=-1)
    with pytest.raises(ValueError, match="n=4294967296"):
        _config(sizes=(8, 2**32))
    assert set(_config(procedures=PROCEDURES).procedures) == set(PROCEDURES)


def test_size_study_rows_are_complete_and_consistent():
    cfg = _config(alphas=(0.05, 0.10), procedures=PROCEDURES)
    res = run_size_study(cfg)
    assert len(res.rows) == len(cfg.sizes) * len(cfg.alphas) * len(PROCEDURES)
    for row in res.rows:
        assert 0 <= row.rejections <= row.replicates
        assert abs(row.rate - row.rejections / row.replicates) <= 1e-15
        assert abs(row.distortion - (row.rate - row.alpha)) <= 1e-15
        want_se = math.sqrt(row.rate * (1.0 - row.rate) / row.replicates)
        assert abs(row.se - want_se) <= 1e-15
    assert res.failures == ((8, 0), (13, 0))


def test_zero_coefficients_make_all_procedures_identical():
    # normal with known variance has A = (0, 0, 0), so S* = S, the
    # expanded CDF is G_q, and the modified percentile is the plain one
    cfg = _config(model_id="normal-variance-known", theta=(0.0,),
                  theta10=(0.0,), sizes=(6, 11), replicates=2000,
                  alphas=(0.05, 0.10), procedures=PROCEDURES)
    res = run_size_study(cfg)
    counts = {}
    for row in res.rows:
        counts.setdefault((row.n, row.alpha), set()).add(row.rejections)
    for key, values in counts.items():
        assert len(values) == 1, f"procedures disagree at {key}: {values}"


def test_large_sample_sizes_approach_nominal_level():
    cfg = _config(sizes=(2000,), replicates=10_000,
                  procedures=("uncorrected", "corrected_statistic"))
    res = run_size_study(cfg)
    for row in res.rows:
        assert abs(row.rate - 0.05) <= 3.0 * row.se


def test_expanded_cdf_and_modified_quantile_rules_cohere():
    # the two rules are order-1/n equivalent; disagreement is only
    # possible when p_expanded sits within 10/n^2 of the level
    m = make_model("exponential")
    coef = m.specialized_coefficients(np.array([1.0]))
    n, reps = 30, 4000
    S, _ = replicate_statistics(m, [1.0], [1.0], n, reps, SEED)
    p_exp = 1.0 - expanded_cdf(S, coef, 1, n)
    for alpha in (0.05, 0.10):
        z = modified_quantile(alpha, coef, 1, n)
        decided = np.abs(p_exp - alpha) > 10.0 / n ** 2
        assert np.array_equal((p_exp < alpha)[decided], (S > z)[decided])


def test_size_study_decisions_match_run_test():
    # each rejection the study counts is the decision run_test and
    # modified_quantile reach on the same S
    model_id, theta, reps, alphas = "birnbaum-saunders", (1.0, 1.0), 600, \
        (0.01, 0.05, 0.10)
    m = make_model(model_id)
    coef = m.coefficients(np.array(theta))
    res = run_size_study(_config(model_id=model_id, theta=theta,
                                 sizes=(6, 9), replicates=reps,
                                 alphas=alphas, procedures=PROCEDURES))
    counts = {(r.n, r.alpha, r.procedure): r.rejections for r in res.rows}
    for n in (6, 9):
        S, _ = replicate_statistics(m, theta, theta[:1], n, reps, SEED)
        reports = [run_test(s, coef, 1, n) for s in S[np.isfinite(S)]]
        for alpha in alphas:
            crit = chi2_quantile(1.0 - alpha, 1)
            z = modified_quantile(alpha, coef, 1, n)
            want = {
                "uncorrected": sum(r.S > crit for r in reports),
                "corrected_statistic": sum(r.S_star > crit for r in reports),
                "expanded_cdf": sum(r.p_expanded < alpha for r in reports),
                "modified_quantile": sum(r.S > z for r in reports)}
            for proc, count in want.items():
                assert counts[(n, alpha, proc)] == count, (n, alpha, proc)


def test_cdf_study_single_replicate_is_unit_step():
    study = run_cdf_study("exponential", (1.0,), (1.0,), n=9, replicates=1,
                          seed=SEED)
    assert set(np.unique(study.f_empirical)) <= {0.0, 1.0}
    assert study.f_empirical[0] == 0.0
    assert study.f_empirical[-1] == 1.0
    jumps = np.flatnonzero(np.diff(study.f_empirical))
    assert len(jumps) == 1


def test_cdf_study_large_n_sup_norms_shrink():
    study = run_cdf_study("exponential", (1.0,), (1.0,), n=5000,
                          replicates=20_000, seed=SEED)
    assert study.sup_chisq < 0.01
    assert study.sup_expanded < 0.01


def test_cdf_study_rejects_bad_replicates():
    with pytest.raises(ValueError):
        run_cdf_study("exponential", (1.0,), (1.0,), n=9, replicates=0,
                      seed=SEED)


@pytest.mark.parametrize("seed", (-1, 2**64))
def test_cdf_study_rejects_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        run_cdf_study("exponential", (1.0,), (1.0,), n=9, replicates=10,
                      seed=seed)


def test_cdf_study_rejects_sample_size_beyond_stream_key():
    with pytest.raises(ValueError, match="n=4294967296"):
        run_cdf_study("exponential", (1.0,), (1.0,), n=2**32, replicates=1,
                      seed=SEED)


def test_replicates_are_a_prefix_of_larger_runs():
    m = make_model("birnbaum-saunders")
    small, _ = replicate_statistics(m, (1.0, 1.0), (1.0,), 6, 5000, SEED)
    large, _ = replicate_statistics(m, (1.0, 1.0), (1.0,), 6, 3 * BLOCK,
                                    SEED)
    assert np.array_equal(small, large[:5000])


def test_csvs_do_not_depend_on_row_groups(tmp_path, monkeypatch):
    cfg = _config(replicates=2 * BLOCK + 100, procedures=PROCEDURES)

    def csvs(tag):
        size, cdf = tmp_path / f"size-{tag}.csv", tmp_path / f"cdf-{tag}.csv"
        write_size_csv(run_size_study(cfg), size)
        write_cdf_csv(run_cdf_study("two-parameter-normal", (0.0, 1.0),
                                    (0.0,), n=12, replicates=3 * BLOCK,
                                    seed=SEED), cdf)
        return size.read_bytes(), cdf.read_bytes()

    monkeypatch.delenv("GRADCORR_THREADS", raising=False)
    default = csvs("default")
    # 1,000 to 1,625 rows per group: several groups per block, the last
    # one short, each continuing its block's stream
    monkeypatch.setattr(sim, "_GROUP_VALUES", 13_000)
    assert csvs("grouped") == default


@pytest.mark.parametrize("raw", ("abc", "2.5", "", "0", "-3"))
def test_worker_count_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("GRADCORR_THREADS", raw)
    with pytest.raises(ValueError, match="GRADCORR_THREADS"):
        sim._workers(10)


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
    monkeypatch.delenv("GRADCORR_THREADS", raising=False)
    assert sim._workers(10) == 1
    monkeypatch.setenv("GRADCORR_THREADS", "64")
    assert sim._workers(10) == 4
    assert sim._workers(3) == 3
    monkeypatch.setenv("GRADCORR_THREADS", "2")
    assert sim._workers(10) == 2
    assert sim._workers(1) == 1


class _FlakyModel(ModelFamily):
    """Stub whose unrestricted fit fails at a controlled rate."""

    name = "flaky-stub"

    def __init__(self, fail_every: int):
        self.fail_every = fail_every

    def sample(self, theta, size, rng):
        return rng.exponential(1.0, size=size)

    def summarize(self, x):
        return x[:, 0]

    def restricted_rows(self, m, theta10):
        return np.full((len(m), 1), theta10[0])

    def unrestricted_rows(self, m):
        fit = m[:, None].copy()
        fit[::self.fail_every] = np.nan
        return fit

    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        return 2.0 * m                  # chi-square with 2 df

    def score(self, data, theta):
        return np.array([0.0])

    def cumulants(self, theta):
        raise NotImplementedError

    def specialized_coefficients(self, theta):
        return ExpansionCoefficients(A1=0.0, A2=0.0, A3=0.0)


def test_failure_rate_above_threshold_aborts_cdf_study():
    with pytest.raises(SimulationError):
        run_cdf_study(_FlakyModel(fail_every=2), (1.0,), (1.0,), n=10,
                      replicates=200, seed=SEED)


def test_failure_rate_below_threshold_is_reported():
    study = run_cdf_study(_FlakyModel(fail_every=50), (1.0,), (1.0,), n=10,
                          replicates=200, seed=SEED)
    assert study.failures == 4
    assert study.replicates == 200


def test_failure_rate_above_threshold_aborts_size_study(monkeypatch):
    import gradcorr.simulate as sim
    monkeypatch.setattr(sim, "make_model",
                        lambda mid, **kw: _FlakyModel(fail_every=3))
    with pytest.raises(SimulationError):
        run_size_study(_config(replicates=300))


def test_size_study_deterministic_across_worker_counts(tmp_path, monkeypatch):
    cfg = _config(replicates=45_000, procedures=PROCEDURES,
                  alphas=(0.05, 0.10))
    monkeypatch.delenv("GRADCORR_THREADS", raising=False)
    serial = run_size_study(cfg)
    monkeypatch.setenv("GRADCORR_THREADS", "3")
    parallel = run_size_study(cfg)
    assert serial.rows == parallel.rows
    assert serial.failures == parallel.failures
    p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_size_csv(serial, p1)
    write_size_csv(parallel, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_cdf_study_deterministic_rerun():
    a = run_cdf_study("exponential", (1.0,), (1.0,), n=25, replicates=3000,
                      seed=SEED)
    b = run_cdf_study("exponential", (1.0,), (1.0,), n=25, replicates=3000,
                      seed=SEED)
    assert np.array_equal(a.f_empirical, b.f_empirical)
    assert a.sup_chisq == b.sup_chisq
    assert a.sup_expanded == b.sup_expanded


def test_size_csv_format(tmp_path):
    res = run_size_study(_config(replicates=50))
    path = tmp_path / "size.csv"
    write_size_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,alpha,procedure,rejections,replicates,rate,distortion,se"
    assert len(lines) == 1 + len(res.rows)
    first = lines[1].split(",")
    row = res.rows[0]
    assert first[0] == str(row.n)
    assert first[2] == row.procedure
    # 17 significant digits reproduce the doubles exactly
    assert float(first[5]) == row.rate
    assert float(first[7]) == row.se


def test_cdf_csv_format(tmp_path):
    study = run_cdf_study("exponential", (1.0,), (1.0,), n=9, replicates=500,
                          seed=SEED)
    path = tmp_path / "cdf.csv"
    write_cdf_csv(study, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,f_empirical,f_chisq,f_expanded"
    assert len(lines) == 1 + len(study.x)
    mid = lines[len(lines) // 2].split(",")
    i = len(lines) // 2 - 1
    assert float(mid[0]) == study.x[i]
    assert float(mid[1]) == study.f_empirical[i]
    assert float(mid[2]) == study.f_chisq[i]
    assert float(mid[3]) == study.f_expanded[i]
