"""Monte Carlo harness: determinism, rejection rules, failure policy."""

import math
import pickle

import numpy as np
import pytest

from gradcorr.correction import (bartlett_factors, expanded_cdf,
                                 modified_quantile, run_test)
from gradcorr.expansion import ExpansionCoefficients
from gradcorr.models import make_model
from gradcorr.models.base import ModelFamily
import gradcorr.simulate as sim
from gradcorr.simulate import (BLOCK, PROCEDURES, SimulationConfig,
                               SimulationError, replicate_statistics,
                               run_cdf_study, run_size_study, write_cdf_csv,
                               write_size_csv)
from gradcorr.special import chi2_cdf, chi2_quantile

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
    # 1 - 1e-17 rounds to 1.0: refused here, before any draw, not by the
    # chi-square quantile once the first solve has been fit
    with pytest.raises(ValueError, match=r"^levels must lie in \(0,1\), "
                       r"with 1 - level below 1 in floating point, "
                       r"got \(0\.05, 1e-17\)$"):
        _config(alphas=(0.05, 1e-17))
    with pytest.raises(ValueError):
        _config(procedures=("uncorrected", "bonferroni"))
    with pytest.raises(ValueError, match="seed"):
        _config(seed=-1)
    with pytest.raises(ValueError, match="n=4294967296"):
        _config(sizes=(8, 2**32))
    with pytest.raises(ValueError, match=r"integers >= 2, got \(\)"):
        _config(sizes=())
    assert set(_config(procedures=PROCEDURES).procedures) == set(PROCEDURES)


@pytest.mark.parametrize("field, values", (
    ("sizes", (8, 8)), ("sizes", (8, 13, 8)), ("alphas", (0.05, 0.05)),
    ("procedures", ("uncorrected", "corrected_statistic", "uncorrected"))))
def test_config_rejects_repeated_values(field, values):
    # a repeated size would count its replicates twice in each of its
    # rows (24 of 400 reported as 48); a repeated level or procedure
    # would write the same rows twice
    with pytest.raises(ValueError, match="must not repeat"):
        _config(**{field: values})


def test_configs_hash_by_value():
    # the constants dict takes no part in the hash, but still in equality
    a, b = _config(), _config(sizes=[8, 13])
    assert a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1
    known = [_config(model_id="gamma-rate", constants=dict(k=k))
             for k in (1.0, 2.0)]
    assert known[0] != known[1]
    assert len({c: None for c in known}) == 2


def test_size_study_reuses_the_config_coefficients(monkeypatch):
    # the config evaluates the null coefficients for their overflow check
    # and keeps them outside its fields; the study does not evaluate them
    # again
    cfg = _config(model_id="birnbaum-saunders", theta=(1.0, 1.0))
    calls = []
    coefficients = ModelFamily.coefficients

    def counted(self, theta):
        calls.append(theta)
        return coefficients(self, theta)

    monkeypatch.setattr(ModelFamily, "coefficients", counted)
    result = run_size_study(cfg)
    assert result == run_size_study(pickle.loads(pickle.dumps(cfg)))
    assert calls == []
    assert "_coefficients" not in repr(cfg)
    assert _config(model_id="birnbaum-saunders", theta=(1.0, 1.0)) == cfg
    assert len(calls) == 1


_BAD_INPUTS = (
    ("exponential", dict(theta=(1.0, 2.0)),
     "theta must have 1 value(s) for exponential, got 2"),
    ("birnbaum-saunders", dict(theta=(1.0,)),
     "theta must have 2 value(s) for birnbaum-saunders, got 1"),
    ("exponential", dict(theta10=(1.0, 2.0)),
     "theta10 must have 1 value(s) for exponential, got 2"),
    ("birnbaum-saunders", dict(theta10=(1.0, 1.0)),
     "theta10 must have 1 value(s) for birnbaum-saunders, got 2"),
    *(("exponential", dict(n=n),
       f"sample sizes must be integers >= 2, got ({n},)")
      for n in (0, -3, 1, 5.7, 9.5, True)),
    ("exponential", dict(n=2**32),
     "sample size n=4294967296 must be below 2**32"),
    *(("exponential", dict(replicates=r),
       f"replicates must be an integer >= 1, got {r!r}")
      for r in (0, True, 10.5)),
    *(("exponential", dict(seed=s),
       f"seed must be a 64-bit integer, got {s!r}")
      for s in (-1, 2**64, 3.0, True)),
)


@pytest.mark.parametrize("model_id, bad, message", _BAD_INPUTS,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_every_study_entry_rejects_bad_input_alike(model_id, bad, message):
    # a size study's config, the CDF study and replicate_statistics check
    # their inputs through the same code, so each fault reads the same
    m = make_model(model_id)
    args = dict(theta=(1.0,) * m.p, theta10=(1.0,), n=6, replicates=10,
                seed=SEED)
    args.update(bad)
    calls = {
        "SimulationConfig": lambda: SimulationConfig(
            model_id=model_id, theta=args["theta"], theta10=args["theta10"],
            sizes=(args["n"],), replicates=args["replicates"],
            seed=args["seed"]),
        "run_cdf_study": lambda: run_cdf_study(m, **args),
        "replicate_statistics": lambda: replicate_statistics(m, **args),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message, name


def test_numpy_integer_study_inputs_are_accepted():
    cfg = _config(sizes=np.array([8, 13]), replicates=np.int64(400),
                  seed=np.uint64(SEED))
    assert cfg == _config()
    assert all(type(v) is int for v in (*cfg.sizes, cfg.replicates,
                                        cfg.seed))
    m = make_model("exponential")
    a, _ = replicate_statistics(m, (1.0,), (1.0,), np.int32(9),
                                np.int64(50), np.uint64(SEED))
    b, _ = replicate_statistics(m, (1.0,), (1.0,), 9, 50, SEED)
    assert np.array_equal(a, b)
    study = run_cdf_study(m, np.array([1.0]), np.float64(1.0), n=np.int64(9),
                          replicates=np.int16(50), seed=np.int64(SEED))
    assert (study.n, study.replicates) == (9, 50)
    assert np.array_equal(study.counts, run_cdf_study(
        m, (1.0,), (1.0,), n=9, replicates=50, seed=SEED).counts)


@pytest.mark.parametrize("sizes, reps", (
    ((8,), 1), ((5, 6, 7), 500), ((13, 6, 9), BLOCK + 300),
    ((6, 9), 3 * BLOCK), ((6, 7, 8, 9), 2 * BLOCK - 1),
    ((100, 7, 30), BLOCK + 10)))
def test_count_groups_cover_every_piece_in_order(sizes, reps):
    # the solves' runs cover every block's rows, sizes in config order and
    # blocks in order within a size, each block's S what one draw of the
    # whole block from its stream gives, whatever solves it is split over
    m = make_model("exponential")
    solves = list(sim._solves(m, (1.0,), (1.0,), SEED, sizes, reps))
    full, tail = divmod(reps, BLOCK)
    blocks = [BLOCK] * full + [tail] * (tail > 0)
    want = [m.batch_statistics(m.sample((1.0,), (rows, n), np.random.Generator(
        np.random.Philox(key=[SEED, (n << 32) | block]))), (1.0,))[0]
        for n in sizes for block, rows in enumerate(blocks)]
    assert np.array_equal(np.concatenate([S for _, S in solves]),
                          np.concatenate(want))
    runs = [run for r, _ in solves for run in r]
    assert [i for i, _ in runs] == sorted(i for i, _ in runs)
    assert [sum(k for j, k in runs if j == i) for i in range(len(sizes))] \
        == [reps] * len(sizes)
    # each solve holds its runs' rows, at most _GROUP_VALUES values (or a
    # single row), and fewer than BLOCK replicates before its last run
    for r, S in solves:
        assert len(S) == sum(k for _, k in r)
        assert sum(k * sizes[i] for i, k in r) <= sim._GROUP_VALUES \
            or len(S) == 1
        assert len(S) - r[-1][1] < BLOCK


def _solve_rows(monkeypatch, model):
    """The rows of each batch_statistics call that model's family makes."""
    family, rows = type(model), []
    batch = family.batch_statistics

    def counted(self, data, theta10):
        rows.append(sum(len(x) for x in data))
        return batch(self, data, theta10)

    monkeypatch.setattr(family, "batch_statistics", counted)
    return rows


def test_cdf_study_solves_one_block_at_a_time(monkeypatch):
    rows = _solve_rows(monkeypatch, make_model("exponential"))
    run_cdf_study("exponential", (1.0,), (1.0,), n=10, replicates=10_000,
                  seed=SEED)
    assert rows == [BLOCK, BLOCK, 1808]


def test_long_blocks_split_at_the_value_cap(monkeypatch):
    # at n = 100 a solve holds at most 98,304 // 100 = 983 rows; the
    # first block's 164-row tail shares a solve with the second block,
    # and each block's stream continues across its solves
    m = make_model("birnbaum-saunders")
    blocks = [m.batch_statistics(m.sample((1.0, 1.0), (k, 100),
                                          np.random.Generator(np.random.Philox(
                                              key=[SEED, (100 << 32) | b]))),
                                 (1.0,))[0]
              for b, k in enumerate((BLOCK, 100))]
    rows = _solve_rows(monkeypatch, m)
    S, _ = replicate_statistics(m, (1.0, 1.0), (1.0,), 100, BLOCK + 100,
                                SEED)
    assert rows == [983] * 4 + [164 + 100]
    assert np.array_equal(S, np.concatenate(blocks), equal_nan=True)


def test_size_study_builds_bartlett_factors_once_per_count_group(monkeypatch):
    # 18 sizes of 500 replicates fill two solves of at least 4,096
    calls = []

    def counted(*args):
        calls.append(args)
        return bartlett_factors(*args)

    monkeypatch.setattr(sim, "bartlett_factors", counted)
    run_size_study(_config(model_id="birnbaum-saunders", theta=(1.0, 1.0),
                           sizes=tuple(range(5, 23)), replicates=500,
                           alphas=(0.01, 0.05, 0.10), procedures=PROCEDURES))
    assert len(calls) == 2
    assert [sorted(set(n.tolist())) for _, _, n in calls] == [
        list(range(5, 14)), list(range(14, 23))]


def test_size_study_fits_once_per_count_group(monkeypatch):
    # the benchmark's study: each solve of 9 sizes x 500 replicates is
    # one batch fit (estimates on per-row arrays) over all its rows
    bs, calls = type(make_model("birnbaum-saunders")), []
    estimates = bs.estimates

    def counted(self, m, theta10):
        if isinstance(m[1], np.ndarray):
            calls.append(np.unique(m[0]).tolist())
        return estimates(self, m, theta10)

    monkeypatch.setattr(bs, "estimates", counted)
    run_size_study(_config(model_id="birnbaum-saunders", theta=(1.0, 1.0),
                           sizes=tuple(range(5, 23)), replicates=500,
                           alphas=(0.01, 0.05, 0.10), procedures=PROCEDURES))
    assert calls == [list(range(5, 14)), list(range(14, 23))]


@pytest.mark.parametrize("route", ("specialized_coefficients",
                                   "general_coefficients"))
@pytest.mark.parametrize("model_id", ("two-parameter-normal",
                                      "two-sample-exponential",
                                      "birnbaum-saunders"))
def test_null_coefficients_do_not_depend_on_the_nuisance(model_id, route):
    # a study evaluates the A's once, with the nuisance at its configured
    # value, in place of the plug-in at each replicate's restricted MLE:
    # exact only while the A's do not move with the nuisance
    m = make_model(model_id)
    for phi in (0.3, 1.0, 2.5):
        A = [(c.A1, c.A2, c.A3) for c in (
            getattr(m, route)(np.array([phi, nuisance]))
            for nuisance in (0.01, 1.0, 37.0))]
        gap = max(abs(a - b) / max(abs(a), 1.0)
                  for other in A[1:] for a, b in zip(A[0], other))
        assert gap <= 1e-12, (f"{model_id}: the A's at phi = {phi} move "
                              f"with the nuisance by {gap:.3g}")


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


def test_size_study_decisions_match_run_test(monkeypatch):
    # each rejection the study counts is the decision run_test and
    # modified_quantile reach on the same S; sizes out of order and a
    # replicate count off the block size make solves that hold a
    # size's 300-replicate tail with the next size's full block
    model_id, theta, alphas = "birnbaum-saunders", (1.0, 1.0), \
        (0.01, 0.05, 0.10)
    sizes, reps = (13, 6, 9), BLOCK + 300
    m = make_model(model_id)
    coef = m.coefficients(np.array(theta))
    solved = []

    def counted(*args):
        solved.append(set(args[2].tolist()))
        return bartlett_factors(*args)

    monkeypatch.setattr(sim, "bartlett_factors", counted)
    res = run_size_study(_config(model_id=model_id, theta=theta,
                                 sizes=sizes, replicates=reps,
                                 alphas=alphas, procedures=PROCEDURES))
    assert solved == [{13}, {13, 6}, {6, 9}, {9}]
    counts = {(r.n, r.alpha, r.procedure): r.rejections for r in res.rows}
    assert [r.n for r in res.rows[::len(alphas) * len(PROCEDURES)]] == \
        list(sizes)
    for n in sizes:
        S, failed = replicate_statistics(m, theta, theta[:1], n, reps, SEED)
        assert (n, failed) in res.failures
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

    default = csvs("default")
    # 1,000 to 1,625 rows per solve: several solves per block, each
    # continuing its block's stream, and a block's tail sharing a solve
    # with the head of the next; and solves of 50,000 values, one of which
    # holds the 100-row tail at n = 8 and the first 3,784 rows of a block
    # at n = 13, the next the rest of that block
    for values in (13_000, 50_000):
        monkeypatch.setattr(sim, "_GROUP_VALUES", values)
        assert csvs(f"grouped-{values}") == default


class _FlakyModel(ModelFamily):
    """Stub whose unrestricted fit fails at a controlled rate."""

    name = "flaky-stub"

    def __init__(self, fail_every: int):
        self.fail_every = fail_every

    def sample(self, theta, size, rng):
        return rng.exponential(1.0, size=size)

    def summarize(self, x):
        return x.shape[1], x[:, 0]

    def estimates(self, m, theta10):
        ok = np.arange(len(m[1])) % self.fail_every != 0
        return ((theta10[0],), True), ((m[1],), ok)

    def raw_statistic(self, m, theta10, theta_tilde, theta_hat):
        return 2.0 * m[1]               # chi-square with 2 df

    def cumulants(self, theta):
        raise NotImplementedError

    def specialized_coefficients(self, theta):
        return ExpansionCoefficients(A1=0.0, A2=0.0, A3=0.0)


def test_failure_rate_above_threshold_aborts_cdf_study():
    with pytest.raises(SimulationError,
                       match=r"^100 of 200 fits failed at n=10 \(> 5%\)$"):
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
    with pytest.raises(SimulationError,
                       match=r"^100 of 300 fits failed at n=8 \(> 5%\)$"):
        run_size_study(_config(replicates=300))


def test_cdf_study_reduces_its_groups_in_order():
    # a one-parameter family holds lambdas and does not pickle, yet runs a
    # study of three solves; failures add up over the solves, and
    # replicate r is row r % BLOCK of block r // BLOCK, drawn from the
    # block's own stream
    model = make_model("exponential")
    with pytest.raises(AttributeError):
        pickle.dumps(model)
    args = (1.0,), (1.0,), 10, 3 * BLOCK, SEED
    studies = [run_cdf_study(model, *args),
               run_cdf_study(_FlakyModel(fail_every=50), *args)]
    assert [s.failures for s in studies] == [0, 3 * 82]
    with pytest.raises(SimulationError) as failed:
        run_cdf_study(_FlakyModel(fail_every=2), *args)
    assert str(failed.value) == "6144 of 12288 fits failed at n=10 (> 5%)"
    S, failures = replicate_statistics(model, *args)
    blocks = [model.batch_statistics(
        model.sample((1.0,), (BLOCK, 10), np.random.Generator(
            np.random.Philox(key=[SEED, (10 << 32) | block]))), (1.0,))[0]
        for block in range(3)]
    assert failures == 0 and np.array_equal(S, np.concatenate(blocks))


def test_size_study_deterministic_across_runs(tmp_path):
    cfg = _config(replicates=45_000, procedures=PROCEDURES,
                  alphas=(0.05, 0.10))
    first, second = run_size_study(cfg), run_size_study(cfg)
    assert first.rows == second.rows
    assert first.failures == second.failures
    p1, p2 = tmp_path / "first.csv", tmp_path / "second.csv"
    write_size_csv(first, p1)
    write_size_csv(second, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _brute_sup_distances(S, coef, q, n):
    """Both sup distances of the sorted sample S from whole-sample CDFs."""
    i = np.arange(len(S))
    return tuple(max(np.max(cdf - i / len(S)), np.max((i + 1) / len(S) - cdf))
                 for cdf in (chi2_cdf(S, q), expanded_cdf(S, coef, q, n)))


@pytest.mark.parametrize("model_id, n, reps", [
    # the expanded CDF is not monotone at n = 2 and 3
    ("birnbaum-saunders", 2, 4097), ("birnbaum-saunders", 3, 4095),
    ("birnbaum-saunders", 10, 2 * BLOCK + 50),
    ("normal-variance-known", 10, 2000),           # every A is 0
    *[("exponential", 10, reps)
      for reps in (1, 2, 15, 16, 17, BLOCK - 1, BLOCK + 1)]])
def test_cdf_study_sup_distances_are_exact(model_id, n, reps):
    # the coarse pass and the refined intervals give the sup distances
    # that whole-sample CDF calls give
    m = make_model(model_id)
    theta = tuple(m.default_theta)
    study = run_cdf_study(m, theta, theta[:m.q], n=n, replicates=reps,
                          seed=SEED)
    S, _ = replicate_statistics(m, theta, theta[:m.q], n, reps, SEED)
    S = np.sort(S[np.isfinite(S)])
    assert ((study.sup_chisq, study.sup_expanded)
            == _brute_sup_distances(S, study.coefficients, m.q, n))


def _bumps():
    # chi-square quantiles at (i + 1/2)/64, with S[20] moved up next to
    # S[21] and S[45] down next to S[44]: both distances peak there
    S = np.array([chi2_quantile((i + 0.5) / 64, 1) for i in range(64)])
    S[20], S[45] = S[21] * (1 - 1e-9), S[44] * (1 + 1e-9)
    return S


def _peak():
    # with A = (0, 30, 0) at n = 1 the expanded CDF rises to 1.088 at
    # x = 1.10 and falls again: S[0..31] sit next to 0, S[32] before the
    # peak, S[33] on it, S[34..48] beyond it and S[49..63] far out.  The
    # expanded distance peaks at S[33], just above its value at S[32]; the
    # coarse interval (32, 48) holds it only by the bound that takes each
    # rung at the end the sign of its R_i picks, and the chi-square
    # distance, largest in the cluster, does not open that interval
    return np.concatenate([np.linspace(1e-12, 1e-11, 32), [0.8, 1.1],
                           np.linspace(1.2, 1.45, 15),
                           np.linspace(10.0, 20.0, 15)])


@pytest.mark.parametrize("S, coef, n, inside", [
    (_bumps(), make_model("birnbaum-saunders").coefficients(
        np.array([1.0, 1.0])), 3, (0, 1)),
    (_peak(), ExpansionCoefficients(0.0, 30.0, 0.0), 1, (1,))],
    ids=("bumps", "peak"))
def test_sup_distances_find_a_maximum_inside_a_coarse_interval(S, coef, n,
                                                               inside):
    # inside: the distances (G_q, expanded) whose sup lies strictly inside
    # a coarse interval, away from the coarse points 0, 16, 32, 48 and 63
    i, m = np.arange(len(S)), len(S)
    for k in inside:
        cdf = (chi2_cdf(S, 1), expanded_cdf(S, coef, 1, n))[k]
        top = np.argmax(np.maximum(cdf - i / m, (i + 1) / m - cdf))
        assert top % sim._STRIDE and top != m - 1
    assert sim._sup_distances(S, coef, 1, n) == _brute_sup_distances(
        S, coef, 1, n)


def test_cdf_study_evaluates_few_ladder_points(monkeypatch):
    # the coarse pass and the refined intervals evaluate about 1,200 of
    # the 10,000 sorted values; a fall back to every value would fail here
    values = []

    def counted(x, q, steps):
        values.append(np.size(x))
        return ladder(x, q, steps)

    ladder = sim._chi2_ladder
    monkeypatch.setattr(sim, "_chi2_ladder", counted)
    run_cdf_study("exponential", (1.0,), (1.0,), n=10, replicates=10_000,
                  seed=SEED)
    assert 0 < sum(values) <= 3000


def test_sup_distances_refine_in_block_sized_ladders(monkeypatch):
    # S at the chi-square quantiles (i + 1/2)/m: every coarse interval's
    # bound reaches the largest distance, so every inner value is refined,
    # each once, in ladders of at most BLOCK values
    m, n = 20_000, 10
    S = np.array([chi2_quantile((i + 0.5) / m, 1) for i in range(m)])
    coef = make_model("exponential").coefficients(np.array([1.0]))
    evaluated = []

    def counted(x, q, steps):
        evaluated.append(x)
        return ladder(x, q, steps)

    ladder = sim._chi2_ladder
    monkeypatch.setattr(sim, "_chi2_ladder", counted)
    assert sim._sup_distances(S, coef, 1, n) == _brute_sup_distances(
        S, coef, 1, n)
    assert np.array_equal(np.sort(np.concatenate(evaluated)), S)
    inner = m - len(evaluated[0])
    assert len(evaluated) == 1 + -(-inner // BLOCK) > 2
    assert max(map(len, evaluated[1:])) <= BLOCK


def test_sorted_quantile_is_numpys_quantile():
    # the grid end reads the 0.999 quantile off the sorted S by numpy's
    # linear rule instead of partitioning S again: the same value to the
    # bit, at every sample size and scale
    rng = np.random.default_rng(SEED)
    for m in [*range(1, 3000), 10**4, 10**5, 2 * 10**5]:
        for scale in (1e-300, 1.0, 1e300):
            S = np.sort(rng.standard_normal(m)) * scale
            for p in (0.999, 0.5):
                want = float(np.quantile(S, p))
                assert sim._sorted_quantile(S, p).hex() == want.hex(), \
                    (m, scale, p)


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
