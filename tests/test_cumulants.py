"""Cumulant bundles, mixed-cumulant recovery, and information geometry."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcorr.cumulants import (CumulantBundle, HypothesisSpec,
                                IllConditionedInformationError,
                                build_geometry, derive_mixed_cumulants)
from gradcorr.models import make_model
from oracles import (BUNDLE_LAYOUT, bundle_error, bundle_to_float_arrays,
                     random_integer_bundle)


def _bundle(p, kappa2=None, **overrides):
    """Minimal valid bundle: kappa2 = -I, everything else zero."""
    arrays = dict(
        kappa2=-np.eye(p) if kappa2 is None else np.asarray(kappa2, float),
        kappa3=np.zeros((p, p, p)),
        kappa4=np.zeros((p, p, p, p)),
        d_kappa2=np.zeros((p, p, p)),
        d_kappa3=np.zeros((p, p, p, p)),
        dd_kappa2=np.zeros((p, p, p, p)),
    )
    arrays.update(overrides)
    return CumulantBundle(**arrays)


def test_hypothesis_spec_validation():
    HypothesisSpec(p=3, q=2)
    with pytest.raises(ValueError):
        HypothesisSpec(p=2, q=0)
    with pytest.raises(ValueError):
        HypothesisSpec(p=2, q=3)
    with pytest.raises(ValueError):
        HypothesisSpec(p=3, q=2, theta10=(1.0,))


@pytest.mark.parametrize("p, q", ((2, 1.5), (2, True), (2.0, 1),
                                  (True, 1)))
def test_hypothesis_spec_refuses_a_dimension_that_is_no_integer(p, q):
    # q = 1.5 used to fail inside build_geometry, and q = True to pass
    with pytest.raises(TypeError, match="must be integers"):
        HypothesisSpec(p=p, q=q)


def test_bundle_rejects_bad_shape():
    with pytest.raises(ValueError):
        _bundle(2, kappa3=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        _bundle(2, kappa4=np.zeros((2, 2, 2)))


def test_bundle_rejects_broken_symmetry():
    bad3 = np.zeros((2, 2, 2))
    bad3[0, 1, 0] = 1.0     # kappa3 must be fully symmetric
    with pytest.raises(ValueError):
        _bundle(2, kappa3=bad3)
    badd = np.zeros((2, 2, 2, 2))
    badd[0, 0, 0, 1] = 1.0  # dd_kappa2 symmetric in its last two axes
    with pytest.raises(ValueError):
        _bundle(2, dd_kappa2=badd)
    # p = 7 and 8 lie beyond every built-in family (p <= 6)
    for p in (7, 8):
        bad4 = np.zeros((p, p, p, p))
        bad4[1, 2, 3, p - 1] = 1.0  # kappa4 must be fully symmetric
        with pytest.raises(ValueError, match="kappa4 violates"):
            _bundle(p, kappa4=bad4)
        _bundle(p, kappa4=np.ones((p, p, p, p)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name, shape", [
    ("kappa2", (2, 2)), ("kappa3", (2, 2, 2)), ("kappa4", (2, 2, 2, 2)),
    ("d_kappa2", (2, 2, 2)), ("d_kappa3", (2, 2, 2, 2)),
    ("dd_kappa2", (2, 2, 2, 2))])
def test_bundle_rejects_nonfinite_entries(name, shape, bad):
    # every entry set, so the array keeps its index symmetry
    arr = np.full(shape, bad)
    with pytest.raises(ValueError) as exc:
        _bundle(2, **{name: arr})
    assert str(exc.value) == f"{name} has non-finite entries"


@pytest.mark.parametrize("kappa2", [np.float64(-1.0), -1.0, "abc"])
def test_bundle_rejects_zero_dimensional_kappa2(kappa2):
    with pytest.raises(ValueError) as exc:
        CumulantBundle(kappa2=kappa2, kappa3=np.zeros((1, 1, 1)),
                       kappa4=np.zeros((1, 1, 1, 1)),
                       d_kappa2=np.zeros((1, 1, 1)),
                       d_kappa3=np.zeros((1, 1, 1, 1)),
                       dd_kappa2=np.zeros((1, 1, 1, 1)))
    assert str(exc.value) == "kappa2 has shape (), expected (p, p)"


def _symmetric_arrays(p, rng) -> dict:
    """Entries uniform on (-1, 1), each array exactly symmetric in its
    axes (entries read at sorted indices); kappa2 shifted to be negative
    definite."""
    arrays = {}
    for name, rank, axes in BUNDLE_LAYOUT:
        idx = np.indices((p,) * rank)
        idx[list(axes)] = np.sort(idx[list(axes)], axis=0)
        arrays[name] = rng.uniform(-1.0, 1.0, (p,) * rank)[tuple(idx)]
    arrays["kappa2"] -= (p + 1) * np.eye(p)
    return arrays


def _corrupt(arr, axes, kind, nudge, rng):
    """arr with one fault: a wrong shape, a non-finite entry, or one entry
    moved off its transposed partner by nudge times 1e-9 + 1e-9 |partner|."""
    if kind == "shape":
        axis = rng.integers(arr.ndim)
        return [arr[..., 0], arr[..., None],
                np.concatenate([arr, arr.take([0], axis=axis)], axis=axis)
                ][rng.integers(3)]
    arr = arr.copy()
    idx = tuple(rng.integers(arr.shape[0], size=arr.ndim))
    if kind in ("inf", "-inf", "nan"):
        arr[idx] = float(kind)
        return arr
    i, k = list(itertools.combinations(axes, 2))[
        rng.integers(len(axes) * (len(axes) - 1) // 2)]
    partner = list(idx)
    partner[i], partner[k] = idx[k], idx[i]
    t = arr[tuple(partner)]
    arr[idx] = t + rng.choice([-1.0, 1.0]) * (1e-9 + 1e-9 * abs(t)) * nudge
    return arr


@settings(max_examples=300, deadline=None)
@given(p=st.integers(1, 8), field=st.integers(0, 5),
       kind=st.sampled_from(["none", "shape", "inf", "-inf", "nan", "above",
                             "below"]),
       nudge=st.just(0.0) | st.builds(lambda m, e: m * 10.0 ** e,
                                      st.floats(1.0, 10.0),
                                      st.integers(-14, -4)),
       magnitude=st.integers(-3, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bundle_checks_match_the_per_transposition_oracle(
        p, field, kind, nudge, magnitude, seed):
    # one array scaled by 10^magnitude (so the relative part of the rule
    # matters) and corrupted once, a symmetric pair moved apart by the
    # tolerance times 1 +- nudge, nudge down to 1e-14; the bundle raises
    # exactly when the array-by-array oracle names a fault, with the same
    # message
    rng = np.random.default_rng(seed)
    arrays = _symmetric_arrays(p, rng)
    name, _, axes = BUNDLE_LAYOUT[field]
    arrays[name] = arrays[name] * 10.0 ** magnitude
    if kind != "none":
        factor = 1.0 + nudge if kind == "above" else 1.0 - nudge
        arrays[name] = _corrupt(arrays[name], axes, kind, factor, rng)
    want = bundle_error(arrays)
    if want is None:
        CumulantBundle(**arrays)
    else:
        with pytest.raises(ValueError) as exc:
            CumulantBundle(**arrays)
        assert str(exc.value) == want


def test_bundle_names_the_first_fault_in_field_order():
    # a non-finite array before a bad shape is named first, any non-finite
    # entry before any broken symmetry, and the first of two broken arrays
    rng = np.random.default_rng(5)
    nan3 = np.full((2, 2, 2), np.nan)
    skew3 = np.zeros((2, 2, 2))
    skew3[0, 0, 1] = 1.0
    skew4 = np.zeros((2, 2, 2, 2))
    skew4[0, 1, 1, 1] = 1.0
    for faults in [dict(kappa3=nan3, kappa4=np.zeros((2, 2, 2))),
                   dict(kappa3=skew3, dd_kappa2=np.full((2,) * 4, np.inf)),
                   dict(kappa4=skew4, kappa3=skew3),
                   dict(kappa2=-np.eye(3), d_kappa2=nan3)]:
        arrays = {**_symmetric_arrays(2, rng), **faults}
        with pytest.raises(ValueError) as exc:
            CumulantBundle(**arrays)
        assert str(exc.value) == bundle_error(arrays)


def test_bundle_requires_negative_definite_kappa2():
    with pytest.raises(ValueError):
        _bundle(2, kappa2=np.eye(2))
    with pytest.raises(ValueError):
        _bundle(2, kappa2=np.diag([-1.0, 0.0]))


def test_zero_higher_cumulants_give_zero_derived():
    d = derive_mixed_cumulants(_bundle(3))
    assert not d.kappa_21.any()
    assert not d.kappa_31.any()
    assert not d.kappa_13.any()
    assert not d.T.any()


def test_kappa21_vanishes_when_dkappa2_equals_kappa3():
    # the Bartlett identity kappa_{jr,s} = kappa_{jr}^{(s)} - kappa_{jrs}
    rng = np.random.default_rng(7)
    sym = rng.normal(size=(2, 2, 2))
    sym = sym + sym.transpose(1, 0, 2) + sym.transpose(2, 1, 0) \
        + sym.transpose(0, 2, 1) + sym.transpose(1, 2, 0) \
        + sym.transpose(2, 0, 1)
    b = _bundle(2, kappa3=sym, d_kappa2=sym)
    d = derive_mixed_cumulants(b)
    assert np.allclose(d.kappa_21, 0.0, atol=1e-15)


def test_exponential_mixed_cumulant_example():
    # mean-one exponential at phi = 1: kappa_pp = -1, kappa_ppp = 4,
    # kappa_pp^(p) = 2, hence kappa_{pp,p} = 2 - 4 = -2
    b = make_model("exponential").cumulants(np.array([1.0]))
    assert abs(b.kappa2[0, 0] + 1.0) <= 1e-12
    assert abs(b.kappa3[0, 0, 0] - 4.0) <= 1e-12
    assert abs(b.d_kappa2[0, 0, 0] - 2.0) <= 1e-12
    d = derive_mixed_cumulants(b)
    assert abs(d.kappa_21[0, 0, 0] + 2.0) <= 1e-12


def test_exponential_bartlett_identity_monte_carlo():
    # kappa_{pp,p} = cov(per-obs d2 loglik, per-obs score) estimated by
    # the mean of n*(xbar-1)*(1-2*xbar) over replicates; must bracket -2
    n, reps = 200, 50_000
    rng = np.random.default_rng(20260814)
    x = rng.exponential(1.0, size=(reps, n))
    xbar = x.mean(axis=1)
    vals = n * (xbar - 1.0) * (1.0 - 2.0 * xbar)
    est = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(est - (-2.0)) <= 3.0 * se


def test_geometry_full_parameter_null():
    b = _bundle(3, kappa2=-np.diag([2.0, 3.0, 4.0]))
    g = build_geometry(b, HypothesisSpec(p=3, q=3))
    assert np.allclose(g.A, 0.0)
    assert np.allclose(g.M, g.Kinv)
    assert np.allclose(g.K, np.diag([2.0, 3.0, 4.0]))


def test_geometry_diagonal_information():
    b = _bundle(2, kappa2=-np.diag([4.0, 5.0]))
    g = build_geometry(b, HypothesisSpec(p=2, q=1))
    assert np.allclose(g.Kinv, np.diag([0.25, 0.2]))
    assert np.allclose(g.A, np.diag([0.0, 0.2]))
    assert np.allclose(g.M, np.diag([0.25, 0.0]))


def test_geometry_hand_worked_two_by_two():
    b = _bundle(2, kappa2=-np.array([[2.0, 1.0], [1.0, 1.0]]))
    g = build_geometry(b, HypothesisSpec(p=2, q=1))
    assert np.allclose(g.Kinv, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-12)
    assert np.allclose(g.A, np.diag([0.0, 1.0]), atol=1e-12)
    assert np.allclose(g.M, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)


def test_geometry_identities_on_random_bundles():
    # M K M = M and K Kinv = I for arbitrary valid bundles
    rng = random.Random(314159)
    for p, q in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
        raw = random_integer_bundle(p, rng)
        b = CumulantBundle(**bundle_to_float_arrays(raw))
        g = build_geometry(b, HypothesisSpec(p=p, q=q))
        assert np.allclose(g.M @ g.K @ g.M, g.M, atol=1e-9)
        assert np.allclose(g.K @ g.Kinv, np.eye(p), atol=1e-10)


def test_kappa2_is_factored_once_per_general_route_call(monkeypatch):
    # the bundle's definiteness check factors K = -kappa2, and
    # build_geometry inverts K from those factors; only the nuisance block
    # K22 is factored again
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    raw = random_integer_bundle(3, random.Random(27))
    b = CumulantBundle(**bundle_to_float_arrays(raw))
    assert calls == [(3, 3)]
    w, V = eigh(-b.kappa2)
    for q, more in ((3, []), (1, [(2, 2)])):
        g = build_geometry(b, HypothesisSpec(p=3, q=q))
        assert calls == [(3, 3)] + more
        assert np.array_equal(g.Kinv, (V / w) @ V.T)
        del calls[1:]


def test_geometry_rejects_mismatched_hypothesis():
    with pytest.raises(ValueError):
        build_geometry(_bundle(2), HypothesisSpec(p=3, q=1))


def test_ill_conditioned_information_raises():
    eps = 1e-14
    k2 = -np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
    b = _bundle(2, kappa2=k2)
    with pytest.raises(IllConditionedInformationError):
        build_geometry(b, HypothesisSpec(p=2, q=1))


def _nuisance_ill_conditioned(cond):
    """kappa2 = -K at p = 3 whose smallest eigenvalue, delta, belongs to
    the nuisance direction (0, 1, -1)/sqrt(2), so that cond(K) is about
    ``cond``: the other two are those of [[2, 1/sqrt(2)], [1/sqrt(2),
    2 - delta]], the largest near 2 + 1/sqrt(2)."""
    off = 1.0 - (2.0 + np.sqrt(0.5)) / cond
    return -np.array([[2.0, 0.5, 0.5], [0.5, 1.0, off], [0.5, off, 1.0]])


def test_geometry_inverts_an_ill_conditioned_nuisance_block():
    k2 = _nuisance_ill_conditioned(0.999e12)
    K = -k2
    assert 0.99e12 < np.linalg.cond(K) < 1e12
    assert np.linalg.cond(K[1:, 1:]) > 0.5e12
    g = build_geometry(_bundle(3, kappa2=k2), HypothesisSpec(p=3, q=1))
    want = np.linalg.inv(K[1:, 1:])
    assert np.max(np.abs(g.A[1:, 1:] - want)) <= 1e-10 * np.max(np.abs(want))
    assert not g.A[0].any() and not g.A[:, 0].any()


def test_geometry_rejects_information_ill_conditioned_in_nuisance_block():
    k2 = _nuisance_ill_conditioned(1.001e12)
    assert 1e12 < np.linalg.cond(-k2) < 1.01e12
    with pytest.raises(IllConditionedInformationError,
                       match="^information matrix condition number "
                             "exceeds 1e12$"):
        build_geometry(_bundle(3, kappa2=k2), HypothesisSpec(p=3, q=1))
