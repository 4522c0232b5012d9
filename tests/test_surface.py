"""The public surface: exported names, the records' fields, the catalog."""

import copy
import pickle

import numpy as np
import pytest

import gradcorr
import gradcorr.models
from gradcorr.correction import bartlett_factors, run_test
from gradcorr.cumulants import (HypothesisSpec, build_geometry,
                                derive_mixed_cumulants)
from gradcorr.expansion import (ExpansionCoefficients, OneParamCumulants,
                                OrthogonalCumulants, coefficients_orthogonal)
from gradcorr.models import (ModelFamily, builtin_models, gradient_statistic,
                             make_model)


@pytest.mark.parametrize("package", [gradcorr, gradcorr.models],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name


@pytest.mark.parametrize("package", ["gradcorr", "gradcorr.models"])
def test_star_import_binds_every_exported_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    exported = __import__(package, fromlist=["__all__"]).__all__
    assert set(exported) <= set(namespace)


def _records() -> dict:
    """One instance of each public record, keyed by its field names."""
    coef = ExpansionCoefficients(A1=0.0, A2=18.0, A3=20.0)
    bundle = make_model("two-parameter-normal").cumulants([0.0, 1.0])
    spec = HypothesisSpec(p=2, q=1)
    one = OneParamCumulants(kpp=-1.0, kppp=2.0, kpppp=-6.0, kpp_p=2.0,
                            kppp_p=-6.0, kpp_pp=-6.0)
    orth = OrthogonalCumulants.from_arrays(
        *make_model("birnbaum-saunders").cumulant_arrays([1.0, 1.0]))
    model = make_model("exponential")
    stat = gradient_statistic(model, [1.0, 1.2, 1.8, 2.0], [1.0])
    return {
        ("A1", "A2", "A3", "R0", "R1", "R2", "R3"): coef,
        ("a", "b", "c", "n", "q"): bartlett_factors(coef, 1, 10),
        ("S", "S_star", "p_asymptotic", "p_expanded", "p_corrected",
         "z_modified", "coefficients", "expanded_cdf_raw", "warnings"):
            run_test(1.0, coef, 1, 10),
        ("p", "q", "theta10"): spec,
        ("kappa2", "kappa3", "kappa4", "d_kappa2", "d_kappa3", "dd_kappa2",
         "p"): bundle,
        ("kappa_21", "kappa_31", "kappa_13", "T"):
            derive_mixed_cumulants(bundle),
        ("K", "Kinv", "A", "M", "q"): build_geometry(bundle, spec),
        ("kpp", "kppp", "kpppp", "kpp_p", "kppp_p", "kpp_pp"): one,
        ("kpp", "kppp", "kpppp", "kpp_p", "kppp_p", "kpp_pp", "kbb", "kbbb",
         "kpbb", "kppb", "kppbb", "kpp_b", "kppb_b", "kpbb_p", "kbb_b",
         "kbb_p"): orth,
        ("A1", "A2", "A3", "R0", "R1", "R2", "R3", "A1_phi", "A1_phibeta",
         "A2_phi", "A2_phibeta"): coefficients_orthogonal(orth),
        ("value", "n", "raw", "theta_tilde", "clamped"): stat,
    }


def test_records_keep_their_fields_and_refuse_assignment():
    for fields, record in _records().items():
        for name in fields:
            getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)


def test_scalar_records_compare_hash_print_and_copy_by_value():
    scalar = [r for r in _records().values()
              if not any(isinstance(getattr(r, k, None), np.ndarray)
                         for k in ("kappa2", "K", "T", "theta_tilde"))]
    for record in scalar:
        twin = copy.deepcopy(record)
        assert twin == record and twin is not record
        assert pickle.loads(pickle.dumps(record)) == record
        assert hash(twin) == hash(record)
    coef = ExpansionCoefficients(A1=0.0, A2=18.0, A3=20.0)
    assert coef != ExpansionCoefficients(A1=0.0, A2=18.0, A3=21.0)
    assert repr(coef) == ("ExpansionCoefficients(A1=0.0, A2=18.0, A3=20.0, "
                          "R0=-2.0, R1=24.0, R2=-42.0, R3=20.0)")
    assert repr(HypothesisSpec(p=2, q=1)) == ("HypothesisSpec(p=2, q=1, "
                                              "theta10=())")


def test_builtin_models_returns_all_twelve_factories():
    catalog = builtin_models()
    assert list(catalog) == [
        "exponential", "normal-mean-known", "normal-variance-known",
        "inverse-normal", "gamma-rate", "truncated-extreme-value",
        "pareto-shape", "power-shape", "laplace-scale",
        "two-parameter-normal", "two-sample-exponential",
        "birnbaum-saunders"]
    for model_id, factory in catalog.items():
        model = factory()
        assert isinstance(model, ModelFamily), model_id
        assert type(model) is type(make_model(model_id)), model_id
