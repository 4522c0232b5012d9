"""Small-sample corrections for the gradient test.

The gradient statistic S = n U(theta_tilde)'(theta_hat - theta_tilde) is
asymptotically chi-square with q degrees of freedom.  This package
computes the order-1/n expansion of its null CDF,

    Pr(S <= x) = G_q(x) + (1/24n) sum_{i=0}^{3} R_i G_{q+2i}(x),

from per-observation log-likelihood cumulants, and turns it into three
equivalent finite-sample corrections: a Bartlett-type corrected
statistic, the expanded CDF itself, and modified chi-square percentiles.
A catalog of analytic model families and a reproducible Monte Carlo
harness exercise all of it.

Each public name, and each submodule, loads its module on first access
(PEP 562), so that importing the package loads none of them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "correction": ("BartlettFactors", "TestReport", "approximate_moments",
                   "bartlett_factors", "corrected_statistic", "expanded_cdf",
                   "modified_quantile", "run_test"),
    "cumulants": ("CumulantBundle", "DerivedCumulants", "FisherGeometry",
                  "HypothesisSpec", "IllConditionedInformationError",
                  "build_geometry", "derive_mixed_cumulants"),
    "expansion": ("ExpansionCoefficients", "OneParamCumulants",
                  "OrthogonalCoefficients", "OrthogonalCumulants",
                  "coefficients_general", "coefficients_one_param",
                  "coefficients_orthogonal"),
    "models": ("BirnbaumSaunders", "FitError", "GradientStatistic",
               "ModelFamily", "NormalMeanTest", "TwoSampleExponential",
               "builtin_models", "gradient_statistic", "make_model"),
    "special": ("chi2_cdf", "chi2_pdf", "chi2_quantile", "std_normal_cdf",
                "std_normal_tail_scaled"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
