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
"""

from .correction import (BartlettFactors, TestReport, approximate_moments,
                         bartlett_factors, corrected_statistic, expanded_cdf,
                         modified_quantile, run_test)
from .cumulants import (CumulantBundle, DerivedCumulants, FisherGeometry,
                        HypothesisSpec, IllConditionedInformationError,
                        build_geometry, derive_mixed_cumulants)
from .expansion import (ExpansionCoefficients, OneParamCumulants,
                        OrthogonalCoefficients, OrthogonalCumulants,
                        coefficients_general, coefficients_one_param,
                        coefficients_orthogonal)
from .models import (BirnbaumSaunders, FitError, GradientStatistic,
                     ModelFamily, NormalMeanTest, TwoSampleExponential,
                     builtin_models, gradient_statistic, make_model)
from .special import (chi2_cdf, chi2_pdf, chi2_quantile, std_normal_cdf,
                      std_normal_tail_scaled)

__version__ = "0.1.0"

__all__ = [
    "BartlettFactors", "TestReport", "approximate_moments",
    "bartlett_factors", "corrected_statistic", "expanded_cdf",
    "modified_quantile", "run_test",
    "CumulantBundle", "DerivedCumulants", "FisherGeometry",
    "HypothesisSpec", "IllConditionedInformationError",
    "build_geometry", "derive_mixed_cumulants",
    "ExpansionCoefficients", "OneParamCumulants",
    "OrthogonalCoefficients", "OrthogonalCumulants",
    "coefficients_general", "coefficients_one_param",
    "coefficients_orthogonal",
    "BirnbaumSaunders", "FitError", "GradientStatistic", "ModelFamily",
    "NormalMeanTest", "TwoSampleExponential", "builtin_models",
    "gradient_statistic", "make_model",
    "chi2_cdf", "chi2_pdf", "chi2_quantile", "std_normal_cdf",
    "std_normal_tail_scaled",
    "__version__",
]
