from .base import (FitError, GradientStatistic, ModelFamily,
                   gradient_statistic)
from .birnbaum_saunders import BirnbaumSaunders
from .catalog import builtin_models, make_model
from .one_param import (OneParamExpFamily, exponential, gamma_rate,
                        inverse_normal_mean_known,
                        inverse_normal_shape_known, laplace_scale,
                        normal_mean_known, normal_variance_known,
                        pareto_shape, power_shape, truncated_extreme_value)
from .two_param import NormalMeanTest, TwoSampleExponential

__all__ = [
    "FitError", "GradientStatistic", "ModelFamily", "gradient_statistic",
    "BirnbaumSaunders",
    "builtin_models", "make_model",
    "OneParamExpFamily", "exponential", "gamma_rate",
    "inverse_normal_mean_known", "inverse_normal_shape_known",
    "laplace_scale", "normal_mean_known", "normal_variance_known",
    "pareto_shape", "power_shape", "truncated_extreme_value",
    "NormalMeanTest", "TwoSampleExponential",
]
