"""The model families and the gradient statistic.

The interface and the catalog load with the package.  A family's names
load its module on first access (PEP 562), as ``make_model`` does, so
that importing the package loads no family.
"""

import importlib

from .base import FitError, GradientStatistic, ModelFamily, gradient_statistic
from .catalog import builtin_models, make_model

_FAMILIES = {
    "birnbaum_saunders": ("BirnbaumSaunders",),
    "one_param": ("OneParamExpFamily", "exponential", "gamma_rate",
                  "inverse_normal_mean_known", "inverse_normal_shape_known",
                  "laplace_scale", "normal_mean_known",
                  "normal_variance_known", "pareto_shape", "power_shape",
                  "truncated_extreme_value"),
    "two_param": ("NormalMeanTest", "TwoSampleExponential"),
}
_HOME = {name: module for module, names in _FAMILIES.items()
         for name in names}

__all__ = ["FitError", "GradientStatistic", "ModelFamily",
           "gradient_statistic", "builtin_models", "make_model", *_HOME]


def __getattr__(name):
    if name in _FAMILIES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
