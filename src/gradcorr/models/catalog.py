"""Built-in model catalog.

Twelve families, keyed by CLI-friendly ids.  Each id names the module
and the factory that builds the family; the factory takes the family's
fixed constants (a known mean, index, or support endpoint) as keyword
arguments, and the inverse-normal entry covers both known-mean and
known-shape cases through its ``known`` argument.  ``make_model``
imports a family's module on first use, so a command that runs one
family loads only that family's module.
"""

from __future__ import annotations

import importlib
from typing import Callable

from .base import ModelFamily

__all__ = ["MODEL_IDS", "builtin_models", "make_model"]

# id -> module.factory, both within this package
_FAMILIES = {
    "exponential": "one_param.exponential",
    "normal-mean-known": "one_param.normal_mean_known",
    "normal-variance-known": "one_param.normal_variance_known",
    "inverse-normal": "one_param._inverse_normal",
    "gamma-rate": "one_param.gamma_rate",
    "truncated-extreme-value": "one_param.truncated_extreme_value",
    "pareto-shape": "one_param.pareto_shape",
    "power-shape": "one_param.power_shape",
    "laplace-scale": "one_param.laplace_scale",
    "two-parameter-normal": "two_param.NormalMeanTest",
    "two-sample-exponential": "two_param.TwoSampleExponential",
    "birnbaum-saunders": "birnbaum_saunders.BirnbaumSaunders",
}
MODEL_IDS = tuple(_FAMILIES)


def _factory(model_id: str) -> Callable[..., ModelFamily]:
    module, _, name = _FAMILIES[model_id].partition(".")
    return getattr(importlib.import_module(f".{module}", __package__), name)


def builtin_models() -> dict[str, Callable[..., ModelFamily]]:
    """Catalog of the built-in families: id -> factory."""
    return {model_id: _factory(model_id) for model_id in MODEL_IDS}


def make_model(model_id: str, **constants) -> ModelFamily:
    """Instantiate a catalog family by id."""
    if model_id not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown model {model_id!r}; available: {known}")
    return _factory(model_id)(**constants)
