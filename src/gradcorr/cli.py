"""Command-line front end.

Every number printed here comes from a library call; no numeric logic
lives in this module.  Exit codes: 0 success, 2 validation error (bad
flags, unknown model, malformed data), 3 fit or simulation failure.

Data files hold one observation per line (a single-column CSV with an
optional header also works).  The two-sample model reads either two
files (--data and --data2) or one two-column CSV.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .correction import run_test
from .models import FitError, builtin_models, gradient_statistic, make_model
from .simulate import (PROCEDURES, SimulationConfig, SimulationError,
                       run_cdf_study, run_size_study, write_cdf_csv,
                       write_size_csv)

__all__ = ["main"]

# short names accepted wherever --model is
ALIASES = {
    "bs": "birnbaum-saunders",
    "gamma": "gamma-rate",
    "tev": "truncated-extreme-value",
    "pareto": "pareto-shape",
    "power": "power-shape",
    "laplace": "laplace-scale",
}

def _fmt(value: float) -> str:
    return "%.17g" % (value + 0.0)     # normalizes -0.0


class CliError(Exception):
    """Validation failure; maps to exit code 2."""


def _resolve_model_id(name: str) -> str:
    model_id = ALIASES.get(name, name)
    known = builtin_models()
    if model_id not in known:
        raise CliError(f"unknown model {name!r}; available: "
                       + ", ".join(sorted(known)))
    return model_id


def _parse_params(pairs: str) -> dict:
    """'k=2,known=shape' -> {'k': 2.0, 'known': 'shape'}."""
    out = {}
    if not pairs:
        return out
    for item in pairs.split(","):
        if "=" not in item:
            raise CliError(f"--params entries must look like key=value, "
                           f"got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise CliError(f"--params entry has an empty key: {item!r}")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value      # mode selectors stay strings
        else:
            if not np.isfinite(out[key]):
                raise CliError(f"--params {key} must be finite, "
                               f"got {value!r}")
    return out


def _parse_floats(text: str, flag: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise CliError(f"{flag} must be a comma list of numbers, "
                       f"got {text!r}") from None
    if not np.isfinite(values).all():
        raise CliError(f"{flag} values must be finite, got {text!r}")
    return values


def _parse_sizes(text: str) -> tuple:
    """'5:22' (inclusive, step 1), '5:22:3', or '10,20,50'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise CliError(f"--n range must be lo:hi or lo:hi:step, "
                           f"got {text!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise CliError(f"--n range bounds must be integers, "
                           f"got {text!r}") from None
        if step < 1 or hi < lo:
            raise CliError(f"--n range is empty: {text!r}")
        return tuple(range(lo, hi + 1, step))
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise CliError(f"--n must be an integer list or lo:hi range, "
                       f"got {text!r}") from None


def _model_and_theta(name: str, params: str):
    """Split --params into family constants and a theta evaluation point."""
    model_id = _resolve_model_id(name)
    given = _parse_params(params)
    probe = make_model(model_id)
    constants = {k: v for k, v in given.items()
                 if k not in probe.param_names}
    try:
        model = make_model(model_id, **constants) if constants else probe
    except TypeError:
        raise CliError(f"model {model_id!r} does not accept constants "
                       f"{sorted(constants)}") from None
    except ValueError as exc:
        raise CliError(str(exc)) from None
    # modal factories (inverse-normal) rename the tested parameter, so the
    # final model decides which keys are theta components
    names = model.param_names
    theta = list(model.default_theta)
    for key, value in given.items():
        if key in names:
            if not isinstance(value, float):
                raise CliError(f"--params {key} must be numeric, "
                               f"got {value!r}")
            theta[names.index(key)] = value
    return model, model_id, constants, np.array(theta)


def _read_column(path: str):
    """Numeric values plus their source line numbers."""
    values, lines = [], []
    try:
        fh = open(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            fields = [f.strip() for f in line.strip().split(",")]
            fields = [f for f in fields if f]
            if not fields:
                continue
            row = []
            for field in fields:
                try:
                    row.append(float(field))
                except ValueError:
                    if lineno == 1:  # header row
                        row = None
                        break
                    raise CliError(f"{path}, line {lineno}: could not parse "
                                   f"{field!r} as a number") from None
            if row is None:
                continue
            values.append(row)
            lines.append(lineno)
    if not values:
        raise CliError(f"{path}: no numeric data found")
    width = len(values[0])
    if any(len(row) != width for row in values):
        bad = next(i for i, row in enumerate(values) if len(row) != width)
        raise CliError(f"{path}, line {lines[bad]}: expected {width} "
                       f"column(s)")
    return np.array(values), lines, width


def _read_data(model, path: str, path2):
    """Load and shape data for the model; returns (data, sources)."""
    values, lines, width = _read_column(path)
    if model.samples == 1:
        if path2:
            raise CliError(f"model {model.name!r} takes a single sample; "
                           "--data2 is not accepted")
        if width != 1:
            raise CliError(f"{path}: expected a single column, found {width}")
        return values[:, 0], [(path, lines), (path, lines)]
    if path2:
        if width != 1:
            raise CliError(f"{path}: expected a single column, found {width}")
        values2, lines2, width2 = _read_column(path2)
        if width2 != 1:
            raise CliError(f"{path2}: expected a single column, "
                           f"found {width2}")
        return ((values[:, 0], values2[:, 0]),
                [(path, lines), (path2, lines2)])
    if width != 2:
        raise CliError(f"{path}: two-sample data needs two columns "
                       "(or a second file via --data2)")
    return (values[:, 0], values[:, 1]), [(path, lines), (path, lines)]


def _locate(message: str, sources) -> str:
    """Rewrite 'observation i' in a validation message as file and line."""
    m = re.search(r"(?:sample (\d+), )?observation (\d+)", message)
    if not m:
        return message
    which = int(m.group(1)) - 1 if m.group(1) else 0
    path, lines = sources[which]
    idx = int(m.group(2)) - 1
    if idx >= len(lines):
        return message
    return f"{path}, line {lines[idx]}: " + message[m.end():].lstrip(": ")


def _report_fields(report) -> list:
    return [("S", report.S), ("S_star", report.S_star),
            ("p_asymptotic", report.p_asymptotic),
            ("p_expanded", report.p_expanded),
            ("p_corrected", report.p_corrected),
            ("z_modified", report.z_modified)]


def cmd_test(args) -> int:
    model, _, _, _ = _model_and_theta(args.model, args.params)
    theta10 = _parse_floats(args.theta10, "--theta10")
    if theta10.shape != (model.q,):
        raise CliError(f"--theta10 needs {model.q} value(s) for "
                       f"{model.name}, got {len(theta10)}")
    if not 0.0 < args.gamma < 1.0:
        raise CliError(f"--gamma must lie in (0, 1), got {args.gamma}")
    data, sources = _read_data(model, args.data, args.data2)
    try:
        model.validate_data(data)
    except ValueError as exc:
        raise CliError(_locate(str(exc), sources)) from None
    try:
        stat = gradient_statistic(model, data, theta10)
        coef = model.coefficients(stat.theta_tilde)
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        raise CliError(str(exc)) from None
    report = run_test(stat.value, coef, model.q, stat.n, gamma=args.gamma)
    fields = _report_fields(report)
    if args.format == "json":
        payload = {key: value for key, value in fields}
        payload["coefficients"] = {"A1": coef.A1, "A2": coef.A2,
                                   "A3": coef.A3, "R0": coef.R0,
                                   "R1": coef.R1, "R2": coef.R2,
                                   "R3": coef.R3}
        payload["n"] = stat.n
        payload["gamma"] = args.gamma
        payload["warnings"] = list(report.warnings)
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print(",".join(key for key, _ in fields))
        print(",".join(_fmt(value) for _, value in fields))
    else:
        print(f"model: {model.name}   n = {stat.n}   gamma = {args.gamma}")
        for key, value in fields:
            print(f"  {key:<14}{_fmt(value)}")
        print(f"  {'A1,A2,A3':<14}" + ", ".join(
            _fmt(v) for v in (coef.A1, coef.A2, coef.A3)))
        for note in report.warnings:
            print(f"  warning: {note}")
    return 0


def cmd_coeffs(args) -> int:
    model, _, _, theta = _model_and_theta(args.model, args.params)
    try:
        general = model.general_coefficients(theta)
        specialized = model.coefficients(theta)
    except (ValueError, NotImplementedError) as exc:
        raise CliError(str(exc)) from None
    # "closed" is the older name of the specialized route
    route = "general" if args.route == "general" else "specialized"
    shown = general if route == "general" else specialized
    delta = max(abs(g - c) for g, c in zip(
        (general.A1, general.A2, general.A3),
        (specialized.A1, specialized.A2, specialized.A3)))
    print(f"model: {model.name}   route: {route}   theta = "
          + ",".join(_fmt(v) for v in theta))
    for key in ("A1", "A2", "A3", "R0", "R1", "R2", "R3"):
        print(f"  {key} = {_fmt(getattr(shown, key))}")
    print(f"  route agreement: max |general - specialized| = {_fmt(delta)}")
    return 0


def _simulation_config(args) -> SimulationConfig:
    model, model_id, constants, theta = _model_and_theta(args.model,
                                                         args.params)
    if args.theta is not None:
        theta = _parse_floats(args.theta, "--theta")
    theta10 = (theta[:model.q] if args.theta10 is None
               else _parse_floats(args.theta10, "--theta10"))
    alphas = _parse_floats(args.alpha, "--alpha")
    procedures = (tuple(args.procedures.split(","))
                  if args.procedures else
                  ("uncorrected", "corrected_statistic"))
    sizes = _parse_sizes(args.n)
    try:
        return SimulationConfig(model_id=model_id, theta=tuple(theta),
                                theta10=tuple(theta10), sizes=sizes,
                                replicates=args.reps, alphas=tuple(alphas),
                                seed=args.seed, procedures=procedures,
                                constants=constants)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def cmd_simulate(args) -> int:
    config = _simulation_config(args)
    try:
        result = run_size_study(config)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    write_size_csv(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    for n, count in result.failures:
        if count:
            print(f"  n={n}: {count} replicate(s) failed to fit")
    return 0


def cmd_cdf_study(args) -> int:
    model, model_id, constants, theta = _model_and_theta(args.model,
                                                         args.params)
    if args.theta is not None:
        theta = _parse_floats(args.theta, "--theta")
    theta10 = (theta[:model.q] if args.theta10 is None
               else _parse_floats(args.theta10, "--theta10"))
    sizes = _parse_sizes(args.n)
    if len(sizes) != 1:
        raise CliError(f"cdf-study takes a single --n, got {args.n!r}")
    if args.reps < 1:
        raise CliError("--reps must be at least 1")
    try:
        study = run_cdf_study(model, theta, theta10, n=sizes[0],
                              replicates=args.reps, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    write_cdf_csv(study, args.out)
    print(f"wrote {len(study.x)} rows to {args.out}")
    print(f"  sup |empirical - chisq|    = {_fmt(study.sup_chisq)}")
    print(f"  sup |empirical - expanded| = {_fmt(study.sup_expanded)}")
    if study.failures:
        print(f"  {study.failures} replicate(s) failed to fit")
    return 0


def _add_model_flags(sub) -> None:
    sub.add_argument("--model", required=True,
                     help="model id or short alias (see `coeffs --help`)")
    sub.add_argument("--params", default="",
                     help="comma list key=value: family constants and "
                          "parameter components (e.g. k=2 or phi=1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcorr",
        description="Small-sample corrections for the gradient test.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the test on a data file")
    _add_model_flags(p_test)
    p_test.add_argument("--data", required=True, help="observations, one "
                        "per line (single-column CSV accepted)")
    p_test.add_argument("--data2", default=None,
                        help="second sample for two-sample models")
    p_test.add_argument("--theta10", required=True,
                        help="null value(s) of the tested component(s)")
    p_test.add_argument("--gamma", type=float, default=0.05,
                        help="nominal level for the modified critical value")
    p_test.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    p_test.set_defaults(func=cmd_test)

    p_coeffs = sub.add_parser("coeffs", help="print expansion coefficients")
    _add_model_flags(p_coeffs)
    p_coeffs.add_argument("--route",
                          choices=("general", "specialized", "closed"),
                          default="specialized",
                          help="tensor-contraction engine or the "
                               "specialized closed-form route that the "
                               "test uses (closed: the same)")
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_sim = sub.add_parser("simulate", help="null rejection-rate study")
    _add_model_flags(p_sim)
    p_sim.add_argument("--theta", default=None,
                       help="true parameter vector (comma list)")
    p_sim.add_argument("--theta10", default=None,
                       help="null value(s); default: tested part of --theta")
    p_sim.add_argument("--n", required=True,
                       help="sample sizes: lo:hi[:step] or comma list")
    p_sim.add_argument("--reps", type=int, required=True,
                       help="replicates per sample size")
    p_sim.add_argument("--alpha", default="0.05",
                       help="nominal levels (comma list)")
    p_sim.add_argument("--procedures", default=None,
                       help="comma list from: " + ", ".join(PROCEDURES))
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_cdf = sub.add_parser("cdf-study",
                           help="empirical vs expanded null CDF")
    _add_model_flags(p_cdf)
    p_cdf.add_argument("--theta", default=None,
                       help="true parameter vector (comma list)")
    p_cdf.add_argument("--theta10", default=None,
                       help="null value(s); default: tested part of --theta")
    p_cdf.add_argument("--n", required=True, help="sample size")
    p_cdf.add_argument("--reps", type=int, required=True)
    p_cdf.add_argument("--seed", type=int, required=True)
    p_cdf.add_argument("--out", required=True, help="output CSV path")
    p_cdf.set_defaults(func=cmd_cdf_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        # float powers of a parameter or an observation near the float limit
        print("error: numeric overflow; a parameter or an observation is "
              "too large", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
