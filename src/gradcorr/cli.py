"""Command-line front end.

Every number printed here comes from a library call; no numeric logic
lives in this module.  Exit codes: 0 success, 1 standard output closed
early (say, piped into ``head``), 2 validation error (bad flags, unknown
model, malformed data, unwritable output), 3 fit or simulation failure.
``main`` alone maps errors to these codes.

Data files hold one observation per line (a single-column CSV with an
optional header also works).  The two-sample model reads either two
files (--data and --data2) or one two-column CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys

import numpy as np

from .correction import PROCEDURES, run_test
from .models.base import FitError, gradient_statistic
from .models.catalog import MODEL_IDS, make_model

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
_COEFFICIENTS = ("A1", "A2", "A3", "R0", "R1", "R2", "R3")   # print order

def _fmt(value: float) -> str:
    return "%.17g" % (value + 0.0)     # normalizes -0.0


def _parse_params(pairs: str) -> dict:
    """'k=2,known=shape' -> {'k': 2.0, 'known': 'shape'}."""
    out = {}
    if not pairs:
        return out
    for item in pairs.split(","):
        if "=" not in item:
            raise ValueError(f"--params entries must look like key=value, "
                             f"got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"--params entry has an empty key: {item!r}")
        if key in out:
            raise ValueError(f"--params key {key!r} must not repeat, "
                             f"got {pairs!r}")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value      # mode selectors stay strings
        else:
            if not np.isfinite(out[key]):
                raise ValueError(f"--params {key} must be finite, "
                                 f"got {value!r}")
    return out


def _parse_floats(text: str, flag: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ValueError(f"{flag} must be a comma list of numbers, "
                         f"got {text!r}") from None
    if not np.isfinite(values).all():
        raise ValueError(f"{flag} values must be finite, got {text!r}")
    return values


def _parse_sizes(text: str) -> tuple:
    """'5:22' (inclusive, step 1), '5:22:3', or '10,20,50'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"--n range must be lo:hi or lo:hi:step, "
                             f"got {text!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise ValueError(f"--n range bounds must be integers, "
                             f"got {text!r}") from None
        if step < 1 or hi < lo:
            raise ValueError(f"--n range is empty: {text!r}")
        return tuple(range(lo, hi + 1, step))
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--n must be an integer list or lo:hi range, "
                         f"got {text!r}") from None


def _model_and_theta(name: str, params: str):
    """Split --params into family constants and a theta evaluation point."""
    model_id = ALIASES.get(name, name)
    probe = make_model(model_id)
    given = _parse_params(params)
    constants = {k: v for k, v in given.items()
                 if k not in probe.param_names}
    try:
        model = make_model(model_id, **constants) if constants else probe
    except TypeError:
        raise ValueError(f"model {model_id!r} does not accept constants "
                         f"{sorted(constants)}") from None
    # modal factories (inverse-normal) rename the tested parameter, so the
    # final model decides which keys are theta components
    names = model.param_names
    theta = list(model.default_theta)
    for key, value in given.items():
        if key in names:
            if not isinstance(value, float):
                raise ValueError(f"--params {key} must be numeric, "
                                 f"got {value!r}")
            theta[names.index(key)] = value
    return model, model_id, constants, np.array(theta)


def _read_column(path: str):
    """Numeric values plus their source line numbers."""
    values, lines = [], []
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a text file ({exc})") from None
    for lineno, line in enumerate(text.split("\n"), start=1):
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
                raise ValueError(f"{path}, line {lineno}: could not parse "
                                 f"{field!r} as a number") from None
        if row is None:
            continue
        values.append(row)
        lines.append(lineno)
    if not values:
        raise ValueError(f"{path}: no numeric data found")
    width = len(values[0])
    if any(len(row) != width for row in values):
        bad = next(i for i, row in enumerate(values) if len(row) != width)
        raise ValueError(f"{path}, line {lines[bad]}: expected {width} "
                         f"column(s)")
    return np.array(values), lines, width


def _one_column(path: str, values, width: int) -> np.ndarray:
    """The one column of values read from path."""
    if width != 1:
        raise ValueError(f"{path}: expected a single column, found {width}")
    return values[:, 0]


def _read_data(model, path: str, path2):
    """Load and shape data for the model; returns (data, sources)."""
    values, lines, width = _read_column(path)
    if model.samples == 1:
        if path2:
            raise ValueError(f"model {model.name!r} takes a single sample; "
                             "--data2 is not accepted")
        return _one_column(path, values, width), [(path, lines)] * 2
    if path2:
        first = _one_column(path, values, width)
        values2, lines2, width2 = _read_column(path2)
        return ((first, _one_column(path2, values2, width2)),
                [(path, lines), (path2, lines2)])
    if width != 2:
        raise ValueError(f"{path}: two-sample data needs two columns "
                         "(or a second file via --data2)")
    return (values[:, 0], values[:, 1]), [(path, lines)] * 2


def _locate(message: str, sources) -> str:
    """Rewrite 'observation i' in a validation message as file and line."""
    m = re.search(r"(?:sample (\d+), )?observation (\d+)", message)
    if not m:
        return message
    which = int(m.group(1)) - 1 if m.group(1) else 0
    path, lines = sources[which]
    return (f"{path}, line {lines[int(m.group(2)) - 1]}: "
            + message[m.end():].lstrip(": "))


def _report_fields(report) -> list:
    return [("S", report.S), ("S_star", report.S_star),
            ("p_asymptotic", report.p_asymptotic),
            ("p_expanded", report.p_expanded),
            ("p_corrected", report.p_corrected),
            ("z_modified", report.z_modified)]


def cmd_test(args) -> int:
    model, _, _, _ = _model_and_theta(args.model, args.params)
    theta10 = _parse_floats(args.theta10, "--theta10")
    data, sources = _read_data(model, args.data, args.data2)
    try:
        model.validate_data(data)
    except ValueError as exc:
        raise ValueError(_locate(str(exc), sources)) from None
    stat = gradient_statistic(model, data, theta10)
    coef = model.coefficients(stat.theta_tilde)
    report = run_test(stat.value, coef, model.q, stat.n, gamma=args.gamma)
    fields = _report_fields(report)
    if args.format == "json":
        import json
        coefficients = {k: getattr(coef, k) for k in _COEFFICIENTS}
        payload = dict(fields, coefficients=coefficients, n=stat.n,
                       gamma=args.gamma, warnings=list(report.warnings))
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print(",".join(key for key, _ in fields))
        print(",".join(_fmt(value) for _, value in fields))
    else:
        print(f"model: {model.name}   n = {stat.n}   gamma = {args.gamma}")
        for key, value in fields:
            print(f"  {key:<14}{_fmt(value)}")
        print(f"  {'A1,A2,A3':<14}" + ", ".join(map(_fmt, coef.as_tuple())))
        for note in report.warnings:
            print(f"  warning: {note}")
    return 0


def cmd_coeffs(args) -> int:
    model, _, _, theta = _model_and_theta(args.model, args.params)
    general = model.general_coefficients(theta)
    specialized = model.coefficients(theta)
    # "closed" is the older name of the specialized route
    route = "general" if args.route == "general" else "specialized"
    shown = general if route == "general" else specialized
    delta = max(abs(g - c) for g, c in zip(general.as_tuple(),
                                           specialized.as_tuple()))
    print(f"model: {model.name}   route: {route}   theta = "
          + ",".join(_fmt(v) for v in theta))
    for key in _COEFFICIENTS:
        print(f"  {key} = {_fmt(getattr(shown, key))}")
    print(f"  route agreement: max |general - specialized| = {_fmt(delta)}")
    return 0


def _simulation_config(args, **options) -> tuple:
    """The model and the checked study inputs of simulate or cdf-study;
    options are further SimulationConfig fields."""
    from .simulate import SimulationConfig
    model, model_id, constants, theta = _model_and_theta(args.model,
                                                         args.params)
    if args.theta is not None:
        theta = _parse_floats(args.theta, "--theta")
    theta10 = (theta[:model.q] if args.theta10 is None
               else _parse_floats(args.theta10, "--theta10"))
    return model, SimulationConfig(
        model_id=model_id, theta=theta, theta10=theta10,
        sizes=_parse_sizes(args.n), replicates=args.reps, seed=args.seed,
        constants=constants, **options)


def _cannot_write(path, exc) -> ValueError:
    return ValueError(f"cannot write {path}: {exc.strerror}")


@contextlib.contextmanager
def _output_checked(path):
    """Check that path can be written before the study in the block runs,
    without truncating it; if the study fails, remove the file again where
    the check made it."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    try:
        yield
    except BaseException:
        if not existed:
            os.remove(path)
        raise


def _write_csv(write, result, path) -> None:
    try:
        write(result, path)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def cmd_simulate(args) -> int:
    from .simulate import run_size_study, write_size_csv
    _, config = _simulation_config(
        args, alphas=_parse_floats(args.alpha, "--alpha"),
        procedures=tuple(args.procedures.split(",")))
    with _output_checked(args.out):
        result = run_size_study(config)
    _write_csv(write_size_csv, result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    for n, count in result.failures:
        if count:
            print(f"  n={n}: {count} replicate(s) failed to fit")
    return 0


def cmd_cdf_study(args) -> int:
    from .simulate import run_cdf_study, write_cdf_csv
    model, config = _simulation_config(args)
    if len(config.sizes) != 1:
        raise ValueError(f"cdf-study takes a single --n, got {args.n!r}")
    with _output_checked(args.out):
        study = run_cdf_study(model, config.theta, config.theta10,
                              n=config.sizes[0],
                              replicates=config.replicates, seed=config.seed)
    _write_csv(write_cdf_csv, study, args.out)
    print(f"wrote {len(study.x)} rows to {args.out}")
    print(f"  sup |empirical - chisq|    = {_fmt(study.sup_chisq)}")
    print(f"  sup |empirical - expanded| = {_fmt(study.sup_expanded)}")
    if study.failures:
        print(f"  {study.failures} replicate(s) failed to fit")
    return 0


def _add_model_flags(sub) -> None:
    aliases = ", ".join(f"{a} = {m}" for a, m in ALIASES.items())
    sub.add_argument("--model", required=True, help="model id, one of "
                     f"{', '.join(MODEL_IDS)} (aliases: {aliases})")
    sub.add_argument("--params", default="",
                     help="comma list key=value: family constants and "
                          "parameter components (e.g. k=2 or phi=1)")


def _add_study_flags(sub, n_help: str) -> None:
    _add_model_flags(sub)
    sub.add_argument("--theta", default=None,
                     help="true parameter vector (comma list)")
    sub.add_argument("--theta10", default=None,
                     help="null value(s); default: tested part of --theta")
    sub.add_argument("--n", required=True, help=n_help)
    sub.add_argument("--reps", type=int, required=True,
                     help="replicates per sample size")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--out", required=True, help="output CSV path")


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
    _add_study_flags(p_sim, "sample sizes: lo:hi[:step] or comma list")
    p_sim.add_argument("--alpha", default="0.05",
                       help="nominal levels (comma list)")
    p_sim.add_argument("--procedures",
                       default="uncorrected,corrected_statistic",
                       help="comma list from: " + ", ".join(PROCEDURES))
    p_sim.set_defaults(func=cmd_simulate)

    p_cdf = sub.add_parser("cdf-study",
                           help="empirical vs expanded null CDF")
    _add_study_flags(p_cdf, "sample size")
    p_cdf.set_defaults(func=cmd_cdf_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull, so that
        # the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError:
        # float powers of a parameter or an observation near the float limit
        print("error: numeric overflow; a parameter or an observation is "
              "too large", file=sys.stderr)
        return 2
    except ZeroDivisionError:
        # the same powers underflowing to zero in a denominator
        print("error: numeric underflow; a parameter or an observation is "
              "too small", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
