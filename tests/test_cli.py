"""Command-line front end, driven in process through main(argv)."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradcorr.simulate as sim
from gradcorr.cli import ALIASES, build_parser, main
from gradcorr.correction import run_test
from gradcorr.models import (FitError, builtin_models, gradient_statistic,
                             make_model)
from gradcorr.simulate import (SimulationConfig, SimulationError,
                               run_size_study, write_size_csv)
from conftest import MODEL_IDS

SEED = 20260814


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def exp_data(tmp_path):
    # four observations averaging 1.5, so S = 1 at phi0 = 1
    return _write(tmp_path / "exp.txt", "1.0\n1.2\n1.8\n2.0\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_test_command_reports_unit_statistic(capsys, exp_data):
    code, out, err = run_cli(capsys, "test", "--model", "exponential",
                             "--data", exp_data, "--theta10", "1",
                             "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert abs(payload["S"] - 1.0) <= 1e-12
    assert set(payload) >= {"S", "S_star", "p_asymptotic", "p_expanded",
                            "p_corrected", "z_modified"}
    assert payload["n"] == 4
    assert payload["coefficients"]["A2"] == 18.0


def test_test_command_matches_library_composition(capsys, exp_data):
    code, out, _ = run_cli(capsys, "test", "--model", "exponential",
                           "--data", exp_data, "--theta10", "1",
                           "--gamma", "0.1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    m = make_model("exponential")
    data = np.array([1.0, 1.2, 1.8, 2.0])
    stat = gradient_statistic(m, data, [1.0])
    coef = m.specialized_coefficients(m.fit_restricted(data, [1.0]))
    report = run_test(stat.value, coef, 1, stat.n, gamma=0.1)
    assert payload["S"] == report.S
    assert payload["S_star"] == report.S_star
    assert payload["p_asymptotic"] == report.p_asymptotic
    assert payload["p_expanded"] == report.p_expanded
    assert payload["p_corrected"] == report.p_corrected
    assert payload["z_modified"] == report.z_modified


def test_test_command_fits_restricted_model_once(capsys, tmp_path,
                                                monkeypatch):
    # estimates writes both fits, and the coefficients take theta_tilde
    # from the statistic rather than fitting again
    bs, calls = type(make_model("birnbaum-saunders")), []
    estimates = bs.estimates

    def counted(self, m, theta10):
        calls.append(theta10)
        return estimates(self, m, theta10)

    monkeypatch.setattr(bs, "estimates", counted)
    path = _write(tmp_path / "bs.txt", "0.6\n1.1\n0.9\n1.7\n0.4\n")
    code, _, _ = run_cli(capsys, "test", "--model", "bs", "--data", path,
                         "--theta10", "1")
    assert code == 0 and len(calls) == 1


def test_test_command_exits_3_on_constant_birnbaum_saunders_data(capsys,
                                                                  tmp_path):
    # phi_hat^2 is 0 up to rounding; at n = 13 it used to print S = 13.0
    for n in range(2, 41):
        path = _write(tmp_path / f"const-{n}.txt", "1.3\n" * n)
        code, out, err = run_cli(capsys, "test", "--model", "bs", "--data",
                                 path, "--theta10", "1")
        assert (code, out) == (3, ""), n
        assert "unrestricted fit failed" in err, n


def test_test_command_text_and_csv_formats(capsys, exp_data):
    code, out, _ = run_cli(capsys, "test", "--model", "exponential",
                           "--data", exp_data, "--theta10", "1")
    assert code == 0
    assert "S_star" in out and "A1,A2,A3" in out
    code, out, _ = run_cli(capsys, "test", "--model", "exponential",
                           "--data", exp_data, "--theta10", "1",
                           "--format", "csv")
    assert code == 0
    header, values = out.splitlines()
    assert header == "S,S_star,p_asymptotic,p_expanded,p_corrected,z_modified"
    assert abs(float(values.split(",")[0]) - 1.0) <= 1e-12


def test_test_command_names_offending_line(capsys, tmp_path):
    path = _write(tmp_path / "bad.txt", "1.0\n-3.0\n2.0\n")
    code, out, err = run_cli(capsys, "test", "--model", "exponential",
                             "--data", path, "--theta10", "1")
    assert code == 2
    assert "line 2" in err and "positive" in err


def test_test_command_skips_header_line(capsys, tmp_path):
    path = _write(tmp_path / "h.csv", "value\n1.0\n1.2\n1.8\n2.0\n")
    code, out, _ = run_cli(capsys, "test", "--model", "exponential",
                           "--data", path, "--theta10", "1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_json_report_writes_a_number_that_is_not_finite_as_null(capsys,
                                                                 tmp_path):
    # scaled by 1e150, the data take S* to -inf; strict JSON (RFC 8259)
    # has no -Infinity, so the number reads null and a warning names it
    x = np.random.default_rng(1).exponential(1.0, 200) * 1e150
    path = _write(tmp_path / "big.txt", "\n".join(map(repr, x.tolist())))
    code, out, _ = run_cli(capsys, "test", "--model", "exponential",
                           "--data", path, "--theta10", "1",
                           "--format", "json")

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    payload = json.loads(out, parse_constant=refuse)
    assert code == 0 and payload["S_star"] is None
    assert "corrected statistic -inf is negative" in payload["warnings"]


def test_first_line_with_a_number_is_data(capsys, tmp_path):
    # a first line is a header only when none of its fields is a number:
    # a bad field beside a number is an error, not a skipped pair
    path = _write(tmp_path / "pairs.csv", "1.5,oops\n1.0,2.0\n3.0,2.0\n")
    code, out, err = run_cli(capsys, "test", "--model",
                             "two-sample-exponential", "--data", path,
                             "--theta10", "1")
    assert (code, out) == (2, "")
    assert err == (f"error: {path}, line 1: could not parse 'oops' as a "
                   "number\n")
    path = _write(tmp_path / "word.csv", "1.5x\n1.0\n1.2\n1.8\n2.0\n")
    code, out, _ = run_cli(capsys, "test", "--model", "exponential",
                           "--data", path, "--theta10", "1",
                           "--format", "json")
    assert code == 0 and json.loads(out)["n"] == 4


def test_byte_order_mark_keeps_the_first_observation(capsys, tmp_path):
    runs = []
    for name, bom in (("plain.txt", b""), ("bom.txt", b"\xef\xbb\xbf")):
        path = tmp_path / name
        path.write_bytes(bom + b"1.5\n1.0\n1.2\n1.8\n2.0\n")
        code, out, _ = run_cli(capsys, "test", "--model", "exponential",
                               "--data", str(path), "--theta10", "1",
                               "--format", "json")
        assert code == 0
        runs.append(json.loads(out))
    assert runs[1]["n"] == 5
    assert runs[1] == runs[0]


def test_test_command_rejects_bad_inputs(capsys, tmp_path, exp_data):
    code, _, err = run_cli(capsys, "test", "--model", "no-such",
                           "--data", exp_data, "--theta10", "1")
    assert code == 2 and "exponential" in err
    code, _, err = run_cli(capsys, "test", "--model", "exponential",
                           "--data", str(tmp_path / "missing.txt"),
                           "--theta10", "1")
    assert code == 2 and "missing.txt" in err
    code, _, err = run_cli(capsys, "test", "--model", "exponential",
                           "--data", exp_data, "--theta10", "1,2")
    assert code == 2 and "theta10" in err
    code, _, err = run_cli(capsys, "test", "--model", "exponential",
                           "--data", exp_data, "--theta10", "1",
                           "--gamma", "1.5")
    assert code == 2 and "gamma" in err
    path = _write(tmp_path / "junk.txt", "1.0\nabc\n")
    code, _, err = run_cli(capsys, "test", "--model", "exponential",
                           "--data", path, "--theta10", "1")
    assert code == 2 and "line 2" in err
    path = tmp_path / "bin.dat"
    path.write_bytes(b"\xff\xfe1.0\n")
    code, _, err = run_cli(capsys, "test", "--model", "exponential",
                           "--data", str(path), "--theta10", "1")
    assert code == 2 and err.startswith(f"error: {path}: not a text file (")


def test_two_sample_ingestion_two_files(capsys, tmp_path):
    p1 = _write(tmp_path / "s1.txt", "1.0\n3.0\n")
    p2 = _write(tmp_path / "s2.txt", "2.0\n2.0\n")
    code, out, _ = run_cli(capsys, "test", "--model", "two-sample-exponential",
                           "--data", p1, "--data2", p2, "--theta10", "1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert abs(payload["S"]) <= 1e-12


def test_two_sample_ingestion_two_column_csv(capsys, tmp_path):
    path = _write(tmp_path / "pairs.csv", "1.0,2.0\n3.0,2.0\n")
    code, out, _ = run_cli(capsys, "test", "--model", "two-sample-exponential",
                           "--data", path, "--theta10", "1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_two_sample_errors_name_file_and_line(capsys, tmp_path):
    p1 = _write(tmp_path / "s1.txt", "1.0\n3.0\n2.0\n")
    p2 = _write(tmp_path / "s2.txt", "2.0\n2.0\n-1.0\n")
    code, _, err = run_cli(capsys, "test", "--model", "two-sample-exponential",
                           "--data", p1, "--data2", p2, "--theta10", "1")
    assert code == 2
    assert "s2.txt, line 3" in err
    p3 = _write(tmp_path / "s3.txt", "2.0\n")
    code, _, err = run_cli(capsys, "test", "--model", "two-sample-exponential",
                           "--data", p1, "--data2", p3, "--theta10", "1")
    assert code == 2 and "equal length" in err


def _parse_coeffs(out):
    values = {}
    for line in out.splitlines():
        line = line.strip()
        if "=" in line and line.split()[0] in ("A1", "A2", "A3", "R0", "R1",
                                               "R2", "R3"):
            key, _, val = line.partition("=")
            values[key.strip()] = float(val)
        if line.startswith("route agreement"):
            values["delta"] = float(line.rpartition("=")[2])
    return values


def test_coeffs_gamma_example(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--model", "gamma",
                           "--params", "k=2")
    assert code == 0
    got = _parse_coeffs(out)
    assert (got["A1"], got["A2"], got["A3"]) == (6.0, 7.5, 2.5)


def test_coeffs_birnbaum_saunders_example(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--model", "bs",
                           "--params", "phi=1")
    assert code == 0
    assert abs(_parse_coeffs(out)["A3"] - 15.625) <= 1e-12


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_coeffs_route_agreement_below_threshold(capsys, model_id):
    for route in ("general", "specialized"):
        code, out, _ = run_cli(capsys, "coeffs", "--model", model_id,
                               "--route", route)
        assert code == 0
        got = _parse_coeffs(out)
        assert got["delta"] < 1e-8
        assert abs(got["R0"] + got["R1"] + got["R2"] + got["R3"]) <= 1e-9


def test_coeffs_output_is_thin_wrapper(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--model", "exponential",
                           "--route", "specialized")
    assert code == 0
    assert "route agreement: max |general - specialized|" in out
    # the default route prints the same
    assert run_cli(capsys, "coeffs", "--model", "exponential") == (0, out, "")
    got = _parse_coeffs(out)
    coef = make_model("exponential").specialized_coefficients(np.array([1.0]))
    for key in ("A1", "A2", "A3", "R0", "R1", "R2", "R3"):
        assert got[key] == getattr(coef, key)


@pytest.mark.parametrize("argv", [
    *(("test", "--model", m, "--theta10", v)
      for m, v in [("exponential", "-1"), ("exponential", "nan"),
                   ("exponential", "inf"), ("birnbaum-saunders", "-1"),
                   ("birnbaum-saunders", "inf"),
                   ("two-parameter-normal", "inf"),
                   ("two-parameter-normal", "nan"),
                   ("two-sample-exponential", "-1"),
                   ("gamma-rate", "1e308")]),
    ("coeffs", "--model", "two-parameter-normal", "--params", "phi=nan"),
    *((cmd, "--model", "gamma-rate", "--params", "phi=1e308", *flags)
      for cmd, flags in [("coeffs", ()),
                         ("simulate", ("--n", "5:6", "--reps", "10")),
                         ("cdf-study", ("--n", "6", "--reps", "10"))]),
], ids=lambda argv: " ".join(argv[2:]))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_parameter_values_exit_2(capsys, tmp_path, argv):
    # non-finite numbers stop at the parser; out-of-range ones and overflow
    # are library errors that the command reports instead of a traceback
    # or a numpy warning
    if argv[0] == "test":
        rows = ("1.1,0.8", "0.4,1.9", "2.3,0.7", "0.9,1.2", "1.7,2.5")
        if argv[2] != "two-sample-exponential":
            rows = [r.partition(",")[0] for r in rows]
        argv += ("--data", _write(tmp_path / "x.csv", "\n".join(rows)))
    elif argv[0] != "coeffs":
        argv += ("--seed", "1", "--out", str(tmp_path / "x.csv"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("coeffs", "--model", "exponential", "--params", "phi=1e-110"),
    ("test", "--model", "exponential", "--theta10", "1e-110"),
    ("coeffs", "--model", "gamma-rate", "--params", "phi=1e-300"),
    ("coeffs", "--model", "birnbaum-saunders", "--params",
     "phi=1e-120,beta=1"),
], ids=lambda argv: " ".join(argv[2:]))
def test_tiny_parameter_values_exit_2(capsys, tmp_path, argv):
    # a power of the parameter underflows to zero in a family's cumulants
    if argv[0] == "test":
        argv += ("--data", _write(tmp_path / "x.csv", "1.1\n0.4\n2.3\n0.9"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("error: numeric underflow; a parameter or an observation "
                   "is too small\n")


@pytest.mark.parametrize("argv", [
    ("coeffs", "--params", "phi=1,beta=1e-160"),
    ("test", "--theta10", "1", "--data", "bs.txt"),
], ids=lambda argv: argv[0])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_birnbaum_saunders_underflow_prints_only_the_error(capsys, tmp_path,
                                                          monkeypatch, argv):
    # beta^2 underflows to zero in the cumulants, directly or through the
    # restricted fit of data scaled by 1e-150; a numpy scalar there would
    # print its divide warning ahead of the error
    monkeypatch.chdir(tmp_path)
    values = (0.6, 1.1, 0.9, 1.7, 0.4, 1.3, 0.8, 1.2, 2.1, 0.7,
              1.0, 0.5, 1.5, 0.9, 1.4, 0.6, 1.8, 1.1, 0.8, 1.6)
    _write(tmp_path / "bs.txt", "".join(f"{v}e-150\n" for v in values))
    code, out, err = run_cli(capsys, argv[0], "--model", "bs", *argv[1:])
    assert (code, out) == (2, "")
    assert err == ("error: numeric underflow; a parameter or an observation "
                   "is too small\n")


@pytest.mark.parametrize("theta10", ["1e-200", "1e200"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_birnbaum_saunders_extreme_null_reports_overflow(capsys, tmp_path,
                                                         theta10):
    # phi0^2 underflows to 0 at 1e-200: the one-row fit's scalar arithmetic
    # must give inf or NaN there, as an array does, not a ZeroDivisionError,
    # which the command would report as an underflow
    data = _write(tmp_path / "x.csv", "1.1\n0.4\n2.3\n0.9\n1.7")
    code, out, err = run_cli(capsys, "test", "--model", "birnbaum-saunders",
                             "--theta10", theta10, "--data", data)
    assert (code, out) == (2, "")
    assert err == ("error: numeric overflow; a parameter or an observation "
                   "is too large\n")


def test_coeffs_inverse_normal_known_shape(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--model", "inverse-normal",
                           "--params", "known=shape,shape=2,mu=3")
    assert code == 0
    got = _parse_coeffs(out)
    assert abs(got["A2"] - 67.5) <= 1e-9
    assert abs(got["A3"] - 67.5) <= 1e-9


def test_coeffs_rejects_unknown_constant(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--model", "exponential",
                           "--params", "rate=2")
    assert code == 2 and "constants" in err


def test_coeffs_refuses_a_parameter_outside_the_space(capsys):
    code, stdout, err = run_cli(capsys, "coeffs", "--model",
                                "birnbaum-saunders", "--params", "phi=-1")
    assert (code, stdout, err) == (
        2, "", "error: birnbaum-saunders: phi must exceed 0.0, got -1.0\n")


def test_simulate_grid_shape_and_determinism(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--model", "bs", "--n", "5:22", "--reps", "40",
            "--alpha", "0.05", "--seed", "42"]
    code, msg, _ = run_cli(capsys, *args, "--out", str(out1))
    assert code == 0
    assert "wrote 36 rows" in msg
    lines = out1.read_text().splitlines()
    assert lines[0] == "n,alpha,procedure,rejections,replicates,rate,distortion,se"
    assert len(lines) == 1 + 18 * 2
    code, _, _ = run_cli(capsys, *args, "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_is_thin_wrapper(capsys, tmp_path):
    cli_out = tmp_path / "cli.csv"
    code, _, _ = run_cli(capsys, "simulate", "--model", "exponential",
                         "--n", "6,9", "--reps", "200", "--seed", "7",
                         "--out", str(cli_out))
    assert code == 0
    lib_out = tmp_path / "lib.csv"
    cfg = SimulationConfig(model_id="exponential", theta=(1.0,),
                           theta10=(1.0,), sizes=(6, 9), replicates=200,
                           alphas=(0.05,), seed=7,
                           procedures=("uncorrected", "corrected_statistic"))
    write_size_csv(run_size_study(cfg), lib_out)
    assert cli_out.read_bytes() == lib_out.read_bytes()


def test_simulate_requires_seed(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "exponential", "--n", "6", "--reps",
              "10", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_simulate_rejects_malformed_grid(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--model", "exponential",
                           "--n", "5..22", "--reps", "10", "--seed", "1",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2 and "--n" in err


@pytest.mark.parametrize("flags", (
    ("--n", "8,8"), ("--n", "8,13", "--alpha", "0.05,0.1,0.05"),
    ("--n", "8", "--procedures", "uncorrected,uncorrected")))
def test_simulate_rejects_repeated_values(capsys, tmp_path, flags):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "simulate", "--model", "exponential",
                           "--reps", "400", "--seed", "1", "--out", str(out),
                           *flags)
    assert code == 2 and "must not repeat" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ("simulate", "cdf-study"))
@pytest.mark.parametrize("flags, message", (
    (("--theta", "1,2"), "theta must have 1 value(s) for exponential, got 2"),
    (("--model", "bs", "--theta", "1"),
     "theta must have 2 value(s) for birnbaum-saunders, got 1"),
    (("--theta10", "1,2"),
     "theta10 must have 1 value(s) for exponential, got 2"),
    (("--model", "two-parameter-normal", "--theta", "0,-1", "--theta10",
      "0"), "two-parameter-normal: beta must exceed 0.0, got -1.0"),
    *((("--n=" + n,), f"sample sizes must be integers >= 2, got ({n},)")
      for n in ("0", "-3", "1")),
    (("--n=4294967296",), "sample size n=4294967296 must be below 2**32"),
    (("--reps", "0"), "replicates must be an integer >= 1, got 0"),
    *((("--seed", s), f"seed must be a 64-bit integer, got {s}")
      for s in ("-1", "18446744073709551616")),
), ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_study_commands_reject_bad_inputs_alike(capsys, tmp_path, command,
                                                flags, message):
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, command, "--model", "exponential",
                                "--n", "6", "--reps", "10", "--seed", "1",
                                "--out", str(out), *flags)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ("simulate", "cdf-study"))
@pytest.mark.parametrize("where, reason", (
    ("missing/x.csv", "No such file or directory"), ("", "Is a directory")))
def test_study_commands_report_unwritable_output(capsys, tmp_path,
                                                 monkeypatch, command,
                                                 where, reason):
    # the path is checked before the study runs
    calls = []
    for study in ("run_size_study", "run_cdf_study"):
        monkeypatch.setattr(sim, study, lambda *a, **kw: calls.append(a))
    path = str(tmp_path / where)
    code, stdout, err = run_cli(capsys, command, "--model", "exponential",
                                "--n", "6", "--reps", "10", "--seed", "1",
                                "--out", path)
    assert (code, stdout, err) == (2, "",
                                   f"error: cannot write {path}: {reason}\n")
    assert calls == []


@pytest.mark.parametrize("command", ("simulate", "cdf-study"))
def test_study_commands_check_output_before_inputs(capsys, tmp_path,
                                                   command):
    # two faults at once: the path is checked before the study checks
    # its inputs, and nothing is left behind
    path = str(tmp_path / "missing" / "x.csv")
    code, stdout, err = run_cli(capsys, command, "--model", "exponential",
                                "--theta", "1,2", "--n", "6", "--reps", "10",
                                "--seed", "1", "--out", path)
    assert (code, stdout, err) == (
        2, "", f"error: cannot write {path}: No such file or directory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, models", (("simulate", None),
                                             ("cdf-study", 1)))
def test_study_commands_check_their_inputs_once(capsys, tmp_path,
                                                monkeypatch, command, models):
    # the command parses the flags and the study checks them once, so the
    # null coefficients are evaluated once; cdf-study builds no config
    import gradcorr.cli as cli
    from gradcorr.models.base import ModelFamily
    calls = {"coefficients": 0, "make_model": 0}

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(ModelFamily, "coefficients",
                        counted("coefficients", ModelFamily.coefficients))
    for module in (cli, sim):
        monkeypatch.setattr(module, "make_model",
                            counted("make_model", module.make_model))
    code, _, err = run_cli(capsys, command, "--model", "exponential", "--n",
                           "6", "--reps", "10", "--seed", "1", "--out",
                           str(tmp_path / "x.csv"))
    assert (code, err, calls["coefficients"]) == (0, "", 1)
    assert models is None or calls["make_model"] == models


@pytest.mark.parametrize("error, code", (
    (ValueError, 2), (NotImplementedError, 2), (FitError, 3),
    (SimulationError, 3)))
def test_main_maps_library_errors_to_exit_codes(capsys, tmp_path,
                                                monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error("no study")

    monkeypatch.setattr(sim, "run_size_study", fail)
    monkeypatch.setattr(sim, "run_cdf_study", fail)
    # the check of --out before the study makes an empty file, which the
    # failed study removes again; a file that was there keeps its bytes
    new, old = tmp_path / "new.csv", _write(tmp_path / "old.csv", "kept\n")
    for command in ("simulate", "cdf-study"):
        for out in (str(new), old):
            got = run_cli(capsys, command, "--model", "exponential", "--n",
                          "6", "--reps", "10", "--seed", "1", "--out", out)
            assert got == (code, "", "error: no study\n")
    assert not new.exists()
    assert Path(old).read_text() == "kept\n"


@pytest.mark.parametrize("model, params, message", (
    ("normal-mean-known", "mu=abc", "mu must be a number, got 'abc'"),
    ("gamma", "k=abc", "k must be a number, got 'abc'"),
    ("exponential", "zz=1",
     "model 'exponential' does not accept constants ['zz']")))
def test_test_command_names_the_bad_constant(capsys, exp_data, model, params,
                                             message):
    code, out, err = run_cli(capsys, "test", "--model", model, "--params",
                             params, "--data", exp_data, "--theta10", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


_STUDY = "--reps 10 --seed 1 --out x.csv"
_UNKNOWN = ("error: unknown model 'no-such'; available: "
            + ", ".join(sorted(builtin_models())) + "\n")


@pytest.mark.parametrize("case", (
    ("coeffs --model exponential --params phi", 2, (),
     "error: --params entries must look like key=value, got 'phi'\n"),
    ("coeffs --model exponential --params =1", 2, (),
     "error: --params entry has an empty key: '=1'\n"),
    # the model is resolved before --params is parsed
    ("coeffs --model no-such --params =1", 2, (), _UNKNOWN),
    ("coeffs --model exponential --params phi=abc", 2, (),
     "error: --params phi must be numeric, got 'abc'\n"),
    ("test --model exponential --data exp.txt --theta10 abc", 2, (),
     "error: --theta10 must be a comma list of numbers, got 'abc'\n"),
    (f"simulate --model exponential --n 6 {_STUDY} --alpha x", 2, (),
     "error: --alpha must be a comma list of numbers, got 'x'\n"),
    (f"simulate --model exponential --n 5:6:7:8 {_STUDY}", 2, (),
     "error: --n range must be lo:hi or lo:hi:step, got '5:6:7:8'\n"),
    (f"simulate --model exponential --n a:9 {_STUDY}", 2, (),
     "error: --n range bounds must be integers, got 'a:9'\n"),
    (f"simulate --model exponential --n 9:5 {_STUDY}", 2, (),
     "error: --n range is empty: '9:5'\n"),
    ("test --model exponential --data empty.txt --theta10 1", 2, (),
     "error: empty.txt: no numeric data found\n"),
    ("test --model exponential --data ragged.csv --theta10 1", 2, (),
     "error: ragged.csv, line 2: expected 1 column(s)\n"),
    ("test --model exponential --data exp.txt --data2 exp.txt --theta10 1",
     2, (), "error: model 'exponential' takes a single sample; --data2 is "
            "not accepted\n"),
    ("test --model exponential --data two.csv --theta10 1", 2, (),
     "error: two.csv: expected a single column, found 2\n"),
    ("test --model two-sample-exponential --data two.csv --data2 exp.txt "
     "--theta10 1", 2, (),
     "error: two.csv: expected a single column, found 2\n"),
    ("test --model two-sample-exponential --data exp.txt --data2 two.csv "
     "--theta10 1", 2, (),
     "error: two.csv: expected a single column, found 2\n"),
    ("test --model two-sample-exponential --data exp.txt --theta10 1", 2, (),
     "error: exp.txt: two-sample data needs two columns (or a second file "
     "via --data2)\n"),
    # S = 9801 at n = 1: far outside the expansion's regime
    ("test --model exponential --data far.txt --theta10 1", 0,
     ("  warning: correction polynomial 1.07e+07 outside asymptotic regime "
      "(|.| > 0.5)",
      "  warning: corrected statistic -1.05e+11 is negative"), ""),
    # at phi = 1.5e15 a Pareto draw can round to the scale k, where the
    # shape MLE does not exist
    ("simulate --model pareto --theta 1.5e15 --n 2:3 --reps 200 --seed 1 "
     "--out x.csv", 0,
     ("  n=2: 9 replicate(s) failed to fit",
      "  n=3: 1 replicate(s) failed to fit"), ""),
    ("cdf-study --model pareto --theta 1.5e15 --n 2 --reps 200 --seed 1 "
     "--out x.csv", 0, ("  9 replicate(s) failed to fit",), ""),
), ids=lambda case: case[0])
def test_cli_messages(capsys, tmp_path, monkeypatch, case):
    # every error case prints one exact line on stderr and nothing on
    # stdout; a run that succeeds prints its warning or failure lines last
    argv, code, lines, err = case
    monkeypatch.chdir(tmp_path)
    for name, text in (("exp.txt", "1.0\n1.2\n1.8\n2.0\n"),
                       ("empty.txt", "value\n\n"),
                       ("ragged.csv", "1.0\n2.0,3.0\n"),
                       ("two.csv", "1.0,2.0\n3.0,2.0\n"),
                       ("far.txt", "100\n")):
        _write(tmp_path / name, text)
    got = run_cli(capsys, *argv.split())
    assert (got[0], got[2]) == (code, err)
    if code:
        assert got[1] == ""
    else:
        assert tuple(got[1].splitlines()[-len(lines):]) == lines


def test_simulate_reports_failures_in_size_order(capsys, tmp_path):
    # the failure lines follow --n, as the CSV rows do, not sorted by n
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(
        capsys, "simulate", "--model", "pareto", "--theta", "1.5e15", "--n",
        "3,2", "--reps", "200", "--seed", "1", "--out", str(out))
    assert (code, err) == (0, "")
    assert stdout.splitlines()[-2:] == [
        "  n=3: 1 replicate(s) failed to fit",
        "  n=2: 9 replicate(s) failed to fit"]
    sizes = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert sizes == ["3", "3", "2", "2"]


@pytest.mark.parametrize("params", ("k=2,k=3", "phi=1,k=2,phi=2"))
def test_repeated_params_key_exits_2(capsys, exp_data, params):
    key = params.partition("=")[0]
    for argv in (("coeffs",), ("test", "--data", exp_data, "--theta10", "1")):
        code, stdout, err = run_cli(capsys, *argv, "--model", "gamma",
                                    "--params", params)
        assert (code, stdout) == (2, ""), argv
        assert err == (f"error: --params key {key!r} must not repeat, "
                       f"got {params!r}\n"), argv


def test_cdf_study_writes_grid(capsys, tmp_path):
    out = tmp_path / "cdf.csv"
    code, msg, _ = run_cli(capsys, "cdf-study", "--model", "exponential",
                           "--n", "9", "--reps", "400", "--seed", "3",
                           "--out", str(out))
    assert code == 0
    assert "wrote 512 rows" in msg
    assert "sup |empirical - chisq|" in msg
    lines = out.read_text().splitlines()
    assert lines[0] == "x,f_empirical,f_chisq,f_expanded"
    assert len(lines) == 513


def test_birnbaum_saunders_study_outputs_keep_their_bytes(capsys, tmp_path):
    # digests of these seeded outputs as the row-per-data-set fits with one
    # Newton run per fit wrote them; a change to the BS fits must keep
    # every byte
    size_csv, cdf_csv = tmp_path / "size.csv", tmp_path / "cdf.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--model", "birnbaum-saunders", "--n", "5:22",
        "--reps", "500", "--alpha", "0.01,0.05,0.10", "--procedures",
        "uncorrected,corrected_statistic,expanded_cdf,modified_quantile",
        "--seed", "20260814", "--out", str(size_csv))
    assert code == 0
    assert hashlib.sha256(size_csv.read_bytes()).hexdigest() == (
        "6d7cc835ff4e5d60198cf7caedd0676c4e279b57a5d966a5781d6ca87a343b95")
    code, out, _ = run_cli(
        capsys, "cdf-study", "--model", "birnbaum-saunders", "--n", "10",
        "--reps", "20000", "--seed", "20260814", "--out", str(cdf_csv))
    assert code == 0
    assert hashlib.sha256(cdf_csv.read_bytes()).hexdigest() == (
        "c5f6da32460faadd3bb69c5075f9bbb1ead75363c11aa5ebd6f58707337762c8")
    assert out.splitlines()[1:] == [
        "  sup |empirical - chisq|    = 0.036186063582449857",
        "  sup |empirical - expanded| = 0.0066681179369829646"]


def test_birnbaum_saunders_test_near_a_double_root_passes(capsys, tmp_path):
    path = _write(tmp_path / "bs.txt", "437\n444\n")
    for theta10 in ("2.0", "2.00001"):
        code, out, err = run_cli(capsys, "test", "--model", "bs", "--data",
                                 path, "--theta10", theta10)
        assert code == 0 and err == "" and "S_star" in out, theta10


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    # the read end closes before the command prints, as when its output
    # is piped into a reader that has already quit
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    path = _write(tmp_path / "exp.txt", "1.0\n1.2\n1.8\n2.0\n")
    for argv in (["test", "--model", "exponential", "--data", path,
                  "--theta10", "1"],
                 ["coeffs", "--model", "birnbaum-saunders"],
                 # the CSV itself goes to the closed pipe
                 ["cdf-study", "--model", "exponential", "--n", "6",
                  "--reps", "10", "--seed", "1", "--out", "/dev/stdout"]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "gradcorr.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, b""), argv


def test_commands_import_only_what_they_run(tmp_path):
    # a command loads the family it runs and no other, test and coeffs
    # leave the study driver unimported, test leaves the cumulant layer of
    # the general route unimported and json unless it prints json, no
    # module that test loads defines a dataclass, and no command, a study
    # of several solves included, loads concurrent.futures
    src = str(Path(__file__).resolve().parents[1] / "src")
    watched = ("gradcorr.simulate", "gradcorr.cumulants",
               "gradcorr.models.one_param", "gradcorr.models.two_param",
               "gradcorr.models.birnbaum_saunders", "json",
               "concurrent.futures")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from gradcorr import cli; "
            "assert cli.main(sys.argv[2:]) == 0; "
            f"print([m for m in {watched!r} if m in sys.modules]); "
            "print([f'{n}.{k}' for n, m in list(sys.modules.items()) "
            "if n.startswith('gradcorr') for k, v in vars(m).items() "
            "if hasattr(v, '__dataclass_fields__')])")
    path = _write(tmp_path / "x.txt", "1.0\n1.2\n1.8\n2.0\n")
    test = ["test", "--data", path, "--theta10", "1", "--model"]
    study = ["simulate", "--model", "exponential", "--n", "6", "--seed", "1",
             "--out", str(tmp_path / "x.csv"), "--reps"]
    for argv, loaded in (
            (test + ["exponential"], ["gradcorr.models.one_param"]),
            (test + ["birnbaum-saunders", "--format", "text"],
             ["gradcorr.models.birnbaum_saunders"]),
            (test + ["exponential", "--format", "csv"],
             ["gradcorr.models.one_param"]),
            (test + ["exponential", "--format", "json"],
             ["gradcorr.models.one_param", "json"]),
            (["coeffs", "--model", "birnbaum-saunders"],
             ["gradcorr.cumulants", "gradcorr.models.birnbaum_saunders"])):
        done = subprocess.run([sys.executable, "-c", code, src, *argv],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert done.stdout.splitlines()[-2:] == [str(loaded), "[]"], argv
    for reps in ("10", "5000"):     # 5000: solves of 4,096 and 904
        done = subprocess.run([sys.executable, "-c", code, src,
                               *study, reps], capture_output=True,
                              text=True, timeout=60, check=True)
        last = done.stdout.splitlines()[-2]
        assert "gradcorr.simulate" in last, reps
        assert "concurrent.futures" not in last, reps


def test_cdf_study_rejects_size_list(capsys, tmp_path):
    code, _, err = run_cli(capsys, "cdf-study", "--model", "exponential",
                           "--n", "9,12", "--reps", "10", "--seed", "3",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2 and "single" in err


def test_simulate_rejects_odd_two_sample_size(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "simulate", "--model",
                           "two-sample-exponential", "--n", "5", "--reps",
                           "10", "--seed", "3", "--out", str(out))
    assert (code, err) == (2, "error: total sample size must be even, "
                              "got 5\n")
    assert not out.exists()


def test_simulate_rejects_odd_size_in_a_later_count_group(capsys, tmp_path):
    # the odd size is drawn in the second of three solves
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "simulate", "--model",
                           "two-sample-exponential", "--n", "6,7", "--reps",
                           "5000", "--seed", "3", "--out", str(out))
    assert (code, err) == (2, "error: total sample size must be even, "
                              "got 7\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", (
    (("simulate", "--n", "8", "--reps", "10", "--seed", "1", "--alpha",
      "0.05,1e-17", "--out", "x.csv"), "levels must lie in (0,1), with 1 - level below 1 "
     "in floating point, got (0.05, 1e-17)"),
    (("test", "--data", "exp.txt", "--theta10", "1", "--gamma", "1e-17"),
     "gamma must lie in (0,1), with 1 - gamma below 1 in floating point, "
     "got 1e-17")), ids=("simulate", "test"))
def test_levels_that_leave_one_minus_level_at_one_exit_2(capsys, tmp_path,
                                                         monkeypatch, argv,
                                                         message):
    # 1 - 1e-17 rounds to 1.0: the level is refused by name, not as a
    # chi-square quantile at p = 1, and a study refuses it before any draw
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "exp.txt", "1.0\n1.2\n1.8\n2.0\n")
    code, out, err = run_cli(capsys, *argv, "--model", "exponential")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "x.csv").exists()


def test_readme_commands_parse():
    # every documented command line must still parse and name a known model
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [shlex.split(line)[1:]
                for line in text.replace("\\\n", " ").splitlines()
                if line.strip().startswith("gradcorr ")]
    assert len(commands) >= 6
    for argv in commands:
        args = build_parser().parse_args(argv)
        assert args.model in ALIASES or args.model in builtin_models(), argv


@pytest.mark.parametrize("command", ("test", "coeffs", "simulate",
                                     "cdf-study"))
def test_model_help_names_every_id_and_alias(capsys, command):
    # the --model help is the one place that lists the models; argparse
    # may wrap it at a hyphen, so all whitespace is dropped before matching
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    text = "".join(capsys.readouterr().out.split())
    for model_id in builtin_models():
        assert model_id in text, model_id
    for alias, model_id in ALIASES.items():
        assert f"{alias}={model_id}" in text, alias
