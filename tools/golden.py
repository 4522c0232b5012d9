"""Rewrite the golden digest table that tests/test_golden.py checks.

    python tools/golden.py

For each of the 12 built-in families, and for six families again at a
constant other than its default, the table holds digests of the seeded
outputs that must keep every byte:

    simulate       sha256 of the `gradcorr simulate` CSV: sizes 6, 10
                   and 20, 1,000 replicates, all four procedures, alpha
                   0.01, 0.05 and 0.10;
    cdf_study      sha256 of the `gradcorr cdf-study` CSV at n = 10 with
                   4,097 replicates, so that one block boundary is
                   crossed;
    sup_chisq,     float.hex of the two sup distances it prints;
    sup_expanded
    batch_null,    sha256 of the bytes of ``batch_statistics`` S on one
    batch_away     seeded (50, 10) data matrix;
    test_null,     sha256 of `gradcorr test --format json` stdout on one
    test_away      more seeded data set of 10 values, and test_text_* and
                   test_csv_* of its text and csv formats;
    specialized_*, float.hex of A1, A2 and A3 from each coefficient route
    general_*      at theta, 1.5 theta + 0.25 and 0.5 theta + 0.1
                   (suffixes theta, up and down), theta the default point.

A null is the default theta's tested components; away from it is 1.5
times the null plus 0.25, so that a null of 0 moves too.  Every command
runs in-process on the gradcorr sources of this checkout.  The script
writes tests/golden.json there and prints each entry that moved: a
change that promises the same numbers moves none, and one that moves an
entry names it with the reason.  Pytest does not collect this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from gradcorr.cli import main as cli  # noqa: E402
from gradcorr.models.catalog import MODEL_IDS, make_model  # noqa: E402

TABLE = ROOT / "tests" / "golden.json"
SEED = 20261020
PROCEDURES = "uncorrected,corrected_statistic,expanded_cdf,modified_quantile"
# key -> (family id, constants), each family at its default constants and
# six at another
CASES = {model_id: (model_id, {}) for model_id in MODEL_IDS}
CASES.update({f"{model_id} {key}={value}": (model_id, {key: value})
              for model_id, key, value in (
                  ("gamma-rate", "k", 2.5),
                  ("normal-mean-known", "mu", 0.3),
                  ("laplace-scale", "center", -0.4),
                  ("inverse-normal", "known", "shape"),
                  ("pareto-shape", "k", 2.5),
                  ("power-shape", "theta", 2.5))})
# coefficient point suffix -> (scale, shift) of the default theta
POINTS = {"theta": (1.0, 0.0), "up": (1.5, 0.25), "down": (0.5, 0.1)}


def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(*argv) -> str:
    """Standard output of the gradcorr command line with argv, run
    in-process; its error messages are dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        cli([str(a) for a in argv])
    return out.getvalue()


def entry(key) -> dict:
    """The digests of the case named key."""
    model_id, constants = CASES[key]
    model = make_model(model_id, **constants)
    params = ",".join(f"{k}={v}" for k, v in constants.items())
    theta = np.asarray(model.default_theta, dtype=float)
    nulls = {"null": theta[:model.q], "away": 1.5 * theta[:model.q] + 0.25}
    flags = ("--model", model_id, "--params", params, "--seed", SEED)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        size_csv, cdf_csv = Path(tmp, "size.csv"), Path(tmp, "cdf.csv")
        data = Path(tmp, "data.csv")
        _run("simulate", *flags, "--n", "6,10,20", "--reps", 1000,
             "--alpha", "0.01,0.05,0.10", "--procedures", PROCEDURES,
             "--out", size_csv)
        digests["simulate"] = _sha256(size_csv.read_bytes())
        sups = _run("cdf-study", *flags, "--n", 10, "--reps", 4097,
                    "--out", cdf_csv).splitlines()[1:3]
        digests["cdf_study"] = _sha256(cdf_csv.read_bytes())
        for name, line in zip(("sup_chisq", "sup_expanded"), sups):
            digests[name] = float(line.rpartition("=")[2]).hex()
        x = model.sample(theta, (51, 10), np.random.default_rng(SEED))
        for where, null in nulls.items():
            S, _ = model.batch_statistics(x[:50], null)
            digests[f"batch_{where}"] = _sha256(S.tobytes())
        # a two-sample row is sample 1 then sample 2: two CSV columns
        rows = x[50].reshape(model.samples, -1).T
        data.write_text("".join(",".join(map(repr, row.tolist())) + "\n"
                                for row in rows))
        for where, null in nulls.items():
            for fmt, prefix in (("json", "test"), ("text", "test_text"),
                                ("csv", "test_csv")):
                digests[f"{prefix}_{where}"] = _sha256(_run(
                    "test", "--model", model_id, "--params", params,
                    "--data", data, "--theta10",
                    ",".join(map(repr, null.tolist())), "--format",
                    fmt).encode())
    routes = {"specialized": model.specialized_coefficients,
              "general": model.general_coefficients}
    for suffix, (scale, shift) in POINTS.items():
        for route, coefficients in routes.items():
            coef = coefficients(scale * theta + shift)
            digests[f"{route}_{suffix}"] = ",".join(
                float(a).hex() for a in coef.as_tuple())
    return digests


def table() -> dict:
    """The whole table, case by case."""
    return {key: entry(key) for key in CASES}


def main() -> int:
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    new = table()
    moved = [f"{key} {name}" for key in sorted(set(old) | set(new))
             for name in sorted(set(old.get(key, {}))
                                | set(new.get(key, {})))
             if old.get(key, {}).get(name) != new.get(key, {}).get(name)]
    TABLE.write_text(json.dumps(new, indent=2) + "\n")
    for line in moved:
        print(f"moved: {line}")
    print(f"wrote {len(new)} cases to {TABLE}, {len(moved)} entries moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
