"""The benchmark's workloads: their inputs, timed operation and gates.

Each workload is built from the workload seed and a scratch directory
inside the checkout.  ``op()`` runs one unit call (one study, one test,
or one pass over the coefficient bundles) and returns the work units it
finished and how many of them failed; ``gate()`` checks every output the
calls produced and returns the problems found.  The package is driven
through its public modules by attribute lookup at call time, so the
tracer's wrappers see every call.

Inputs the program receives are generated here with the benchmark's own
generators (``np.random.default_rng``), never with the package's Philox
streams, so a change to the package's RNG cannot change them.  The
Monte Carlo studies take a seed derived from the workload seed, which the
package turns into its own streams.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import zlib
from pathlib import Path

import numpy as np
from scipy import special as sp

from gradcorr import cli, correction, expansion, models, simulate
from gradcorr.cumulants import CumulantBundle, HypothesisSpec

__all__ = ["WORKLOADS", "REFERENCE_SEED", "make", "rng_for"]

REFERENCE_SEED = 2012          # inputs behind the stored reference values
REFERENCE_PATH = Path(__file__).with_name("reference.json")
_Z_GATE = 5.0                  # binomial standard errors allowed
_MAX_FAIL = 0.05


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """Independent benchmark-side stream per (workload seed, purpose)."""
    return np.random.default_rng([seed, zlib.crc32(purpose.encode())])


def _study_seed(seed: int, purpose: str) -> int:
    return int(rng_for(seed, purpose).integers(2**63))


def _close(a: float, b: float, rel: float, abs_floor: float = 0.0) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b)) + abs_floor


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _array_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _reference(section: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[section]


def _specialized(model, theta):
    """The `gradcorr test` coefficient route: specialized, else general."""
    try:
        return model.specialized_coefficients(theta)
    except NotImplementedError:
        return model.general_coefficients(theta)


# -- families and their data ---------------------------------------------------

def _bs(theta, n, rng):
    phi, beta = theta
    t = 0.5 * phi * rng.standard_normal(n)
    return beta * (t + np.sqrt(t * t + 1.0)) ** 2


def _two_sample(theta, n, rng):
    phi, beta = theta
    m = (n + 1) // 2                      # equal halves; odd n rounds up
    rp = math.sqrt(phi)
    return (rng.exponential(beta / rp, m), rng.exponential(beta * rp, m))


# id -> (theta under the null, theta away from it, sampler); every family
# tests its first component, at the null value theta_null[0]
FAMILIES = {
    "exponential": ((1.0,), (1.5,),
                    lambda th, n, rng: rng.exponential(th[0], n)),
    "normal-mean-known": ((1.0,), (1.8,),
                          lambda th, n, rng: rng.normal(0.0, math.sqrt(th[0]),
                                                        n)),
    "normal-variance-known": ((0.0,), (0.5,),
                              lambda th, n, rng: rng.normal(th[0], 1.0, n)),
    "inverse-normal": ((1.0,), (2.0,),
                       lambda th, n, rng: rng.wald(1.0, th[0], n)),
    "gamma-rate": ((1.0,), (1.5,),
                   lambda th, n, rng: rng.gamma(1.0, 1.0 / th[0], n)),
    "truncated-extreme-value": ((1.0,), (1.5,),
                                lambda th, n, rng: np.log1p(
                                    rng.exponential(th[0], n))),
    "pareto-shape": ((1.0,), (1.5,),
                     lambda th, n, rng: np.exp(rng.exponential(1.0 / th[0],
                                                               n))),
    "power-shape": ((1.0,), (1.5,),
                    lambda th, n, rng: np.exp(-rng.exponential(1.0 / th[0],
                                                               n))),
    "laplace-scale": ((1.0,), (1.5,),
                      lambda th, n, rng: rng.laplace(0.0, th[0], n)),
    "two-parameter-normal": ((0.0, 1.0), (0.5, 1.0),
                             lambda th, n, rng: rng.normal(
                                 th[0], math.sqrt(th[1]), n)),
    "two-sample-exponential": ((1.0, 1.0), (1.8, 1.0), _two_sample),
    "birnbaum-saunders": ((1.0, 1.0), (1.5, 1.0), _bs),
}
TEST_SIZES = (5, 10, 20, 50, 200)


def make_cases(seed: int, copies: int = 1) -> list:
    """(model id, n, 'null' or 'away', data, theta10): `copies` data sets
    for every family, size and side of the null."""
    rng = rng_for(seed, "single-test data")
    cases = []
    for model_id, (null, away, sampler) in FAMILIES.items():
        for n in TEST_SIZES:
            for where, theta in (("null", null), ("away", away)):
                for _ in range(copies):
                    cases.append((model_id, n, where, sampler(theta, n, rng),
                                  np.array(null[:1])))
    return cases


def write_data(path: Path, data) -> None:
    """One observation per line; two-sample data as two columns."""
    if isinstance(data, tuple):
        lines = (f"{a!r},{b!r}" for a, b in zip(*(map(float, x)
                                                  for x in data)))
    else:
        lines = (repr(float(v)) for v in data)
    path.write_text("\n".join(lines) + "\n")


def run_one_test(model, data, theta10):
    """The library calls of `gradcorr test`, in its order."""
    model.validate_data(data)
    stat = models.gradient_statistic(model, data, theta10)
    theta_tilde = model.fit_restricted(data, theta10)
    coef = _specialized(model, theta_tilde)
    report = correction.run_test(stat.value, coef, model.q, stat.n,
                                 gamma=0.05)
    return stat, report


REPORT_FIELDS = ("S", "S_star", "p_asymptotic", "p_expanded", "p_corrected",
                 "z_modified")


def run_cli(argv) -> tuple:
    """In-process cli.main; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def check_test_json(text: str, stat, report) -> list:
    """Problems where `gradcorr test --format json` differs from the library."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"CLI json output does not parse: {exc}"]
    want = {k: getattr(report, k) for k in REPORT_FIELDS}
    want.update({k: getattr(report.coefficients, k)
                 for k in ("A1", "A2", "A3", "R0", "R1", "R2", "R3")})
    got = dict(payload.get("coefficients", {}))
    got.update({k: payload.get(k) for k in REPORT_FIELDS})
    bad = [k for k, v in want.items()
           if not isinstance(got.get(k), (int, float))
           or not _close(float(got[k]), float(v), 1e-12)]
    if payload.get("n") != stat.n:
        bad.append("n")
    return [f"CLI json differs from the library in {', '.join(bad)}"] \
        if bad else []


def _test_argv(model_id: str, path: Path) -> list:
    theta10 = FAMILIES[model_id][0][0]
    return ["test", "--model", model_id, "--data", str(path),
            "--theta10", repr(theta10), "--format", "json"]


class _Workload:
    """One workload: a fixed set of inputs, one of which each op() runs.

    op() returns (input key, units finished, units failed); the keys cycle
    through the inputs in a seeded order, so every input is timed many
    times in a run.
    """

    name = ""
    unit = ""
    model_ids: tuple = ()
    n_inputs = 1
    latency = "pass"           # what a user waits for: a pass or one input

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.counters = {}

    def cli_probe(self):
        """A `gradcorr test` argv on a seeded BS file, with library values."""
        rng = rng_for(self.seed, "cli probe")
        data = _bs((1.0, 1.0), 20, rng)
        path = self.tmp / "probe.csv"
        write_data(path, data)
        model = models.make_model("birnbaum-saunders")
        stat, report = run_one_test(model, data, np.array([1.0]))
        return _test_argv("birnbaum-saunders", path), stat, report


def _same_digests(tmp: Path, writer, outputs) -> tuple:
    """(digest of the first output, problems) over repeated outputs."""
    digests = []
    for out in outputs:
        path = tmp / "repeat.csv"
        writer(out, path)
        digests.append(_digest(path))
    problems = [] if len(set(digests)) == 1 else [
        f"{len(set(digests))} different CSV digests across repetitions of "
        "one configuration"]
    return digests[0], problems


# -- Monte Carlo ---------------------------------------------------------------

class McSize(_Workload):
    """Birnbaum-Saunders size study, the paper's headline experiment.

    Each timed call is the whole study (n = 5..22, four procedures, three
    levels) at 500 replicates per n, short enough that a run times it
    dozens of times; the rate gate runs the same study once at 4,000.
    """

    name = "mc-bs-size"
    unit = "replicates"
    model_ids = ("birnbaum-saunders",)

    def __init__(self, seed, tmp, replicates=500, gate_replicates=4000):
        super().__init__(seed, tmp)
        study_seed = _study_seed(seed, self.name)
        self.config = self.study_config(study_seed, replicates)
        self.gate_config = self.study_config(study_seed, gate_replicates)
        self.results = []

    @staticmethod
    def study_config(seed, replicates):
        return simulate.SimulationConfig(
            model_id="birnbaum-saunders", theta=(1.0, 1.0), theta10=(1.0,),
            sizes=tuple(range(5, 23)), replicates=replicates,
            alphas=(0.01, 0.05, 0.10), seed=seed,
            procedures=simulate.PROCEDURES)

    def op(self):
        cfg = self.config
        units = len(cfg.sizes) * cfg.replicates
        try:
            result = simulate.run_size_study(cfg)
        except simulate.SimulationError:
            self.results.append(None)
            return 0, units, units
        self.results.append(result)
        return 0, units, sum(count for _, count in result.failures)

    def cli_command(self):
        cfg = self.config
        out = self.tmp / "size-cli.csv"
        argv = ["simulate", "--model", "birnbaum-saunders",
                "--params", "phi=1,beta=1", "--theta10", "1",
                "--n", "5:22", "--reps", "50", "--alpha", "0.01,0.05,0.1",
                "--procedures", ",".join(cfg.procedures),
                "--seed", str(cfg.seed), "--out", str(out)]
        want = self.tmp / "size-lib.csv"
        simulate.write_size_csv(simulate.run_size_study(
            dataclasses.replace(cfg, replicates=50)), want)
        return argv, lambda stdout: ([] if out.read_bytes() == want.read_bytes()
                                     else ["CLI simulate CSV differs from "
                                           "the library's"])

    def gate(self) -> list:
        if any(r is None for r in self.results):
            return ["a size study aborted on too many failed fits"]
        self.counters["digest"], problems = _same_digests(
            self.tmp, simulate.write_size_csv, self.results)
        self.counters["fit_failures"] = sum(
            c for _, c in self.results[0].failures)
        try:
            result = simulate.run_size_study(self.gate_config)
        except simulate.SimulationError as exc:
            return problems + [f"gate study aborted: {exc}"]
        worst_fail = max(count for _, count in result.failures)
        if worst_fail > _MAX_FAIL * self.gate_config.replicates:
            problems.append(f"{worst_fail} failed fits at one n")
        ref = {(n, a, p): (rej, reps) for n, a, p, rej, reps
               in _reference(self.name)["rows"]}
        worst = 0.0
        for row in result.rows:
            key = (row.n, row.alpha, row.procedure)
            if key not in ref:
                problems.append(f"no reference rate for {key}")
                continue
            rej, reps = ref[key]
            pooled = (rej + row.rejections) / (reps + row.replicates)
            se = math.sqrt(pooled * (1.0 - pooled)
                           * (1.0 / reps + 1.0 / row.replicates))
            diff = abs(row.rate - rej / reps)
            z = diff / se if se > 0.0 else (0.0 if diff == 0.0 else math.inf)
            worst = max(worst, z)
        self.counters["worst_z"] = worst
        if worst > _Z_GATE:
            problems.append(f"a rejection rate is {worst:.2f} combined "
                            "binomial SEs from the reference")
        return problems


def exponential_null_cdf(x, n: int):
    """Exact null CDF of S for the exponential family at phi = phi0 = 1.

    There S = n (xbar - 1)^2 with n xbar ~ Gamma(n, 1).
    """
    t = np.sqrt(np.asarray(x, dtype=float) / n)
    return (sp.gammainc(n, n * (1.0 + t))
            - sp.gammainc(n, n * np.maximum(1.0 - t, 0.0)))


class McCdf(_Workload):
    """Exponential CDF study: closed-form fit, so streams and sampling dominate.

    Each timed call is a 10,000-replicate study (one memory chunk); the
    gates run the same study once at 200,000 replicates.
    """

    name = "mc-exp-cdf"
    unit = "replicates"
    model_ids = ("exponential",)
    n = 10

    def __init__(self, seed, tmp, replicates=10_000, gate_replicates=200_000):
        super().__init__(seed, tmp)
        self.replicates = replicates
        self.gate_replicates = gate_replicates
        self.study_seed = _study_seed(seed, self.name)
        self.model = models.make_model("exponential")
        self.studies = []

    def study(self, replicates):
        return simulate.run_cdf_study(self.model, (1.0,), (1.0,), n=self.n,
                                      replicates=replicates,
                                      seed=self.study_seed)

    def op(self):
        try:
            study = self.study(self.replicates)
        except simulate.SimulationError:
            self.studies.append(None)
            return 0, self.replicates, self.replicates
        self.studies.append(study)
        return 0, self.replicates, study.failures

    def cli_command(self):
        out = self.tmp / "cdf-cli.csv"
        argv = ["cdf-study", "--model", "exponential", "--n", str(self.n),
                "--reps", "2000", "--seed", str(self.study_seed),
                "--out", str(out)]
        want = self.tmp / "cdf-lib.csv"
        simulate.write_cdf_csv(self.study(2000), want)
        return argv, lambda stdout: ([] if out.read_bytes() == want.read_bytes()
                                     else ["CLI cdf-study CSV differs from "
                                           "the library's"])

    def gate(self) -> list:
        if any(s is None for s in self.studies):
            return ["a CDF study aborted on too many failed fits"]
        self.counters["digest"], problems = _same_digests(
            self.tmp, simulate.write_cdf_csv, self.studies)
        self.counters["fit_failures"] = self.studies[0].failures
        try:
            s = self.study(self.gate_replicates)
        except simulate.SimulationError as exc:
            return problems + [f"gate study aborted: {exc}"]
        if s.failures > _MAX_FAIL * self.gate_replicates:
            problems.append(f"{s.failures} failed fits")
        if not s.sup_expanded < s.sup_chisq:
            problems.append(f"sup distance of the expansion {s.sup_expanded:.4g}"
                            f" is not below the chi-square's {s.sup_chisq:.4g}")
        m = self.gate_replicates - s.failures
        exact = exponential_null_cdf(s.x, self.n)
        se = np.maximum(np.sqrt(exact * (1.0 - exact) / m), 1e-300)
        z = float(np.max((np.abs(s.f_empirical - exact) - 1.0 / m) / se))
        self.counters["worst_z"] = max(z, 0.0)
        if z > _Z_GATE:
            problems.append(f"the empirical CDF is {z:.2f} binomial SEs from "
                            "the exact null CDF")
        self.counters["sup_chisq"] = s.sup_chisq
        self.counters["sup_expanded"] = s.sup_expanded
        return problems


# -- single tests --------------------------------------------------------------

class SingleTest(_Workload):
    """One caller in a closed loop running `gradcorr test`'s library calls."""

    name = "single-test"
    unit = "tests"
    model_ids = tuple(FAMILIES)
    latency = "median input"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.models = {m: models.make_model(m) for m in FAMILIES}
        # BS fits take a data-dependent number of steps; four data sets per
        # cell keep the cost of a pass from moving with the seed
        self.cases = make_cases(seed, copies=4)
        self.n_inputs = len(self.cases)
        order = rng_for(seed, "single-test order").permutation(len(self.cases))
        self.loop = itertools.cycle([int(i) for i in order])

    def op(self):
        key = next(self.loop)
        model_id, _, _, data, theta10 = self.cases[key]
        try:
            run_one_test(self.models[model_id], data, theta10)
        except (ValueError, models.FitError):
            return key, 1, 1
        return key, 1, 0

    def cli_command(self):
        argv, stat, report = self.cli_probe()
        return argv, lambda stdout: check_test_json(stdout, stat, report)

    def evaluate(self, cases) -> list:
        """Per case: None when the test raised, else (stat, report)."""
        out = []
        for model_id, _, _, data, theta10 in cases:
            try:
                out.append(run_one_test(self.models[model_id], data, theta10))
            except (ValueError, models.FitError):
                out.append(None)
        return out

    def reference_values(self) -> list:
        rows = []
        cases = make_cases(REFERENCE_SEED)
        for case, res in zip(cases, self.evaluate(cases)):
            model_id, n, where, data, _ = case
            rows.append({"model": model_id, "n": n, "where": where,
                         "digest": _array_digest(np.atleast_2d(data)),
                         "values": None if res is None else
                         [float(getattr(res[1], k)) for k in REPORT_FIELDS]})
        return rows

    def gate(self) -> list:
        problems = []
        results = self.evaluate(self.cases)
        fails = clamped = p_clamped = 0
        for (model_id, n, where, *_), res in zip(self.cases, results):
            if res is None:
                fails += 1
                continue
            stat, report = res
            clamped += stat.clamped
            p_clamped += any("clamped" in w for w in report.warnings)
            ps = (report.p_asymptotic, report.p_expanded, report.p_corrected)
            if not (math.isfinite(stat.value) and stat.value >= 0.0
                    and all(0.0 <= p <= 1.0 for p in ps)
                    and math.isfinite(report.z_modified)):
                problems.append(f"{model_id} n={n} {where}: S or a p-value "
                                "is out of range")
        self.counters.update(fit_failures=fails, clamped_S=clamped,
                             p_clamped=p_clamped)

        stored = _reference(self.name)
        current = self.reference_values()
        if len(stored) != len(current):
            problems.append("reference corpus has a different size")
        for want, got in zip(stored, current):
            where = f"{got['model']} n={got['n']} {got['where']}"
            if want["digest"] != got["digest"]:
                problems.append(f"{where}: reference data differ")
            elif (want["values"] is None) != (got["values"] is None):
                problems.append(f"{where}: raised differently")
            elif want["values"] is not None and not all(
                    _close(a, b, 1e-10, 1e-14)
                    for a, b in zip(want["values"], got["values"])):
                problems.append(f"{where}: S or p-values differ from the "
                                "stored reference beyond 1e-10")

        # the CLI's json output equals the library's values, every family
        for model_id, n, where, data, theta10 in make_cases(self.seed):
            if n != 10 or where != "null":
                continue
            path = self.tmp / f"{model_id}.csv"
            write_data(path, data)
            code, text = run_cli(_test_argv(model_id, path))
            if code != 0:
                problems.append(f"gradcorr test exited {code} on {model_id}")
                continue
            stat, report = run_one_test(self.models[model_id], data, theta10)
            problems += [f"{model_id}: {p}"
                         for p in check_test_json(text, stat, report)]
        return problems


# -- coefficient engine --------------------------------------------------------

def _symmetrize(a: np.ndarray, axes) -> np.ndarray:
    """Average of a over every permutation of the given axes."""
    perms = list(itertools.permutations(axes))
    out = np.zeros_like(a)
    for perm in perms:
        order = list(range(a.ndim))
        for src, dst in zip(axes, perm):
            order[src] = dst
        out += a.transpose(order)
    return out / len(perms)


def random_bundle(p: int, rng) -> dict:
    """Arrays with CumulantBundle's layout and symmetries, kappa2 < 0."""
    L = rng.standard_normal((p, p))
    dd2 = _symmetrize(rng.standard_normal((p,) * 4), (0, 1))
    return {
        "kappa2": -(L @ L.T / p + np.eye(p)),
        "kappa3": _symmetrize(rng.standard_normal((p,) * 3), (0, 1, 2)),
        "kappa4": _symmetrize(rng.standard_normal((p,) * 4), (0, 1, 2, 3)),
        "d_kappa2": _symmetrize(rng.standard_normal((p,) * 3), (0, 1)),
        "d_kappa3": _symmetrize(rng.standard_normal((p,) * 4), (1, 2, 3)),
        "dd_kappa2": _symmetrize(dd2, (2, 3)),
    }


# (p, q) of the random bundles: q in {1, floor(p/2)}; p = 7, 8 would swamp
# a run while the engine is O(p^6) loops in Python
SHAPES = tuple((p, q) for p in range(1, 7) for q in sorted({1, max(1, p // 2)}))


def make_bundles(seed: int) -> list:
    rng = rng_for(seed, "coeff-general bundles")
    return [(p, q, random_bundle(p, rng)) for p, q in SHAPES]


def _triple(c) -> tuple:
    return (float(c.A1), float(c.A2), float(c.A3))


def _relabel(arrays: dict, perm) -> dict:
    return {k: v[np.ix_(*[perm] * v.ndim)] for k, v in arrays.items()}


class CoeffGeneral(_Workload):
    """The general contraction engine, which no production path runs."""

    name = "coeff-general"
    unit = "coefficient calls"
    model_ids = tuple(FAMILIES)

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.models = {m: models.make_model(m) for m in FAMILIES}
        self.bundles = make_bundles(seed)
        self.inputs = self.bundles + list(self.models.values())
        self.n_inputs = len(self.inputs)
        self.results = {}                 # input key -> A-triple per call
        self.loop = itertools.cycle(range(len(self.inputs)))

    @staticmethod
    def evaluate(item):
        """A-triple of a random bundle or of a family at its default theta;
        None when the engine raises."""
        try:
            if isinstance(item, tuple):
                p, q, arrays = item
                bundle = CumulantBundle(**arrays)
                spec = HypothesisSpec(p=p, q=q)
            else:
                theta = np.array(item.default_theta, dtype=float)
                bundle = item.cumulants(theta)
                spec = HypothesisSpec(p=item.p, q=item.q)
            return _triple(expansion.coefficients_general(bundle, spec))
        except ValueError:
            return None

    def op(self):
        key = next(self.loop)
        value = self.evaluate(self.inputs[key])
        self.results.setdefault(key, []).append(value)
        return key, 1, int(value is None)

    def cli_command(self):
        model = self.models["birnbaum-saunders"]
        want = _triple(model.general_coefficients(
            np.array(model.default_theta)))

        def check(stdout):
            got = {}
            for line in stdout.splitlines():
                key, sep, value = line.strip().partition(" = ")
                if sep and key in ("A1", "A2", "A3"):
                    got[key] = float(value)
            ok = len(got) == 3 and all(
                _close(got[k], w, 1e-12) for k, w in zip(("A1", "A2", "A3"),
                                                        want))
            return [] if ok else ["CLI coeffs output differs from the library"]
        return ["coeffs", "--model", "birnbaum-saunders", "--route",
                "general"], check

    def reference_values(self) -> list:
        labels = [f"random p{p} q{q}" for p, q in SHAPES] + list(self.models)
        bundles = make_bundles(REFERENCE_SEED)
        digests = ([_array_digest(a.values()) for _, _, a in bundles]
                   + [None] * len(self.models))
        values = [self.evaluate(item)
                  for item in bundles + list(self.models.values())]
        return [{"label": lab, "digest": dig, "A": val}
                for lab, dig, val in zip(labels, digests, values)]

    def gate(self) -> list:
        problems = []
        if len(self.results) != len(self.inputs):
            return ["not every input was evaluated"]
        first = [self.results[k][0] for k in range(len(self.inputs))]
        if any(v != first[k] for k, vs in self.results.items() for v in vs):
            problems.append("repeated calls on one input disagree")
        if any(v is None for v in first):
            problems.append("the engine raised on a valid bundle")
            return problems

        for want, got in zip(_reference(self.name), self.reference_values()):
            if want["digest"] != got["digest"]:
                problems.append(f"{got['label']}: reference bundle differs")
            elif got["A"] is None or not all(
                    _close(a, b, 1e-10) for a, b in zip(want["A"], got["A"])):
                problems.append(f"{got['label']}: A1-A3 differ from the "
                                "stored reference beyond 1e-10")

        # relabelling the nuisance indices leaves A1-A3 unchanged
        rng = rng_for(self.seed, "coeff-general relabel")
        worst = 0.0
        for (p, q, arrays), base in zip(self.bundles, first):
            if p - q < 2:
                continue
            tail = rng.permutation(p - q)
            if np.array_equal(tail, np.arange(p - q)):
                tail = tail[::-1]
            perm = np.concatenate([np.arange(q), q + tail])
            moved = _triple(expansion.coefficients_general(
                CumulantBundle(**_relabel(arrays, perm)),
                HypothesisSpec(p=p, q=q)))
            scale = max(abs(v) for v in base)
            worst = max(worst, max(abs(a - b) for a, b in zip(base, moved))
                        / scale)
        self.counters["relabel_rel"] = worst
        if worst > 1e-12:
            problems.append(f"relabelling nuisance indices moved A1-A3 by "
                            f"{worst:.2e} relative")

        # general and specialized routes agree for every family
        for (model_id, model), general in zip(self.models.items(),
                                              first[len(self.bundles):]):
            theta = np.array(model.default_theta, dtype=float)
            special = _triple(_specialized(model, theta))
            scale = max(1.0, *map(abs, general))
            if any(abs(a - b) > 1e-12 * scale
                   for a, b in zip(general, special)):
                problems.append(f"{model_id}: general and specialized routes "
                                "disagree beyond 1e-12")
        return problems


WORKLOADS = {w.name: w for w in (McSize, McCdf, SingleTest, CoeffGeneral)}


def make(name: str, seed: int, tmp: Path) -> _Workload:
    return WORKLOADS[name](seed, tmp)
