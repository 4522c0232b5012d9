"""Benchmark for gradcorr: Monte Carlo throughput, test latency, engine cost.

    python3 bench/run.py --workload mc-bs-size --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from any directory; the package is imported from ``src/`` next to
this directory, never from an installed copy.  With ``--trace 0`` a run
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced segments of the workload and prints the per-layer metrics plus
the tracing overhead.  bench/README.md says how time is measured.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness gate fails and 2 when the benchmark cannot run at all.
``--workload all`` runs every workload in its own process, one after
another.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("mc-bs-size", "mc-exp-cdf", "single-test", "coeff-general")
ROUNDS = 8                    # set-up and CLI launches, spread over a run
CALIBRATE_EVERY = 0.05        # seconds of workload between kernel timings
KERNEL_REF_S = 1.8e-3         # kernel time on an uncontended core, Xeon 2 vCPU
REF_LAUNCH_S = 0.25           # reference launch at full speed, same machine
TRACE_SEGMENTS = 4            # untraced/traced pairs in a traced run
THREAD_VARS = ("GRADCORR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")

END_TO_END = {                # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms": "ms",
    "cli_oneshot_s": "s",
    "peak_rss_mb": "MB",
}

_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, {src!r})
import gradcorr.cli
from gradcorr.models import make_model
for model_id in {models!r}:
    make_model(model_id)
if not gradcorr.cli.__file__.startswith({src!r}):
    sys.exit(3)
print(time.monotonic_ns())
"""
# the reference launch: a fresh interpreter importing what gradcorr imports
_REF_CHILD = """\
import time
import numpy
import scipy.special
print(time.monotonic_ns())
"""
_IMPORT_CHILD = """\
import sys, time
sys.path.insert(0, {src!r})
t = time.perf_counter()
import gradcorr
print(time.perf_counter() - t)
"""
_SCIPY_CHILD = """\
import time
import numpy
t = time.perf_counter()
import scipy.special
print(time.perf_counter() - t)
"""
# what the `gradcorr` console script runs
_CLI_CHILD = """\
import sys
sys.path.insert(0, {src!r})
from gradcorr.cli import main
sys.exit(main())
"""


# -- fresh interpreters ----------------------------------------------------------

def _child(code: str, args=(), timeout=120) -> tuple:
    """Run a fresh interpreter to completion; (wall seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return wall, proc.stdout


def launch_once(code: str) -> float:
    """Seconds from launch until the child prints its clock reading."""
    start = time.monotonic_ns()
    _, out = _child(code)
    return (int(out.split()[-1]) - start) / 1e9


def child_best(code: str, launches=3) -> float:
    """Fastest of the seconds that fresh children print as their last line."""
    return min(float(_child(code)[1].split()[-1]) for _ in range(launches))


# -- the timed loop --------------------------------------------------------------

class Speed:
    """The machine's current speed, from a fixed calibration kernel.

    The machine is shared: the same Python loop takes 33 ms in one second
    and 55 to 71 ms in the next, and slow phases can last a whole run.
    The kernel is timed every CALIBRATE_EVERY seconds between workload
    calls; a wall is converted to reference seconds, the time it would
    take at full speed, by multiplying it by KERNEL_REF_S over the mean
    kernel time just before and just after it.  Over ten runs, medians of
    converted walls spread by 2-8 % where raw medians and minima spread
    by up to 40 %.
    """

    def __init__(self):
        self.times = []          # when each kernel timing ended
        self.kernels = []        # kernel seconds
        self.due = 0.0
        self._x = np.linspace(0.1, 2.0, 2000)

    def sample(self) -> None:
        start = time.perf_counter()
        acc = 0.0
        for i in range(20_000):                 # interpreter-bound part
            acc += i * 0.5
        for _ in range(100):                    # small numpy calls
            acc += float(np.sqrt(self._x * self._x + 1.0).mean())
        end = time.perf_counter()
        self.times.append(end)
        self.kernels.append(end - start)
        self.due = end + CALIBRATE_EVERY

    def scale(self, at: float) -> float:
        """Reference seconds per wall second at time `at`."""
        i = bisect.bisect(self.times, at)
        before = self.kernels[max(i - 1, 0)]
        after = self.kernels[min(i, len(self.kernels) - 1)]
        return KERNEL_REF_S / (0.5 * (before + after))

    def median_scale(self) -> float:
        return KERNEL_REF_S / statistics.median(self.kernels)


class Timing:
    """Unit calls of one workload loop, timed per input."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.calls = []          # (input key, wall, midpoint) per call
        self.units = {}          # input key -> units per call
        self.attempted = 0
        self.failed = 0

    def run(self, workload, seconds: float, cover: int = 0) -> "Timing":
        """Call workload.op() for `seconds`, and on until `cover` inputs
        have been timed."""
        clock = time.perf_counter
        deadline = clock() + seconds
        while True:
            if clock() >= self.speed.due:
                self.speed.sample()
            start = clock()
            key, units, failed = workload.op()
            end = clock()
            self.calls.append((key, end - start, 0.5 * (start + end)))
            self.units[key] = units
            self.attempted += units
            self.failed += failed
            if end >= deadline and len(self.units) >= cover:
                self.speed.sample()
                return self

    def per_input(self) -> dict:
        """Input key -> median call time in reference seconds."""
        scaled = {}
        for key, wall, mid in self.calls:
            scaled.setdefault(key, []).append(wall * self.speed.scale(mid))
        return {k: statistics.median(v) for k, v in scaled.items()}

    def pass_s(self, keys=None) -> float:
        """Median call times summed over the inputs: one pass over them."""
        med = self.per_input()
        return sum(med[k] for k in (med if keys is None else keys))

    def rate(self) -> float:
        return sum(self.units.values()) / self.pass_s()

    def p50_ms(self) -> float:
        return statistics.median(self.per_input().values()) * 1e3


# -- tracing targets and per-layer metrics ---------------------------------------

def _count_values(tracer, args, kwargs, result):
    x = args[0] if args else kwargs.get("x")
    tracer.add("special.chi2_cdf_values", int(np.size(x)))


def _count_clamped(tracer, args, kwargs, result):
    # batch_statistics returns (S, failures) today; skip any other shape
    try:
        tracer.add("models.clamped_S", int(np.count_nonzero(
            np.asarray(result[0]) == 0.0)))
    except (TypeError, IndexError):
        pass


def _bundle_p(args, kwargs):
    bundle = args[0] if args else next(iter(kwargs.values()), None)
    return f"p{getattr(bundle, 'p', '?')}"


FAMILY_METHODS = {
    "batch_statistics": ("models.batch", _count_clamped),
    "validate_data": ("models.validate", None),
    "fit_restricted": ("models.fit_restricted", None),
    "fit_unrestricted": ("models.fit_unrestricted", None),
    "score": ("models.score", None),
    "specialized_coefficients": ("expansion.specialized", None),
}


def targets(family_classes):
    from tracing import Target
    ts = [
        Target("gradcorr.simulate", "run_size_study", "simulate.study"),
        Target("gradcorr.simulate", "run_cdf_study", "simulate.study"),
        Target("gradcorr.simulate", "np.random.Philox", "simulate.philox"),
        Target("gradcorr.simulate", "bartlett_factors",
               "correction.bartlett_factors"),
        Target("gradcorr.correction", "bartlett_factors",
               "correction.bartlett_factors"),
        Target("gradcorr.simulate", "chi2_cdf", "special.chi2_cdf",
               after=_count_values),
        Target("gradcorr.correction", "chi2_cdf", "special.chi2_cdf",
               after=_count_values),
        Target("gradcorr.models", "gradient_statistic",
               "models.gradient_statistic"),
        Target("gradcorr.correction", "run_test", "correction.run_test"),
        Target("gradcorr.expansion", "coefficients_general",
               "expansion.general", label=_bundle_p),
        Target("gradcorr.models.base", "coefficients_general",
               "expansion.general", label=_bundle_p),
        Target("gradcorr.expansion", "build_geometry", "cumulants.geometry"),
        Target("gradcorr.expansion", "derive_mixed_cumulants",
               "cumulants.mixed"),
        Target("gradcorr.cumulants", "CumulantBundle.__post_init__",
               "cumulants.bundle"),
    ]
    for cls in family_classes:
        for method, (span, after) in FAMILY_METHODS.items():
            ts.append(Target(cls.__module__, f"{cls.__qualname__}.{method}",
                             span, after=after))
    return ts


def per_layer(tr, w, ctx) -> dict:
    """Per-layer metrics.  Sums are per unit call of the traced segments;
    times are converted to reference seconds at the run's median speed."""
    calls = ctx["traced_calls"]

    def per_call(v):
        return v / calls

    def us(span):
        return tr.mean_s(span) * 1e6

    def ms(span):
        return tr.mean_s(span) * 1e3

    m = {
        "simulate.streams": per_call(tr.calls("simulate.philox")),
        "simulate.stream_setup_s": per_call(tr.total_s("simulate.philox")),
        "simulate.self_s": per_call(tr.self_s("simulate.study")),
        "simulate.chunks": per_call(
            tr.edges.get(("simulate.study", "models.batch"), 0)),
        "correction.bartlett_factors_calls":
            per_call(tr.calls("correction.bartlett_factors")),
        "models.batch_s": per_call(tr.self_s("models.batch")),
        "models.batch_calls": per_call(tr.calls("models.batch")),
        "models.validate_us": us("models.validate"),
        "models.fit_restricted_us": us("models.fit_restricted"),
        "models.fit_unrestricted_us": us("models.fit_unrestricted"),
        "models.score_us": us("models.score"),
        "models.gradient_statistic_us": us("models.gradient_statistic"),
        "expansion.specialized_us": us("expansion.specialized"),
        "correction.run_test_us": us("correction.run_test"),
        "special.chi2_cdf_calls": per_call(tr.calls("special.chi2_cdf")),
        "special.chi2_cdf_values":
            per_call(tr.counts.get("special.chi2_cdf_values", 0)),
        "special.chi2_cdf_s": per_call(tr.total_s("special.chi2_cdf")),
    }
    for p in range(1, 7):
        m[f"expansion.general_ms.p{p}"] = ms(f"expansion.general.p{p}")
    m.update({
        "cumulants.geometry_ms": ms("cumulants.geometry"),
        "cumulants.mixed_ms": ms("cumulants.mixed"),
        "cumulants.bundle_us": us("cumulants.bundle"),
        "special.scipy_import_s": ctx["scipy_import_s"],
        "package.import_s": ctx["import_s"],
        "cli.main_ms": ctx["cli_main_ms"],
        "models.fit_failures": w.counters.get("fit_failures", 0),
        "models.clamped_S": w.counters.get(
            "clamped_S", per_call(tr.counts.get("models.clamped_S", 0))),
        "correction.p_clamped": w.counters.get("p_clamped", 0),
        "trace.overhead_ratio": ctx["overhead"],
        "trace.absent_spans": len(tr.absent()),
        "package.src_lines": src_lines(),
        "single.test_p99_us": ctx.get("p99_us", 0.0),
        "single.test_samples": ctx.get("samples", 0),
    })
    for key, unit in PER_LAYER_UNITS.items():
        if unit in ("s", "ms", "us") and key in m:
            m[key] *= ctx["scale"]
    m["machine.kernel_ms"] = ctx["kernel_ms"]
    return m


PER_LAYER_UNITS = {
    **{k: "count" for k in (
        "simulate.streams", "simulate.chunks",
        "correction.bartlett_factors_calls", "models.batch_calls",
        "special.chi2_cdf_calls", "special.chi2_cdf_values",
        "models.fit_failures", "models.clamped_S", "correction.p_clamped",
        "trace.absent_spans", "single.test_samples")},
    **{k: "s" for k in (
        "simulate.stream_setup_s", "simulate.self_s", "models.batch_s",
        "special.chi2_cdf_s", "special.scipy_import_s", "package.import_s")},
    **{k: "us" for k in (
        "models.validate_us", "models.fit_restricted_us",
        "models.fit_unrestricted_us", "models.score_us",
        "models.gradient_statistic_us", "expansion.specialized_us",
        "correction.run_test_us", "cumulants.bundle_us",
        "single.test_p99_us")},
    **{k: "ms" for k in (
        *(f"expansion.general_ms.p{p}" for p in range(1, 7)),
        "cumulants.geometry_ms", "cumulants.mixed_ms", "cli.main_ms")},
    "trace.overhead_ratio": "ratio",
    "package.src_lines": "lines",
    "machine.kernel_ms": "ms",
}


# -- run record ------------------------------------------------------------------

def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def run_record(args, threads_before: dict) -> dict:
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "commit": commit,
            "src_sha256": src.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "threads": threads_before}


# -- one workload ----------------------------------------------------------------

def _best_ms(fn, repeats=5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def run_workload(args) -> int:
    threads_before = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.pop("GRADCORR_THREADS", None)     # every workload runs serially
    sys.path.insert(0, str(SRC))
    import gradcorr
    if not gradcorr.__file__.startswith(str(SRC)):
        print(f"error: gradcorr imported from {gradcorr.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from gradcorr.models import make_model
    from tracing import Tracer, percentile, tail_percentile

    record = run_record(args, threads_before)
    speed = Speed()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        w = workloads.make(args.workload, args.seed, Path(tmp))
        argv, check = w.cli_command()
        cli_code = _CLI_CHILD.format(src=str(SRC))
        setup_code = _SETUP_CHILD.format(src=str(SRC),
                                         models=list(w.model_ids))
        _child(setup_code)                      # warms file and bytecode caches
        w.op()                                   # warm-up, not timed
        untraced = Timing(speed)
        tracer = traced = None
        if args.trace:
            # alternate untraced and traced segments so that drift in the
            # machine's speed falls on both sides of the overhead ratio
            traced, tracer = Timing(speed), Tracer()
            ts = targets({type(make_model(m)) for m in w.model_ids})
            segment = args.seconds / (2 * TRACE_SEGMENTS)
            for i in range(TRACE_SEGMENTS):
                cover = w.n_inputs if i == TRACE_SEGMENTS - 1 else 0
                untraced.run(w, segment, cover)
                with tracer.installed(ts):
                    traced.run(w, segment, cover)
            problems = check(_child(cli_code, argv)[1])
            ctx = {"import_s": child_best(_IMPORT_CHILD.format(src=str(SRC))),
                   "scipy_import_s": child_best(_SCIPY_CHILD)}
            probe_argv, _, _ = w.cli_probe()
            ctx["cli_main_ms"] = _best_ms(
                lambda: workloads.run_cli(probe_argv))
        else:
            # each round starts with a set-up, a CLI and a reference launch,
            # so the launches sample the machine across the whole run; a
            # launch is converted with the reference launches around it
            setups, clis, problems = [], [], []
            refs = [launch_once(_REF_CHILD)]
            start = time.perf_counter()
            for i in range(ROUNDS):
                setup = launch_once(setup_code)
                wall, out = _child(cli_code, argv)
                refs.append(launch_once(_REF_CHILD))
                scale = REF_LAUNCH_S / (0.5 * (refs[-2] + refs[-1]))
                setups.append(setup * scale)
                clis.append(wall * scale)
                problems += [p for p in check(out) if p not in problems]
                end = start + args.seconds * (i + 1) / ROUNDS
                untraced.run(w, end - time.perf_counter(),
                             w.n_inputs if i == ROUNDS - 1 else 0)
            ctx = {"setup_s": statistics.median(setups),
                   "cli_oneshot_s": statistics.median(clis)}
        problems += w.gate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timings = [t for t in (untraced, traced) if t is not None]
    attempted = sum(t.attempted for t in timings)
    failed = sum(t.failed for t in timings)

    walls = sorted(wall for _, wall, _ in untraced.calls)
    print(f"workload {w.name}: seed {args.seed}, {len(walls)} untraced calls "
          f"on {len(untraced.units)} inputs; calibration kernel median "
          f"{statistics.median(speed.kernels) * 1e3:.3f} ms (reference "
          f"{KERNEL_REF_S * 1e3:g} ms)")
    tail = tail_percentile(len(walls))
    tail_text = (f"p{tail:g} {percentile(walls, tail)[0] * 1e3:.4g} ms with "
                 f"{percentile(walls, tail)[1]} beyond" if tail else "none")
    print(f"  raw call walls: median {percentile(walls, 50)[0] * 1e3:.4g} "
          f"ms; highest percentile with >= 10 samples beyond: {tail_text}; "
          f"{len(walls)} samples")
    if w.name == "single-test":
        p99, beyond = percentile(walls, 99.0)
        ctx["p99_us"], ctx["samples"] = p99 * 1e6, len(walls)
        print(f"  raw test latency p99 {p99 * 1e6:.1f} us ({beyond} of "
              f"{len(walls)} samples beyond)")
    print(f"  one pass over the inputs: {untraced.pass_s():.6g} reference s")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.3g}")
    for key, value in sorted(w.counters.items()):
        print(f"  {key}: {value}")

    if args.trace:
        common = [k for k in untraced.units if k in traced.units]
        ctx["overhead"] = traced.pass_s(common) / untraced.pass_s(common)
        ctx["traced_calls"] = len(traced.calls)
        ctx["scale"] = speed.median_scale()
        ctx["kernel_ms"] = statistics.median(speed.kernels) * 1e3
        metrics = per_layer(tracer, w, ctx)
        units = PER_LAYER_UNITS
        absent = tracer.absent()
        print(f"  tracing overhead: traced/untraced pass "
              f"{ctx['overhead']:.3f}")
        print("  absent spans: " + (", ".join(absent) if absent else "none"))
    else:
        metrics = {
            "setup_s": ctx["setup_s"],
            "ops_per_s": untraced.rate(),
            "latency_ms": (untraced.p50_ms() if w.latency == "median input"
                           else untraced.pass_s() * 1e3),
            "cli_oneshot_s": ctx["cli_oneshot_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    for key, value in metrics.items():
        print(f"  {key:<36} {value:>16.6g} {units[key]}")
    record["overhead_ratio"] = ctx.get("overhead")
    print("record: " + json.dumps(record))
    for p in problems:
        print(f"GATE FAILED: {p}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


# -- all workloads ---------------------------------------------------------------

def run_all(args) -> int:
    """Every workload in its own process; exits 1 if any gate fails."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
        status = max(status, proc.returncode)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gradcorr" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'gradcorr'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
