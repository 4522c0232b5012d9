"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracing import Target, Tracer, percentile, tail_percentile

sys.path.insert(0, str(run.SRC))

import gradcorr.simulate  # noqa: E402
import workloads  # noqa: E402
from numpy.random import _philox  # noqa: E402


# -- the percentile rule ------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(19, None), (20, 50.0), (99, 50.0),
                                    (100, 90.0), (999, 90.0), (1000, 99.0),
                                    (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_percentile_is_nearest_rank_and_counts_beyond():
    values = list(range(1, 1001))
    assert percentile(values, 50) == (500, 500)
    assert percentile(values, 99) == (990, 10)
    assert percentile(values, 99.9) == (999, 1)


# -- spans --------------------------------------------------------------------

def _clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_direct_children_only():
    tr = Tracer(clock=_clock(0, 1, 2, 5, 7, 8, 9, 10))
    tr.enter("a")            # 0
    tr.enter("b")            # 1
    tr.enter("c")            # 2
    tr.exit()                # 5: c lasts 3
    tr.exit()                # 7: b lasts 6, 3 of it in c
    tr.enter("b")            # 8
    tr.exit()                # 9: b lasts 1
    tr.exit()                # 10: a lasts 10, 7 of it in b
    assert tr.spans["c"] == [1, 3, 3]
    assert tr.spans["b"] == [2, 7, 4]
    assert tr.spans["a"] == [1, 10, 3]
    assert tr.edges == {("b", "c"): 1, ("a", "b"): 2, (None, "a"): 1}


class _Base:
    def inherited(self):
        return "base"


class _Leaf(_Base):
    def own(self, x):
        return x + 1


def test_missing_callable_reads_absent_and_the_rest_is_traced():
    tr = Tracer()
    targets = [Target(__name__, "_Leaf.own", "leaf.own"),
               Target(__name__, "_Leaf.inherited", "leaf.inherited"),
               Target(__name__, "_Leaf.removed", "leaf.removed"),
               Target("gradcorr.no_such_module", "f", "gone.module")]
    with tr.installed(targets):
        assert _Leaf().own(1) == 2
        assert _Leaf().inherited() == "base"
    assert tr.absent() == ["gone.module", "leaf.removed"]
    assert tr.calls("leaf.own") == 1 and tr.calls("leaf.inherited") == 1
    assert "inherited" not in vars(_Leaf)          # restored to inheritance
    assert vars(_Leaf)["own"].__name__ == "own"
    assert not hasattr(vars(_Leaf)["own"], "__wrapped__")


# -- whole runs ---------------------------------------------------------------

@pytest.fixture
def small_cdf(monkeypatch):
    """mc-exp-cdf with small studies and one round of launches."""
    monkeypatch.setattr(run, "ROUNDS", 1)
    monkeypatch.setitem(workloads.WORKLOADS, "mc-exp-cdf", functools.partial(
        workloads.McCdf, replicates=2000, gate_replicates=20_000))


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_installs_no_wrapper(small_cdf, capsys):
    assert run.main(["--workload", "mc-exp-cdf", "--seconds", "0.2",
                     "--trace", "0"]) == 0
    assert gradcorr.simulate.np.random.Philox is _philox.Philox
    result = _result(capsys)
    assert result["correct"] and set(result["metrics"]) == set(run.END_TO_END)


def test_traced_run_counts_streams_and_restores_numpy(small_cdf, capsys):
    assert run.main(["--workload", "mc-exp-cdf", "--seconds", "0.4",
                     "--trace", "1"]) == 0
    assert gradcorr.simulate.np.random.Philox is _philox.Philox
    metrics = _result(capsys)["metrics"]
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["simulate.streams"]["value"] == 2000
    assert metrics["trace.absent_spans"]["value"] == 0
    assert metrics["expansion.general_ms.p6"]["value"] == 0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.PER_LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# -- inputs and gates ---------------------------------------------------------

def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b = workloads.make_cases(5), workloads.make_cases(5)
    assert all(np.array_equal(np.atleast_2d(x[3]), np.atleast_2d(y[3]))
               for x, y in zip(a, b))
    assert not np.array_equal(a[0][3], workloads.make_cases(6)[0][3])


def test_exact_exponential_cdf_matches_simulation():
    rng = np.random.default_rng(0)
    xbar = rng.exponential(1.0, (200_000, 10)).mean(axis=1)
    S = 10 * (xbar - 1.0) ** 2
    x = np.array([0.1, 1.0, 3.84, 8.0])
    emp = (S[:, None] <= x).mean(axis=0)
    assert np.allclose(emp, workloads.exponential_null_cdf(x, 10), atol=4e-3)


def test_size_gate_rejects_a_shifted_rate(tmp_path, monkeypatch):
    w = workloads.McSize(1, tmp_path, replicates=50, gate_replicates=1000)
    w.op()
    assert w.gate() == []
    rows = workloads._reference("mc-bs-size")["rows"]
    shifted = [[n, a, p, rej // 2, reps] for n, a, p, rej, reps in rows]
    monkeypatch.setattr(workloads, "_reference",
                        lambda section: {"rows": shifted})
    assert any("binomial SEs" in p for p in w.gate())
