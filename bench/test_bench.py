"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import chaoslimits  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=None, qid=None, attrs=None):
    return tracing.Span(name, start, end, parent, qid, attrs)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),      # overlaps a: union [1, 5]
        _span("c", 9.0, 12.0, parent=0),     # clipped to the parent: [9, 10]
        _span("a.child", 1.5, 2.5, parent=1),
        _span("leaf", 11.0, 11.0, parent=3),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0, 0.0])


def test_member_times_split_each_family_call_at_member_starts():
    spans = [
        _span("diagnostics.run_family_diagnostics", 0.0, 10.0, qid="clt_sweep"),
        _span("diagnostics.family_member", 0.5, 0.6, 0, "clt_sweep", {"m": 64}),
        _span("chaos.contract", 0.7, 3.0, 0, "clt_sweep"),
        _span("diagnostics.family_member", 4.0, 4.1, 0, "clt_sweep", {"m": 128}),
    ]
    assert layers.member_times(spans) == [("clt_sweep", 64, 3.5),
                                          ("clt_sweep", 128, 6.0)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_is_an_argument_and_changes_the_inputs(name):
    make_inputs = workloads.WORKLOADS[name][0]

    def fingerprint(inputs):
        return repr(inputs) if name != "target-analysis" else repr(
            [inputs["coeff_points"].tolist(), inputs["stein_points"].tolist(),
             inputs["chain_seed"]])

    assert fingerprint(make_inputs(1)) == fingerprint(make_inputs(1))
    assert fingerprint(make_inputs(1)) != fingerprint(make_inputs(2))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_gives_the_untraced_answers(name):
    make_inputs, make_questions = workloads.WORKLOADS[name]
    inputs = make_inputs(3)
    questions = make_questions(inputs)
    plain = run.run_pass(questions, inputs)
    tracer = tracing.Tracer()
    original = chaoslimits.diagnostics.contract
    with tracing.instrument(tracer, chaoslimits):
        assert chaoslimits.diagnostics.contract is not original
        traced = run.run_pass(questions, inputs, tracer)
    assert chaoslimits.diagnostics.contract is original
    assert chaoslimits.targets.integrate.quad.__module__.startswith("scipy")
    assert traced.digest == plain.digest
    metrics = layers.layer_metrics(tracer.spans, tracer.counters, traced.outcomes,
                                   traced.quad_warnings)
    assert set(metrics) == {n for n, *_ in layers.PER_LAYER} - {"trace.overhead_s"}
    busy = {"exact-sweep": "chaos.contract.calls",
            "target-analysis": "targets.quad.calls",
            "sampling": "simulate.poly.steps"}[name]
    assert metrics[busy] > 0


def test_each_question_time_is_divided_by_the_mean_pace_around_it(monkeypatch):
    import pace

    readings = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(pace, "pace", lambda: next(readings))
    clock = iter([0.0, 4.0, 10.0, 13.0])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    questions = [workloads.Question(q, lambda ctx: workloads.Answer(b""))
                 for q in ("a", "b")]
    result = run.run_pass(questions, {})
    assert result.paces == [1.0, 3.0, 2.0]
    assert result.question_s == pytest.approx([4.0 / 2.0, 3.0 / 2.5])
    assert result.wall_s == pytest.approx(7.0)
    assert run.paced_pass_s([result, result]) == pytest.approx(2.0 + 1.2)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s",
                                                        "peak_rss_mb"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER]


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_ess_bound_uses_the_chain_autocorrelation():
    # kept draws 0.01 time units apart: about 200 draws per independent one
    assert workloads._ess(100_000, 1e-3, 10) == pytest.approx(500.0, rel=1e-4)
