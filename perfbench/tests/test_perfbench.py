"""Tests of the benchmark itself: workloads at reduced size, the tracer's
self-time arithmetic, failure accounting, and the BENCHMARK.json contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import fistrans as ft
import harness
import layers
import run
import workloads
from speed import REFERENCE_NS, Speedometer
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _ok_all(results):
    return [r.name for r in results if not r.verdict.ok]


def test_long_horizon_reduced_certifies_every_op(tmp_path):
    ops = workloads.long_horizon(3, tmp_path, horizons=(5, 12, 30))
    assert sorted(op.name for op in ops) == ["preset-unbounded-T12", "preset-unbounded-T30", "preset-unbounded-T5"]
    assert _ok_all(harness.run_pass(ops)) == []


def test_bounded_reduced_counts_every_op_and_respects_bounds(tmp_path):
    ops = workloads.bounded(5, tmp_path, preset_horizons=(10,), n_random=6)
    results = harness.run_pass(ops)
    assert len(results) == 7
    assert results[0].verdict.ok, results[0].verdict.reason
    # A failure is allowed only when the solver itself reported it.
    assert all(r.verdict.ok or not r.verdict.claimed for r in results)


def test_batch_reduced_passes_the_csv_checks(tmp_path):
    ops = workloads.batch(7, tmp_path, n=4, horizon=6)
    assert _ok_all(harness.run_pass(ops)) == []
    assert (tmp_path / "scenario.scn").is_file()


def test_generators_depend_only_on_the_seed():
    def draw(seed):
        rng = np.random.default_rng(seed)
        bounded = [ft.serialize_scenario(workloads.random_bounded_scenario(rng, i, 10 + i)) for i in range(4)]
        reforms = [ft.serialize_scenario(workloads.random_reform(rng, i, 25)) for i in range(4)]
        return bounded + reforms

    assert draw(11) == draw(11)
    assert draw(11) != draw(12)
    rng = np.random.default_rng(0)
    reforms = [workloads.random_reform(rng, i, 25) for i in range(4)]
    assert [r.rigidity.is_asymmetric for r in reforms] == [False, True, False, True]
    assert [r.breakeven is not None for r in reforms] == [False, False, True, True]


def test_self_times_add_up_to_the_root_duration():
    tracer = Tracer()
    for name, parent, start, end in (("op", -1, 0, 100), ("a", 0, 10, 60), ("b", 1, 20, 30), ("c", 0, 70, 90)):
        tracer.add_span(name, parent, start, end)
    assert tracer.self_times() == [30, 40, 10, 20]
    assert tracer.check_nesting() == []
    summary = tracer.summary()
    assert summary["op.self_ms"] == pytest.approx(30e-6)
    assert summary["a.calls"] == 1 and summary["c.self_ms"] == pytest.approx(20e-6)

    tracer.add_span("b", 3, 85, 95)  # ends after its parent
    assert any("outside its parent" in p for p in tracer.check_nesting())


def test_tracer_wraps_lookup_sites_and_records_only_inside_ops(monkeypatch):
    fake = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return fake.inner(x) * 2

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", fake)

    tracer = Tracer()
    tracer.counters["seen"] = 0

    def hook(counters, args, result):
        counters["seen"] += result

    assert tracer.wrap("outer", ("fake_layer:outer",), hook) == 1
    assert tracer.wrap("inner", ("fake_layer:inner", "fake_layer:missing", "absent_module:f")) == 1
    assert tracer.wrap("gone", ("fake_layer:no.such.attr",)) == 0

    assert fake.outer(1) == 4  # outside any op: not recorded
    with tracer.root("op"):
        assert fake.outer(2) == 6
    summary = tracer.summary()
    assert summary["outer.calls"] == 1 and summary["inner.calls"] == 1 and summary["gone.calls"] == 0
    assert summary["seen"] == 6
    assert tracer.check_nesting() == []
    root_ms = (tracer.end[0] - tracer.start[0]) / 1e6
    assert sum(summary[f"{n}.self_ms"] for n in ("op", "outer", "inner", "gone")) == pytest.approx(root_ms)

    tracer.unwrap()
    assert fake.outer is outer and fake.inner is inner


def test_install_reports_every_layer_metric(tmp_path):
    tracer = Tracer()
    layers.install(tracer)
    try:
        ops = workloads.long_horizon(1, tmp_path, horizons=(6,))
        harness.run_pass(ops, tracer)
    finally:
        tracer.unwrap()
    metrics = layers.per_layer(tracer.summary())
    assert set(metrics) == set(harness.PER_LAYER) - {"import.self_ms", "tracing.overhead_s"}
    assert metrics["planner.solve.calls"] == 1
    assert metrics["scipy.optimize.minimize.calls"] == 1
    assert metrics["numpy.linalg.solve.calls"] == 0
    assert metrics["cli.run_cli.calls"] == 0
    assert metrics["costs.kernels.calls"] > 0
    assert tracer.check_nesting() == []
    assert ft.solve.__name__ == "solve"  # unwrapped


def test_injected_solver_failures_are_counted_and_do_not_abort(tmp_path, monkeypatch):
    real_solve = ft.solve

    def flaky_solve(scenario, config=None):
        if scenario.horizon == 7:
            raise RuntimeError("injected")
        report = real_solve(scenario, config)
        if scenario.horizon == 9:
            return dataclasses.replace(report, converged=False)
        return report

    monkeypatch.setattr(ft, "solve", flaky_solve)
    ops = workloads.long_horizon(0, tmp_path, horizons=(5, 7, 9, 11))
    m = harness.measure(ops, seconds=0.0, speed=Speedometer())
    failed = {r.name: r.verdict for r in m.results if not r.verdict.ok}
    assert set(failed) == {"preset-unbounded-T7", "preset-unbounded-T9"}
    assert "injected" in failed["preset-unbounded-T7"].reason
    assert not any(v.claimed for v in failed.values())
    metrics = harness.end_to_end(m, setup_s=1.0)
    assert metrics["certified_frac"] == 0.5
    assert len(m.untraced) == 2 and sorted(r.name for r in harness.failures(m)) == sorted(failed)


def test_each_op_counts_once_however_many_passes_run():
    def result(name, ok, claimed=False):
        return harness.OpResult(name, 1, workloads.Verdict(ok, claimed, "" if ok else "bad"))

    passes = [
        [result("a", True), result("b", False), result("c", True)],
        [result("a", True), result("b", False), result("c", False, claimed=True)],
        [result("a", True), result("b", False), result("c", True)],
    ]
    m = harness.Measurement(untraced=[[1, 1, 1]] * 3, reference_ns=[[REFERENCE_NS] * 3] * 3)
    for results in passes:
        m.results.extend(results)
    failed = harness.failures(m)
    assert [(r.name, r.verdict.claimed) for r in failed] == [("b", False), ("c", True)]
    assert harness.end_to_end(m, setup_s=1.0)["certified_frac"] == pytest.approx(1 / 3)


def test_a_claimed_success_that_fails_its_check_is_silent(tmp_path, monkeypatch):
    real_solve = ft.solve

    def lying_solve(scenario, config=None):
        report = real_solve(scenario, config)
        values = report.trajectory.values.copy()
        values[2] += 0.5
        return dataclasses.replace(report, trajectory=ft.Trajectory(values))

    monkeypatch.setattr(ft, "solve", lying_solve)
    (result,) = harness.run_pass(workloads.long_horizon(0, tmp_path, horizons=(8,)))
    assert result.verdict.claimed and not result.verdict.ok


def test_best_latencies_take_each_ops_fastest_pass():
    assert harness.best_latencies([[5, 9, 3], [4, 10, 2], [6, 8, 7]]) == [4, 8, 2]


def test_timings_are_rescaled_per_pass_to_the_reference_speed():
    m = harness.Measurement(
        untraced=[[10e9, 30e9], [12e9, 20e9]],
        reference_ns=[[REFERENCE_NS, REFERENCE_NS], [2 * REFERENCE_NS, 2 * REFERENCE_NS]],
    )
    assert harness.at_reference_speed(m) == [[10e9, 30e9], [6e9, 10e9]]
    assert harness.timings(harness.at_reference_speed(m))["wall_s"] == pytest.approx(16.0)


def test_each_op_is_rescaled_by_the_kernel_runs_around_it():
    speed = Speedometer(warmup=0)
    speed.samples = [1, 1, 1, 1, 3, 3, 3, 3, 5, 5]
    assert speed.window_mean_ns(4, 8, size=4) == 3  # enough runs inside the op
    assert speed.window_mean_ns(5, 6, size=4) == 2.5  # widened on both sides
    assert speed.window_mean_ns(0, 0, size=4) == 1  # kept within the runs taken
    assert speed.window_mean_ns(10, 10, size=4) == 4
    assert speed.window_mean_ns(3, 3, size=40) == 2.6


def test_measure_takes_each_ops_reference_from_its_window(tmp_path):
    class FakeSpeed(Speedometer):
        def _tick(self, signum=None, frame=None):
            self.samples.append(len(self.samples))

    speed = FakeSpeed(warmup=0)
    ops = [workloads.Op(f"op{i}", lambda: speed._tick(), lambda out: workloads.Verdict(True, True)) for i in range(3)]
    m = harness.measure(ops, seconds=0.0, speed=speed)
    assert [r.samples for r in m.results] == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    # Windows of 10 runs are clamped to the runs taken when the pass ended.
    assert m.reference_ns == [[1.0, 1.0, 1.0], [2.5, 2.5, 2.5]]


def test_cold_start_times_a_fresh_interpreter():
    seconds = harness.cold_start(ROOT / "src", "import fistrans")
    assert 0.0 < seconds < 60.0


def test_speedometer_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = Speedometer(interval=0.005)
    warm = speed.mark()
    with speed:
        mark = speed.mark()
        until = time.perf_counter() + 0.1
        while time.perf_counter() < until:
            sum(range(1000))
    count, total = speed.since(mark)
    assert warm > 0 and count > 0 and total > 0
    assert speed.window_mean_ns(mark, mark + count, size=1) == total / count
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == harness.PER_LAYER
    units = layers.units(harness.PER_LAYER)
    assert all(m["unit"] == units[m["name"]] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_run_refuses_a_tree_without_fistrans_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
