"""Acceptance gate: every shipped guarantee, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import dataclasses
import functools
import math
import time

import numpy as np

from fistrans import (
    DeltaVector,
    ExpenditureVector,
    FiscalCostSpec,
    RigidityParams,
    Scenario,
    SolverConfig,
    Trajectory,
    effective_expenditure,
    equal_step_path,
    euler_residuals,
    gradient_check,
    gradualism_metric,
    jshape_classify,
    jshape_condition,
    load_default_preset,
    parse_scenario,
    phi,
    phi_asymmetric,
    rigidity_to_params,
    savings_series,
    serialize_scenario,
    solve,
    stage_cost,
)
from fistrans.cli import EXIT_OK, run_cli
from fistrans.scenario_io import build_report, emit_trajectory_csv

from helpers import BASELINE, TABLE_ETA, TABLE_GAMMA, TARGETS, random_scenario, reform_scenario


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({description}): FAIL")
                raise
            print(f"criterion {number:2d} ({description}): PASS")

        return wrapper

    return decorate


@criterion(1, "scenario table reproduction within 0.01")
def test_criterion_1_scenario_table(capsys):
    start = time.perf_counter()
    assert run_cli(["scenario-table"]) == EXIT_OK
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        expected = {
            "A": ("3", 24.81),
            "B": ("5", 1.11),
            "C": ("> 5", -37.78),
            "D": ("3", 22.67),
            "E": ("> 5", -36.00),
            "F": ("> 5", -132.00),
        }
        rows = [line for line in out.splitlines()[1:] if line.strip()]
        assert len(rows) == 6
        for line in rows:
            parts = line.split()
            name = parts[0]
            t_star = "> 5" if "> 5" in line else parts[-2]
            cum = float(parts[-1])
            exp_t, exp_cum = expected[name]
            assert t_star == exp_t, f"break-even year mismatch in row {name}"
            assert abs(cum - exp_cum) <= 0.01, f"cumulative mismatch in row {name}: {cum}"
        assert elapsed < 1.0


@criterion(2, "frictionless transition jumps to the target")
def test_criterion_2_frictionless_limit():
    start = time.perf_counter()
    scen = Scenario(
        name="frictionless",
        baseline=BASELINE,
        cost=FiscalCostSpec(target=TARGETS, weights=(1, 1, 1, 1)),
        rigidity=RigidityParams(gamma=(0, 0, 0, 0), eta=(0, 0, 0, 0)),
        beta=0.96,
        horizon=10,
    )
    report = solve(scen)
    assert report.converged
    assert np.linalg.norm(report.trajectory.values[1] - TARGETS.as_array()) < 1e-6
    assert time.perf_counter() - start < 1.0


@criterion(3, "scalar closed-form solutions within 1e-8")
def test_criterion_3_scalar_closed_forms():
    start = time.perf_counter()
    cfg = SolverConfig(terminal_weight=0.0)

    def one_period(gamma, eta):
        scen = Scenario(
            name="scalar",
            baseline=ExpenditureVector(0, 0, 0, 0),
            cost=FiscalCostSpec(target=ExpenditureVector(1, 0, 0, 0), weights=(1, 0, 0, 0)),
            rigidity=RigidityParams(gamma=(gamma, 0, 0, 0), eta=(eta, 0, 0, 0)),
            beta=0.9,
            horizon=1,
        )
        return solve(scen, cfg).trajectory.values[1, 0]

    assert abs(one_period(1.0, 0.0) - 0.5) < 1e-8
    assert abs(one_period(0.0, 3.0) - (-1.0 + math.sqrt(13.0)) / 6.0) < 1e-8
    assert time.perf_counter() - start < 1.0


@criterion(4, "interior-date residual certification at 1e-6")
def test_criterion_4_euler_certification():
    start = time.perf_counter()
    scen = load_default_preset().scenario()
    assert scen.horizon == 50
    report = solve(scen)
    assert report.converged
    assert report.max_euler_residual <= 1e-6
    residuals = euler_residuals(report.trajectory, scen)
    assert np.max(np.abs(residuals)) <= 1e-6

    perturbed = report.trajectory.values.copy()
    perturbed[10, 0] += 1e-3
    bad = np.max(np.abs(euler_residuals(Trajectory(perturbed), scen)))
    assert bad > 1e-6
    assert time.perf_counter() - start < 5.0


@criterion(5, "analytic gradients match central differences on 100 draws")
def test_criterion_5_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    sym = RigidityParams(gamma=TABLE_GAMMA, eta=TABLE_ETA)
    asym = RigidityParams(
        eta=TABLE_ETA,
        gamma_up=TABLE_GAMMA,
        gamma_down=tuple(1.5 * g for g in TABLE_GAMMA),
    )
    spec = FiscalCostSpec(target=TARGETS, weights=(1.0, 0.5, 2.0, 0.25), total_weight=0.3)
    for _ in range(100):
        d = rng.uniform(-3.0, 3.0, 4)
        x = TARGETS.as_array() + rng.uniform(-5.0, 5.0, 4)
        assert gradient_check(lambda a: phi(DeltaVector.from_array(a), sym), d, 1e-6) < 1e-6
        assert gradient_check(lambda a: phi_asymmetric(DeltaVector.from_array(a), asym), d, 1e-6) < 1e-6
        assert gradient_check(lambda a: stage_cost(ExpenditureVector.from_array(a), spec), x, 1e-6) < 1e-6
    assert time.perf_counter() - start < 1.0


@criterion(6, "gradual adjustment on 20 randomized reforms")
def test_criterion_6_gradualism():
    rng = np.random.default_rng(321)
    for _ in range(20):
        scen = reform_scenario(rng, horizon=25)
        report = solve(scen)
        assert report.converged
        fraction = gradualism_metric(report.trajectory, scen.cost.target)
        assert 0.0 < fraction < 1.0
        gaps = scen.cost.target.as_array() - scen.baseline.as_array()
        first = report.trajectory.deltas()[1]
        nonzero = np.abs(gaps) > 1e-9
        # Every gapped category leaves work for later years.
        assert np.all(np.abs(first[nonzero]) < np.abs(gaps[nonzero]))


@criterion(7, "rise-then-fall transition under the shipped calibration")
def test_criterion_7_jshape_qualitative():
    preset = load_default_preset()
    scen = preset.scenario()
    report = solve(scen)
    assert report.converged

    assert jshape_condition(scen)[2]

    g_eff = effective_expenditure(report.trajectory, scen.rigidity)
    verdict = jshape_classify(g_eff)
    assert verdict.is_j_shaped
    assert 1 <= verdict.peak_index <= 3
    assert g_eff[10] < g_eff[0]
    assert verdict.peak_value > g_eff[0]


@criterion(8, "doubled rigidity lowers savings and delays break-even")
def test_criterion_8_rigidity_monotonicity():
    preset = load_default_preset()
    for row in preset.breakeven_catalog:
        spec = row.spec
        path = equal_step_path(spec)
        base = savings_series(path, spec)
        doubled = savings_series(path, dataclasses.replace(spec, gamma=2.0 * spec.gamma, eta=2.0 * spec.eta))
        assert doubled.windowed_cumulative < base.windowed_cumulative
        base_t = base.breakeven_year if base.breakeven_year is not None else math.inf
        doubled_t = doubled.breakeven_year if doubled.breakeven_year is not None else math.inf
        assert doubled_t >= base_t


@criterion(9, "calibration anchors exact and mapping monotone")
def test_criterion_9_calibration_anchors():
    assert rigidity_to_params(0.9) == (4.0, 1.8)
    assert rigidity_to_params(0.8) == (3.5, 1.5)
    assert rigidity_to_params(0.5) == (1.5, 0.6)
    assert rigidity_to_params(0.3) == (1.0, 0.4)
    grid = np.linspace(0.0, 1.0, 1000)
    pairs = [rigidity_to_params(s) for s in grid]
    gammas = np.array([p[0] for p in pairs])
    etas = np.array([p[1] for p in pairs])
    assert np.all(np.diff(gammas) >= 0)
    assert np.all(np.diff(etas) >= 0)


@criterion(10, "byte-identical CSV and scenario round trips")
def test_criterion_10_determinism_and_round_trip():
    preset = load_default_preset()
    scen = preset.scenario(name="determinism", breakeven=preset.breakeven_row("A").spec)
    csv_a = emit_trajectory_csv(build_report(scen))
    csv_b = emit_trajectory_csv(build_report(scen))
    assert csv_a == csv_b

    assert parse_scenario(serialize_scenario(preset.scenario())) == preset.scenario()
    rng = np.random.default_rng(777)
    for i in range(50):
        candidate = random_scenario(rng, with_bounds=(i % 3 == 0), with_breakeven=(i % 2 == 0))
        assert parse_scenario(serialize_scenario(candidate)) == candidate
