import dataclasses
import importlib.machinery
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fistrans import (
    DeltaVector,
    ExpenditureVector,
    FiscalCostSpec,
    RigidityParams,
    Scenario,
    SolveReport,
    SolverConfig,
    Trajectory,
    ValidationError,
    euler_residuals,
    gradualism_metric,
    load_default_preset,
    objective_value,
    parse_scenario,
    solve,
    stage_cost_minimizer,
)
from fistrans import planner
from fistrans.costs import adjustment_cost, stage_cost
from fistrans.calibration import asymmetric_variant
from fistrans.cli import EXIT_NOT_CONVERGED, run_cli

from helpers import BASELINE, MIXED_LIMITS, TARGETS, fresh_python, preset_scenario, random_scenario, reform_scenario, scalar_scenario

NO_TERMINAL = SolverConfig(terminal_weight=0.0)


def test_scalar_one_period_quadratic_friction():
    # First-order condition (x - 1) + x = 0 has the closed-form root 0.5.
    report = solve(scalar_scenario(gamma=1.0, eta=0.0), NO_TERMINAL)
    assert report.converged
    assert report.trajectory.values[1, 0] == pytest.approx(0.5, abs=1e-8)


def test_scalar_one_period_cubic_friction():
    # First-order condition 3x^2 + x - 1 = 0 has the positive root (-1+sqrt(13))/6.
    report = solve(scalar_scenario(gamma=0.0, eta=3.0), NO_TERMINAL)
    assert report.converged
    assert report.trajectory.values[1, 0] == pytest.approx((-1.0 + math.sqrt(13.0)) / 6.0, abs=1e-8)


def test_scalar_discount_factor_is_irrelevant_for_one_period():
    for beta in (0.5, 0.9, 0.99):
        report = solve(scalar_scenario(gamma=1.0, eta=0.0, beta=beta), NO_TERMINAL)
        assert report.trajectory.values[1, 0] == pytest.approx(0.5, abs=1e-8)


def test_two_period_matches_linear_system_oracle():
    # With eta = 0 the stationarity conditions are linear; solve them directly.
    beta, gamma, w = 0.9, 1.3, 0.7
    mat = np.array(
        [
            [beta * (w + gamma) + beta**2 * gamma, -(beta**2) * gamma],
            [-(beta**2) * gamma, beta**2 * (w + gamma)],
        ]
    )
    rhs = np.array([beta * w, beta**2 * w])
    oracle = np.linalg.solve(mat, rhs)

    scen = Scenario(
        name="two-period",
        baseline=ExpenditureVector(0, 0, 0, 0),
        cost=FiscalCostSpec(target=ExpenditureVector(1, 0, 0, 0), weights=(w, 0, 0, 0)),
        rigidity=RigidityParams(gamma=(gamma, 0, 0, 0), eta=(0, 0, 0, 0)),
        beta=beta,
        horizon=2,
    )
    report = solve(scen, NO_TERMINAL)
    assert report.converged
    assert np.allclose(report.trajectory.values[1:, 0], oracle, atol=1e-8)


def _linear_oracle(scen, terminal):
    """Allocations x_1..x_T solving the eta = 0 stationarity system directly.

    Row t (divided by beta^t) reads
        S x_t + G (x_t - x_{t-1}) - beta G (x_{t+1} - x_t) = c     (t < T)
        S x_T + G (x_T - x_{T-1}) + 2 w_T (x_T - anchor) = c       (t = T)
    with S = diag(w) + w_total * ones, G = diag(gamma) and
    c = w * target + w_total * total_reference. The system is assembled
    here with scipy.sparse, independently of the planner code.
    """
    horizon, beta, n = scen.horizon, scen.beta, 4
    w = np.array(scen.cost.weights)
    w_total = scen.cost.total_weight
    gamma = np.diag(scen.rigidity.gamma)
    stage_hess = np.diag(w) + w_total * np.ones((n, n))
    last = sp.csr_matrix(([1.0], ([horizon - 1], [horizon - 1])), shape=(horizon, horizon))
    ahead = sp.identity(horizon) - last
    mat = (
        sp.kron(sp.identity(horizon), stage_hess + gamma)
        + sp.kron(beta * ahead, gamma)
        - sp.kron(sp.eye(horizon, k=-1), gamma)
        - sp.kron(beta * sp.eye(horizon, k=1), gamma)
        + sp.kron(last, 2.0 * terminal * np.eye(n))
    )
    rhs = np.tile(w * scen.cost.target.as_array() + w_total * scen.cost.total_reference, horizon)
    rhs[:n] += np.diag(gamma) * scen.baseline.as_array()
    rhs[-n:] += 2.0 * terminal * stage_cost_minimizer(scen)
    return spla.spsolve(mat.tocsc(), rhs).reshape(horizon, n)


def test_multi_category_solves_match_linear_system_oracle():
    # Without the cubic term the stationarity conditions are linear in the
    # stacked allocations, so the whole solve (discounting, total-penalty
    # coupling, terminal anchor) can be checked against a direct solve of
    # that system, at short horizons and at long ones.
    rng = np.random.default_rng(8)
    for long_horizon in (None,) * 5 + (1000, 5000):
        horizon = int(rng.integers(3, 12)) if long_horizon is None else long_horizon
        beta = float(rng.uniform(0.85, 0.98))
        w = rng.uniform(0.2, 2.0, 4)
        w_total = float(rng.uniform(0.0, 0.8))
        gamma = rng.uniform(0.3, 4.0, 4)
        x0 = rng.uniform(10, 40, 4)
        xstar = rng.uniform(10, 40, 4)
        total_ref = float(rng.uniform(80, 120))
        terminal = 50.0

        scen = Scenario(
            "linear-oracle",
            ExpenditureVector.from_array(x0),
            FiscalCostSpec(
                target=ExpenditureVector.from_array(xstar),
                weights=tuple(w),
                total_weight=w_total,
                total_reference=total_ref,
            ),
            RigidityParams(gamma=tuple(gamma), eta=(0, 0, 0, 0)),
            beta,
            horizon,
        )
        oracle = _linear_oracle(scen, terminal)

        report = solve(scen, SolverConfig(terminal_weight=terminal))
        assert report.converged, f"horizon {horizon}"
        assert np.abs(report.trajectory.values[1:] - oracle).max() < 1e-8, f"horizon {horizon}"


def test_frictionless_transition_jumps_to_target():
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
    assert gradualism_metric(report.trajectory, TARGETS) == pytest.approx(1.0, abs=1e-6)


def test_near_frictionless_limit_closes_the_gap_immediately():
    scen = Scenario(
        name="tiny-friction",
        baseline=BASELINE,
        cost=FiscalCostSpec(target=TARGETS, weights=(1, 1, 1, 1)),
        rigidity=RigidityParams(gamma=(1e-8,) * 4, eta=(1e-8,) * 4),
        beta=0.96,
        horizon=10,
    )
    report = solve(scen)
    assert report.converged
    assert gradualism_metric(report.trajectory, TARGETS) > 0.999


def test_gradualism_metric_scalar_half_step():
    report = solve(scalar_scenario(gamma=1.0, eta=0.0), NO_TERMINAL)
    metric = gradualism_metric(report.trajectory, ExpenditureVector(1, 0, 0, 0))
    assert metric == pytest.approx(0.5, abs=1e-8)


def test_gradualism_metric_takes_an_allocation_or_its_array_alike():
    scen = load_default_preset().scenario()
    traj = solve(scen).trajectory
    target = scen.cost.target
    assert gradualism_metric(traj, target) == gradualism_metric(traj, target.as_array())


def test_gradualism_metric_rejects_zero_gap():
    traj = Trajectory(np.tile(BASELINE.as_array(), (3, 1)))
    with pytest.raises(ValidationError):
        gradualism_metric(traj, BASELINE)


def test_gradualism_randomized_scenarios():
    rng = np.random.default_rng(31)
    for _ in range(20):
        scen = reform_scenario(rng)
        report = solve(scen)
        assert report.converged
        target = scen.cost.target
        metric = gradualism_metric(report.trajectory, target)
        assert 0.0 < metric < 1.0
        gaps = target.as_array() - scen.baseline.as_array()
        first = report.trajectory.deltas()[1]
        for k in range(4):
            if abs(gaps[k]) > 1e-9:
                assert abs(first[k]) < abs(gaps[k])


def test_euler_residuals_vanish_at_optimum():
    # The certificate covers every date, also at horizons where beta^t falls
    # far below the objective's resolution.
    base = load_default_preset().scenario()
    for horizon in (50, 1000, 5000):
        scen = dataclasses.replace(base, horizon=horizon)
        report = solve(scen)
        assert report.converged, f"horizon {horizon}"
        res = euler_residuals(report.trajectory, scen)
        assert res.shape == (scen.horizon - 1, 4)
        assert np.max(np.abs(res)) <= 1e-6, f"horizon {horizon}"
        # Without limits the public residuals are the certificate's, bit for bit.
        assert np.max(np.abs(res)) == report.max_euler_residual, f"horizon {horizon}"
        assert report.max_euler_residual <= 1e-6
        assert report.gradient_norm <= 1e-8


def test_euler_residuals_flag_hold_trajectory():
    scen = load_default_preset().scenario()
    hold = Trajectory(np.tile(scen.baseline.as_array(), (scen.horizon + 1, 1)))
    res = euler_residuals(hold, scen)
    assert np.max(np.abs(res)) > 0.1


def test_euler_residuals_flag_perturbed_solution():
    scen = load_default_preset().scenario()
    report = solve(scen)
    values = report.trajectory.values.copy()
    values[5, 2] += 1e-3
    res = euler_residuals(Trajectory(values), scen)
    assert np.max(np.abs(res)) > 1e-6


def test_euler_residuals_frictionless_reduce_to_stage_gradient():
    scen = Scenario(
        name="frictionless",
        baseline=BASELINE,
        cost=FiscalCostSpec(target=TARGETS, weights=(1, 1, 1, 1)),
        rigidity=RigidityParams(gamma=(0, 0, 0, 0), eta=(0, 0, 0, 0)),
        beta=0.96,
        horizon=10,
    )
    report = solve(scen)
    res = euler_residuals(report.trajectory, scen)
    assert np.max(np.abs(res)) < 1e-9


def test_euler_residuals_need_three_rows():
    scen = load_default_preset().scenario()
    short = Trajectory(np.tile(scen.baseline.as_array(), (2, 1)))
    with pytest.raises(ValidationError):
        euler_residuals(short, scen)


def test_one_year_solve_reports_vacuous_residual():
    report = solve(scalar_scenario(gamma=1.0, eta=0.0), NO_TERMINAL)
    assert report.max_euler_residual == 0.0


def test_solution_beats_hold_and_jump_paths():
    scen = load_default_preset().scenario()
    cfg = SolverConfig()
    report = solve(scen, cfg)
    x0 = scen.baseline.as_array()
    anchor = stage_cost_minimizer(scen)
    hold = Trajectory(np.tile(x0, (scen.horizon + 1, 1)))
    jump = Trajectory(np.vstack([x0, np.tile(scen.cost.target.as_array(), (scen.horizon, 1))]))
    assert report.objective <= objective_value(hold, scen, cfg) + 1e-9
    assert report.objective <= objective_value(jump, scen, cfg) + 1e-9
    # The terminal allocation settles at the long-run cost minimizer.
    assert np.allclose(report.trajectory.values[-1], anchor, atol=1e-4)


def _objective_date_by_date(traj, scen, cfg):
    """The transition objective through the public per-date costs."""
    deltas = traj.deltas()
    total = 0.0
    for t in range(traj.horizon + 1):
        stage = stage_cost(ExpenditureVector.from_array(traj.values[t]), scen.cost).value
        total += scen.beta**t * (stage + adjustment_cost(DeltaVector.from_array(deltas[t]), scen.rigidity).value)
    tail = traj.values[-1] - stage_cost_minimizer(scen)
    return total + scen.beta**scen.horizon * cfg.terminal_weight * float(tail @ tail)


def test_objective_value_is_the_discounted_sum_of_the_public_costs():
    cfg = SolverConfig()
    paths = [(scen, solve(scen, cfg).trajectory) for scen in (preset_scenario(50), preset_scenario(50, bound=0.5))]
    rng = np.random.default_rng(61)
    for _ in range(20):
        scen = random_scenario(rng)
        x0 = scen.baseline.as_array()
        paths.append((scen, Trajectory(np.vstack([x0, rng.uniform(0.0, 45.0, (scen.horizon, 4))]))))
    for scen, traj in paths:
        assert objective_value(traj, scen, cfg) == pytest.approx(_objective_date_by_date(traj, scen, cfg), rel=1e-12)


def test_objective_value_rejects_a_trajectory_off_the_baseline():
    # The objective holds x_0 at the baseline; a shifted path is not a plan from it.
    scen = load_default_preset().scenario()
    shifted = Trajectory(solve(scen).trajectory.values + 5.0)
    with pytest.raises(ValidationError, match="baseline"):
        objective_value(shifted, scen)


def test_objective_value_rejects_a_trajectory_of_another_horizon():
    scen = load_default_preset().scenario()
    shorter = solve(dataclasses.replace(scen, horizon=scen.horizon - 1)).trajectory
    with pytest.raises(ValidationError, match="does not match scenario horizon"):
        objective_value(shorter, scen)


def test_objective_history_never_increases():
    scen = load_default_preset().scenario()
    report = solve(scen)
    hist = np.array(report.objective_history)
    assert hist.size >= 2
    assert np.all(np.diff(hist) <= 1e-9 * (1.0 + np.abs(hist[:-1])))


def test_rigidity_scaling_slows_the_transition():
    preset = load_default_preset()
    cost = FiscalCostSpec(target=preset.cost.target, weights=(0.5, 0.5, 0.5, 0.5))
    gamma = np.array(preset.rigidity.gamma)
    eta = np.array(preset.rigidity.eta)

    def run(scale):
        scen = Scenario(
            name=f"scaled-{scale}",
            baseline=preset.baseline,
            cost=cost,
            rigidity=RigidityParams(gamma=tuple(scale * gamma), eta=tuple(scale * eta)),
            beta=0.96,
            horizon=50,
        )
        report = solve(scen)
        assert report.converged
        closure = gradualism_metric(report.trajectory, preset.cost.target)
        gaps = np.linalg.norm(report.trajectory.values - preset.cost.target.as_array(), axis=1)
        threshold = 0.01 * gaps[0]
        inside = np.nonzero(gaps < threshold)[0]
        settle = int(inside[0]) if inside.size else report.trajectory.horizon + 1
        return closure, settle

    closure_base, settle_base = run(1.0)
    closure_stiff, settle_stiff = run(2.0)
    assert closure_stiff <= closure_base + 1e-12
    assert settle_stiff >= settle_base


BOUND_SHAPES = {
    "symmetric": ((-0.5, 0.5),) * 4,
    "frozen": ((0.0, 0.0), (-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)),
    "one-sided": ((0.0, 0.5),) * 4,
    "half-infinite": ((-math.inf, 0.0), (0.0, math.inf), (-1.0, 1.0), (-math.inf, math.inf)),
}


def test_delta_bounds_are_respected_and_certified():
    preset = load_default_preset()
    cfg = SolverConfig()
    solved = {}
    for shape, bounds in BOUND_SHAPES.items():
        scen = Scenario(
            name="bounded",
            baseline=preset.baseline,
            cost=preset.cost,
            rigidity=preset.rigidity,
            beta=0.96,
            horizon=30,
            delta_bounds=bounds,
        )
        report = solve(scen, cfg)
        solved[shape] = scen, report
        assert report.converged, shape
        assert report.max_euler_residual <= 1e-6, shape
        deltas = report.trajectory.deltas()[1:]
        lo, hi = scen.bounds_arrays()
        assert max(np.max(lo - deltas), np.max(deltas - hi)) <= 0.0, shape
        # Holding the baseline is feasible under every shape, so the optimum beats it.
        hold = Trajectory(np.tile(scen.baseline.as_array(), (scen.horizon + 1, 1)))
        assert report.objective <= objective_value(hold, scen, cfg) + 1e-9, shape
        for k, (low, high) in enumerate(bounds):
            if low == high:
                assert np.all(report.trajectory.values[:, k] == scen.baseline.as_array()[k]), shape

    scen, report = solved["symmetric"]
    deltas = report.trajectory.deltas()
    # The cap binds early: the unconstrained first step is larger than 0.5.
    assert np.max(np.abs(deltas[1])) == pytest.approx(0.5, abs=1e-9)
    # The certificate prices the active limits with multipliers instead of
    # masking those dates: the plain residuals there are far from zero.
    assert np.max(np.abs(euler_residuals(report.trajectory, scen))) > 1e-3
    assert report.max_euler_residual <= 1e-6

    # A frozen category's free multiplier absorbs its certificate entries, but
    # the public residuals stay plain: its change is zero, so they are its
    # stage gradient, far from zero.
    scen, report = solved["frozen"]
    frozen = euler_residuals(report.trajectory, scen)[:, 0]
    allocations = report.trajectory.values[1:-1]
    gradients = [stage_cost(ExpenditureVector.from_array(x), scen.cost).gradient[0] for x in allocations]
    assert np.array_equal(frozen, gradients)
    assert np.min(np.abs(frozen)) > 1.0


def test_half_infinite_limits_certify_at_a_long_horizon():
    # Once every complementarity has settled at its floor the loop takes the
    # plain centred step; Mehrotra's corrector there alternates between two
    # iterates on this case and exhausts the budget.
    scen = dataclasses.replace(preset_scenario(1000), delta_bounds=BOUND_SHAPES["half-infinite"])
    report = solve(scen, SolverConfig(max_iterations=100))
    assert report.converged
    assert report.iterations <= 30


def test_limits_that_never_bind_leave_the_unbounded_optimum():
    # Limits at twice the largest unbounded change make the interior-point
    # path solve a problem with the same optimum.
    preset = load_default_preset().scenario()
    rng = np.random.default_rng(5)
    cases = [
        dataclasses.replace(preset, horizon=50),
        dataclasses.replace(preset, horizon=300),
        dataclasses.replace(preset, horizon=50, rigidity=asymmetric_variant(preset.rigidity)),
    ] + [reform_scenario(rng) for _ in range(5)]
    for scen in cases:
        free = solve(scen)
        width = 2.0 * np.max(np.abs(free.trajectory.deltas()))
        limited = solve(dataclasses.replace(scen, delta_bounds=((-width, width),) * 4))
        assert limited.converged
        assert np.max(np.abs(limited.trajectory.values - free.trajectory.values)) <= 1e-9
        assert limited.objective == pytest.approx(free.objective, rel=1e-12)


def test_random_bounded_scenarios_certify_in_few_steps():
    # Mehrotra's predictor-corrector takes a median of 11 steps on these
    # draws; centring at min(0.1 mu, mu^1.5) without a corrector takes 16.
    rng = np.random.default_rng(2026)
    iterations = []
    for _ in range(60):
        report = solve(random_scenario(rng, with_bounds=True))
        assert report.converged
        iterations.append(report.iterations)
    assert np.median(iterations) <= 11


def test_asymmetric_rigidity_slows_reductions():
    preset = load_default_preset()
    sym = Scenario("sym", preset.baseline, preset.cost, preset.rigidity, 0.96, 40)
    gamma = np.array(preset.rigidity.gamma)
    asym_params = RigidityParams(
        eta=preset.rigidity.eta,
        gamma_up=tuple(gamma),
        gamma_down=tuple(3.0 * gamma),
    )
    asym = Scenario("asym", preset.baseline, preset.cost, asym_params, 0.96, 40)
    rep_sym = solve(sym)
    rep_asym = solve(asym)
    assert rep_sym.converged and rep_asym.converged
    # Transfers fall under both regimes; costlier cuts mean a smaller first cut.
    cut_sym = rep_sym.trajectory.deltas()[1, 0]
    cut_asym = rep_asym.trajectory.deltas()[1, 0]
    assert cut_sym < 0 and cut_asym < 0
    assert abs(cut_asym) < abs(cut_sym)


def test_symmetric_rigidity_equals_asymmetric_with_equal_curvatures():
    base = load_default_preset().scenario()
    gamma = base.rigidity.gamma
    twin = RigidityParams(eta=base.rigidity.eta, gamma_up=gamma, gamma_down=gamma)
    for scen in (base, dataclasses.replace(base, horizon=12, delta_bounds=((-0.5, 0.5),) * 4)):
        sym = solve(scen)
        asym = solve(dataclasses.replace(scen, rigidity=twin))
        assert np.array_equal(sym.trajectory.values, asym.trajectory.values)
        assert sym.objective == asym.objective
        assert sym.objective_history == asym.objective_history


def test_solver_is_deterministic():
    scen = load_default_preset().scenario()
    a = solve(scen)
    b = solve(scen)
    assert np.array_equal(a.trajectory.values, b.trajectory.values)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_exhausted_iteration_budget_reports_not_converged():
    scen = load_default_preset().scenario()
    for bounds in (None, ((-0.5, 0.5),) * 4):
        report = solve(dataclasses.replace(scen, delta_bounds=bounds), SolverConfig(max_iterations=1))
        assert not report.converged, bounds
        assert report.iterations <= 1


def test_hold_initial_guess_reaches_same_solution():
    scen = load_default_preset().scenario()
    ramp = solve(scen, SolverConfig(initial_guess="linear-ramp"))
    hold = solve(scen, SolverConfig(initial_guess="hold"))
    assert ramp.converged and hold.converged
    assert np.allclose(ramp.trajectory.values, hold.trajectory.values, atol=1e-7)


def test_short_horizons_certify_with_stiff_terminal_weight():
    base = load_default_preset().scenario()
    for horizon in (1, 2, 3):
        scen = Scenario(f"h{horizon}", base.baseline, base.cost, base.rigidity, base.beta, horizon)
        report = solve(scen)
        assert report.converged, f"horizon {horizon}"
        assert report.gradient_norm <= 1e-8


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValidationError):
        SolverConfig(gradient_tol=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(initial_guess="warm")
    # A count is integral and finite; a weight or tolerance is finite.
    for budget in (1.9, np.inf, np.nan, "many"):
        with pytest.raises(ValidationError, match="max_iterations must be"):
            SolverConfig(max_iterations=budget)
    for weight in (-1.0, np.inf):
        with pytest.raises(ValidationError, match="terminal_weight must be"):
            SolverConfig(terminal_weight=weight)
    with pytest.raises(ValidationError, match="euler_tol must be"):
        SolverConfig(euler_tol=np.inf)


def test_stage_cost_minimizer_closed_form():
    preset = load_default_preset()
    anchor = stage_cost_minimizer(preset.scenario())
    # Uniform weights shift every category equally to meet the total pull.
    shift = (100.0 - 97.0) / (1.0 + 0.25 * (4 / 0.25))
    assert np.allclose(anchor, preset.cost.target.as_array() - (0.25 * shift / 0.25), atol=1e-12)
    assert anchor.sum() == pytest.approx(97.0 + shift, abs=1e-12)


@pytest.mark.parametrize("scen", [preset_scenario(50), random_scenario(np.random.default_rng(7), with_bounds=True)])
def test_stage_cost_minimizer_is_the_solves_anchor(scen):
    assert stage_cost_minimizer(scen).tobytes() == solve(scen).anchor.tobytes()


def test_horizon_past_the_float_range_of_the_discount_is_rejected():
    # beta^(T/2) is about 1e-301 at T = 2000 and below the smallest normal
    # float at T = 2200, where the scaled Newton system cannot hold the late dates.
    preset = load_default_preset().scenario()
    assert solve(dataclasses.replace(preset, beta=0.5, horizon=2000)).converged
    with pytest.raises(ValidationError, match=r"beta = 0\.5.*T = 2200"):
        solve(dataclasses.replace(preset, beta=0.5, horizon=2200))


# Iteration counts of the Newton loop on shipped cases. A rewrite of the
# step's arithmetic that keeps the algorithm keeps the iterate sequence, and
# with it these counts.
PINNED_ITERATIONS = [
    ((50, 0.5, False), 8),
    ((300, 0.5, False), 8),
    ((1000, None, False), 5),
    ((50, None, True), 4),
    # Held solves, whose iterations are those of the short solve at T = 128.
    ((5000, None, False), 5),
    ((1000, 0.5, False), 8),
]


@pytest.mark.parametrize("case, iterations", PINNED_ITERATIONS)
def test_iteration_counts_are_pinned(case, iterations):
    report = solve(preset_scenario(*case))
    assert report.converged
    assert report.iterations == iterations


# The iteration count of every solve in a seeded corpus, each certified: 80
# random_scenario draws from default_rng(1616), with limits at even indices,
# then the +-0.5 preset at T = 50 and 300. Counts recorded before the step's
# arithmetic was rewritten, which kept each one.
CORPUS_ITERATIONS = (
    10, 6, 15, 5, 12, 6, 9, 6, 13, 5, 10, 5, 10, 6, 10, 6, 12, 5, 8, 5,
    9, 5, 11, 6, 8, 6, 7, 6, 8, 6, 11, 5, 10, 6, 15, 6, 10, 5, 11, 6,
    14, 5, 10, 5, 19, 6, 17, 6, 11, 6, 10, 5, 10, 5, 10, 5, 10, 6, 10, 5,
    14, 7, 9, 5, 11, 5, 11, 6, 11, 6, 10, 6, 10, 4, 10, 6, 8, 4, 13, 5,
    8, 8,
)  # fmt: skip


def test_a_seeded_corpus_keeps_its_iteration_counts():
    rng = np.random.default_rng(1616)
    scenarios = [random_scenario(rng, with_bounds=i % 2 == 0) for i in range(80)]
    scenarios += [preset_scenario(50, 0.5), preset_scenario(300, 0.5)]
    reports = [solve(scen) for scen in scenarios]
    assert [(r.iterations, r.termination) for r in reports] == [(n, "converged") for n in CORPUS_ITERATIONS]


@pytest.fixture
def evaluations(monkeypatch):
    """The number of ``_Objective.evaluate`` calls so far, as a list of ones."""
    calls = []
    evaluate = planner._Objective.evaluate

    def counted(objective, path):
        calls.append(1)
        return evaluate(objective, path)

    monkeypatch.setattr(planner._Objective, "evaluate", counted)
    return calls


@pytest.mark.parametrize("bound", [None, 0.5])
def test_a_solve_evaluates_its_first_guess_and_each_trial_point_once(evaluations, bound):
    # No step of the preset backtracks, so the loop evaluates its first guess
    # and one trial point per iteration; the certificate evaluates nothing.
    scen = preset_scenario(50, bound)
    report = solve(scen)
    assert report.converged
    assert len(evaluations) == report.iterations + 1
    objective = planner._Objective(scen, SolverConfig())
    result = planner._newton(planner._NewtonSystem(objective))
    del evaluations[:]
    # A path that Trajectory lifts to zero where it sits within roundoff below
    # it is evaluated again, as lifted.
    path = result[0].copy()
    path[-1, 0] = -1e-12
    lifted = planner._certify(objective, path, *result[1:])
    assert len(evaluations) == 1 and lifted.trajectory.values[-1, 0] == 0.0
    assert lifted.objective == objective_value(lifted.trajectory, scen)


@pytest.mark.parametrize("horizon", [50, 1000])
@pytest.mark.parametrize(
    "bound, asymmetric", [(None, False), (0.5, False), (None, True)], ids=["preset", "preset-0.5", "asymmetric"]
)
def test_the_reported_objective_is_objective_value_to_the_bit(horizon, bound, asymmetric):
    # The loop's evaluation of its last path and objective_value's fresh
    # objective compute the same formula on the same arrays.
    scen = preset_scenario(horizon, bound, asymmetric)
    report = solve(scen)
    assert report.objective == objective_value(report.trajectory, scen)


@pytest.mark.parametrize("bound", [None, 0.5])
def test_the_certificate_from_the_loops_evaluation_matches_a_fresh_one(bound):
    objective = planner._Objective(preset_scenario(50, bound), SolverConfig())
    path, z, history, stopped, evaluation = planner._newton(planner._NewtonSystem(objective))
    reused = planner._certify(objective, path, z, history, stopped, evaluation)
    fresh = planner._certify(objective, path, z, history, stopped)
    for field in dataclasses.fields(SolveReport):
        mine, theirs = getattr(reused, field.name), getattr(fresh, field.name)
        if isinstance(mine, Trajectory):
            mine, theirs = mine.values, theirs.values
        assert np.array_equal(mine, theirs), field.name


def _overflowing_scenarios():
    preset = load_default_preset().scenario()
    # Nearly free composition, no adjustment curvature, a frozen category and
    # two limits one-sided at zero, at T = 1000 with beta = 0.5: the late dates
    # weigh nothing, a slack there is driven into roundoff, and z / s
    # overflows. Where it does depends on rounding.
    degenerate = dataclasses.replace(
        preset,
        cost=dataclasses.replace(preset.cost, weights=(1e-8,) * 4, total_weight=1.0),
        rigidity=RigidityParams(gamma=(0.0,) * 4, eta=(0.0,) * 4),
        delta_bounds=((0.0, 0.0), (-1.0, 1.0), (0.0, 0.1), (-0.1, 0.0)),
        beta=0.5,
        horizon=1000,
    )
    # A cubic curvature near the float range overflows the first guess's band.
    stiff_cubic = RigidityParams(gamma=preset.rigidity.gamma, eta=(1e308,) * 4)

    def corner(scale, gamma, eta, beta, horizon, bounds):
        # The preset with target and total reference scaled, and one gamma and eta for all.
        cost = dataclasses.replace(
            preset.cost,
            target=ExpenditureVector.from_array(scale * preset.cost.target.as_array()),
            total_reference=scale * preset.cost.total_reference,
        )
        rigidity = RigidityParams(gamma=(gamma,) * 4, eta=(eta,) * 4)
        return dataclasses.replace(preset, cost=cost, rigidity=rigidity, beta=beta, horizon=horizon, delta_bounds=bounds)

    # The rest keep the band finite, but a cost overflows, so the right-hand
    # side of a back-solve is not: at the first guess (the file's case, where
    # eta * d^2 overflows, and the next two) or after one or sixteen steps.
    overflow = parse_scenario((Path(__file__).resolve().parent / "overflow_singular.scn").read_text(encoding="utf-8"))
    mixed = degenerate.delta_bounds
    return [
        degenerate,
        dataclasses.replace(preset, rigidity=stiff_cubic, horizon=5),
        overflow,
        corner(1e6, 1.0, 1e300, 0.96, 10, None),
        corner(1e150, 1e300, 0.0, 0.5, 2, None),
        corner(1e150, 1.0, 1.0, 0.96, 2, mixed),
        corner(1e150, 1e300, 0.0, 0.5, 10, mixed),
    ]


@pytest.mark.parametrize(
    "scen",
    _overflowing_scenarios(),
    ids=["degenerate-mixed-T1000", "stiff-cubic", "rhs-file", "rhs-cubic", "rhs-quadratic", "rhs-mixed", "rhs-stiff-mixed"],
)
def test_a_band_that_overflows_is_a_singular_stop(scen):
    # The band or a right-hand side is then not finite, which stops the loop;
    # the path is reported lifted to zero where it wandered below it, and
    # nothing warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(scen)
    assert (report.termination, report.converged) == ("singular", False)


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_an_overflowed_residual_is_reported_as_infinite(horizon):
    # The overflowed marginal cost leaves inf - inf in the residual of each
    # date before T; the report reads that as uncertified (inf), never nan.
    overflow = parse_scenario((Path(__file__).resolve().parent / "overflow_singular.scn").read_text(encoding="utf-8"))
    report = solve(dataclasses.replace(overflow, horizon=horizon))
    assert (report.termination, report.converged, report.iterations) == ("singular", False, 0)
    assert report.gradient_norm == math.inf
    assert report.max_euler_residual == (0.0 if horizon == 1 else math.inf)


@pytest.mark.xfail(
    strict=True,
    raises=ValidationError,
    reason="ROADMAP item 7: x >= 0 is checked by Trajectory after the solve, not imposed in it",
)
@pytest.mark.parametrize("name", ["negative_path_301_88", "negative_path_302_97"])
def test_a_bounded_draw_whose_path_dips_below_zero_certifies(name):
    # Kept under known_failures/, out of the committed-scenario sweep, until it passes.
    path = Path(__file__).resolve().parent / "known_failures" / f"{name}.scn"
    report = solve(parse_scenario(path.read_text(encoding="utf-8")))
    assert report.converged
    assert report.trajectory.values.min() >= 0.0


@pytest.mark.parametrize("case", [(50, 0.5), (300, 0.5), (1000, None), (5000, None)])
def test_one_banded_factorisation_per_step(monkeypatch, case):
    factorisations, back_solves = [], []
    factorise = planner._factorise

    def counted(band):
        factorisations.append(band.shape[1])
        back_solve = factorise(band)

        def counted_solve(rhs):
            back_solves.append(1)
            return back_solve(rhs)

        return counted_solve

    monkeypatch.setattr(planner, "_factorise", counted)
    report = solve(preset_scenario(*case))
    assert report.converged
    # Every accepted step factorises once; the step that finds the iterate
    # certified factorises nothing, and one whose line search fails would
    # factorise once more than it counts.
    assert report.iterations <= len(factorisations) <= report.iterations + 1
    assert len(report.objective_history) == report.iterations + 1
    # Past twice 128 dates only the short solve's 128 dates are factorised.
    assert set(factorisations) == {4 * min(case[0], 128)}
    # Predictor, corrector and at most one centred fallback share the factor;
    # without limits a step is one back-solve.
    if case[1] is None:
        assert len(back_solves) == len(factorisations)
    else:
        assert len(factorisations) < len(back_solves) <= 3 * len(factorisations)


def test_factorisation_solves_like_solveh_banded():
    # The same LAPACK routines as scipy's solveh_banded, so the same bits.
    scen = preset_scenario(50)
    objective = planner._Objective(scen, SolverConfig())
    curv = objective.evaluate(planner._initial_allocations(objective))[-1]
    band = planner._NewtonSystem(objective).band(curv)
    rhs = np.random.default_rng(3).standard_normal(band.shape[1])
    assert np.array_equal(planner._factorise(band)(rhs), sla.solveh_banded(band, rhs))
    assert planner._lapack()[0] is sla.lapack.dpbtrf
    assert planner._lapack()[1] is sla.lapack.dpbtrs
    with pytest.raises(np.linalg.LinAlgError):
        planner._factorise(-band)
    with pytest.raises(ValueError):
        planner._factorise(band)(np.full_like(rhs, np.inf))
    band[-1, 0] = np.nan
    with pytest.raises(ValueError):
        planner._factorise(band)


def test_scipy_linalg_imported_after_a_solve_runs_the_same_routines():
    # This process imported scipy.linalg before the first solve; a fresh one
    # solves first, loading LAPACK's extension alone, and imports it after.
    code = """
        import sys
        import numpy as np
        from fistrans import SolverConfig, load_default_preset, planner, solve

        scen = load_default_preset().scenario()
        assert solve(scen).converged and "scipy.linalg" not in sys.modules
        import scipy.linalg as sla

        objective = planner._Objective(scen, SolverConfig())
        band = planner._NewtonSystem(objective).band(objective.evaluate(planner._initial_allocations(objective))[-1])
        rhs = np.random.default_rng(3).standard_normal(band.shape[1])
        same = np.array_equal(planner._factorise(band)(rhs), sla.solveh_banded(band, rhs))
        print((same, planner._lapack()[0] is sla.lapack.dpbtrf, planner._lapack()[1] is sla.lapack.dpbtrs))
    """
    assert fresh_python(code) == (True, True, True)


def test_a_missing_lapack_extension_is_an_import_error(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    planner._lapack.cache_clear()
    with pytest.raises(ImportError, match=r"linalg.+_flapack<suffix> is missing"):
        planner._lapack()


@pytest.mark.parametrize(
    "expected, bounds, cfg",
    [
        ("converged", None, SolverConfig()),
        ("budget_exhausted", None, SolverConfig(max_iterations=1)),
        ("budget_exhausted", ((-0.5, 0.5),) * 4, SolverConfig(max_iterations=1)),
        # The terminal residual's roundoff floor, about 2 * w_T * ulp(x_T),
        # sits above the gradient tolerance: the loop stops there, uncertified.
        ("roundoff_floor", None, SolverConfig(terminal_weight=1e9)),
        # The loop meets its own test, but the residual tolerance is set below it.
        ("roundoff_floor", None, SolverConfig(euler_tol=1e-16)),
    ],
)
def test_termination_says_why_the_solve_stopped(expected, bounds, cfg):
    report = solve(dataclasses.replace(load_default_preset().scenario(), delta_bounds=bounds), cfg)
    assert report.termination == expected
    assert report.converged == (expected == "converged")


NEGATIVE_ANCHOR = parse_scenario((Path(__file__).resolve().parent / "negative_anchor.scn").read_text(encoding="utf-8"))


@pytest.fixture
def newton_horizons(monkeypatch):
    """The horizon of each ``_newton`` call so far."""
    horizons = []
    newton = planner._newton

    def counted(system):
        horizons.append(system.objective.T)
        return newton(system)

    monkeypatch.setattr(planner, "_newton", counted)
    return horizons


@pytest.mark.parametrize(
    "scen, cfg, horizons, termination",
    [
        # A frozen category's anchor is no long-run point: straight to the full solve.
        (dataclasses.replace(preset_scenario(1000), delta_bounds=MIXED_LIMITS), None, [1000], "converged"),
        # A short solve that does not converge is not retried.
        (preset_scenario(1000), SolverConfig(max_iterations=1), [128, 1000], "budget_exhausted"),
        # Held at 128, the asymmetric path's residual at date 128 is 1.01e-10, past the
        # stop test's 1e-10, so it is held from 256 (at T = 300, not held at all).
        (preset_scenario(1000, asymmetric=True), None, [128, 256], "converged"),
        (preset_scenario(300, asymmetric=True), None, [128, 300], "converged"),
        # The held path's certificate passes the loop's stop test, its gradient
        # norm within 1e-10, and is kept though it fails the residual tolerance.
        (preset_scenario(1000), SolverConfig(euler_tol=1e-16), [128], "roundoff_floor"),
        # The short loop stops at its roundoff floor, unconverged: nothing is held.
        (preset_scenario(1000), SolverConfig(gradient_tol=1e-13), [128, 1000], "converged"),
        # Held at the anchor (20, -2, -2, 4), a path is no Trajectory and is not
        # judged; the full path, which limits of +-0.01 keep nonnegative, is.
        (dataclasses.replace(NEGATIVE_ANCHOR, horizon=300, delta_bounds=((-0.01, 0.01),) * 4), None, [128, 300], "converged"),
    ],
    ids=["frozen", "budget", "asymmetric-T1000", "asymmetric-T300", "euler_tol-1e-16", "gradient_tol-1e-13", "negative-anchor"],
)
def test_a_long_solve_holds_a_short_one_or_falls_back(newton_horizons, scen, cfg, horizons, termination):
    report = solve(scen, cfg)
    assert newton_horizons == horizons
    assert report.termination == termination
    # On a held solve the history is the held short solve's, and the objective the full horizon's.
    assert len(report.objective_history) == report.iterations + 1
    assert report.objective == objective_value(report.trajectory, scen, cfg)


def _count_calls(monkeypatch, cls, name):
    """The number of calls to ``cls.name`` so far, as a one-element list."""
    calls = [0]
    method = getattr(cls, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return method(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


ONE_OBJECTIVE_CASES = {
    **{
        f"T{horizon}{'' if bound is None else '-0.5'}": preset_scenario(horizon, bound)
        for horizon in (300, 1000, 5000)
        for bound in (None, 0.5)
    },
    # Held only from 256: the tries at 128 and 256 both read the full objective.
    "asymmetric-T1000": preset_scenario(1000, asymmetric=True),
}


@pytest.mark.parametrize("scen", ONE_OBJECTIVE_CASES.values(), ids=ONE_OBJECTIVE_CASES.keys())
def test_a_long_solve_builds_one_objective(monkeypatch, scen):
    # A held try's short objective is the full objective's first dates, not a new one.
    built = _count_calls(monkeypatch, planner._Objective, "__init__")
    assert solve(scen).converged
    assert built == [1]


@pytest.mark.parametrize(
    "scen, limited",
    [
        (preset_scenario(50), False),
        (preset_scenario(1000), False),
        (reform_scenario(np.random.default_rng(0), horizon=25), False),
        (preset_scenario(50, 0.5), True),
    ],
    ids=["T50", "T1000-held", "reform-T25", "T50-0.5"],
)
def test_a_solve_without_limits_computes_no_limit_term(monkeypatch, scen, limited):
    # Without change limits every multiplier is zero, so neither the loop nor
    # the certificate, of a held path or of the loop's, adds their terms.
    added = _count_calls(monkeypatch, planner._Objective, "with_multipliers")
    assert solve(scen).converged
    assert (added[0] > 0) == limited


FROZEN_ONLY = ((0.0, 0.0), (-math.inf, math.inf), (-math.inf, math.inf), (-math.inf, math.inf))


@pytest.mark.parametrize("horizon", [20, 300])
def test_a_frozen_category_without_finite_limits_carries_no_multipliers(horizon):
    # No free category has a finite limit, so the loop carries no slacks or
    # multipliers; the certificate still checks the frozen category's pin.
    scen = dataclasses.replace(preset_scenario(horizon), delta_bounds=FROZEN_ONLY)
    assert planner._newton(planner._NewtonSystem(planner._Objective(scen)))[1] is None
    report = solve(scen)
    assert report.converged
    assert np.all(report.trajectory.values[:, 0] == scen.baseline.transfers)
    # Without the total penalty the categories are separate, so moving the frozen
    # one leaves every residual as it was (its own are absorbed) but breaks its pin.
    separable = dataclasses.replace(scen, cost=dataclasses.replace(scen.cost, total_weight=0.0))
    objective = planner._Objective(separable)
    path, z, history, stopped, _ = planner._newton(planner._NewtonSystem(objective))
    assert (z, stopped) == (None, "converged")
    path[horizon // 2, 0] += 1e-6
    moved = planner._certify(objective, path, z, history, stopped)
    assert moved.gradient_norm <= objective.config.gradient_tol
    assert not moved.converged


def test_termination_reports_a_singular_band(monkeypatch):
    # A band that is not positive definite fails the real factorisation.
    band = planner._NewtonSystem.band
    monkeypatch.setattr(planner._NewtonSystem, "band", lambda system, curv: -band(system, curv))
    report = solve(load_default_preset().scenario())
    assert (report.termination, report.converged, report.iterations) == ("singular", False, 0)


def test_termination_reports_a_stalled_line_search(monkeypatch):
    # Every back-solve returns a zero step, which is no descent direction.
    monkeypatch.setattr(planner, "_factorise", lambda band: np.zeros_like)
    report = solve(load_default_preset().scenario())
    assert (report.termination, report.converged, report.iterations) == ("line_search_stalled", False, 0)


def test_exhausted_backtracking_is_a_stalled_line_search(monkeypatch, capsys):
    # With no backtrack allowed, the line search accepts no step: the loop stops
    # at the first guess, and the CLI reports that stop and exits 2.
    monkeypatch.setattr(planner, "_MAX_BACKTRACKS", 0)
    scenario = load_default_preset().scenario()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(scenario)
        code = run_cli(["simulate", "--preset", "paper-default"])
    assert (report.termination, report.converged, report.iterations) == ("line_search_stalled", False, 0)
    first_guess = planner._initial_allocations(planner._Objective(scenario, SolverConfig()))
    assert np.array_equal(report.trajectory.values, first_guess)
    assert code == EXIT_NOT_CONVERGED
    assert "line_search_stalled after 0 iterations" in capsys.readouterr().err


# An asymmetric T = 25 reform on which a full Newton step takes the residual
# from about 1e-8 to 1e-12 while the merit reads only roundoff.
ROUNDOFF_MERIT_REFORM = """\
name = "reform-13"
beta = 0.96
horizon = 25

[baseline]
transfers = 15.334773507013177
wages = 28.808439957176606
investment = 15.902308654637139
operating = 17.304781360842476

[target]
transfers = 15.18383018034498
wages = 28.939639356730076
investment = 15.601642928664395
operating = 17.625191013929946

[weights]
transfers = 1.2830231994510937
wages = 0.2671761208552148
investment = 1.2758737130169735
operating = 1.256574536441809
total = 0.4619915626437809
total_reference = 78.3367097265786

[rigidity.transfers]
gamma_up = 2.8181988661531534
gamma_down = 3.4544872409269733
eta = 0.4263293528509049

[rigidity.wages]
gamma_up = 1.8665782382506315
gamma_down = 2.5644102243410236
eta = 1.5571607362558242

[rigidity.investment]
gamma_up = 1.2847275612873508
gamma_down = 1.6689584196774467
eta = 0.5556968240572167

[rigidity.operating]
gamma_up = 2.683417830872136
gamma_down = 2.742924818455367
eta = 1.8253665794382206
"""


def test_a_step_below_the_merit_resolution_is_accepted():
    # Rejecting that step would shrink it to a null step, repeated until the
    # budget runs out just above the gradient tolerance.
    report = solve(parse_scenario(ROUNDOFF_MERIT_REFORM), SolverConfig(max_iterations=50))
    assert report.termination == "converged"
    assert report.iterations <= 10
