"""Metamorphic oracles: relations between solves that hold exactly in
exact arithmetic, so they check the solver without a reference solution."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from fistrans import (
    CostEval,
    ExpenditureVector,
    RigidityParams,
    SolverConfig,
    euler_residuals,
    gradient_check,
    objective_value,
    planner,
    solve,
)

from helpers import MIXED_LIMITS, preset_scenario, random_scenario, reform_scenario

PERMUTATION = (2, 0, 3, 1)


@pytest.mark.parametrize("horizon", [50, 1000])
@pytest.mark.parametrize("bound", [None, 0.5])
def test_principle_of_optimality(horizon, bound):
    # The terminal penalty is weighted by beta^T, so the problem from date k
    # on is the tail problem up to the factor beta^k: re-solving from x_k over
    # the remaining T - k years reproduces the tail of the trajectory.
    scen = preset_scenario(horizon, bound)
    report = solve(scen)
    assert report.converged
    values = report.trajectory.values
    for k in (1, horizon // 3, horizon - 2):
        tail = solve(dataclasses.replace(scen, baseline=ExpenditureVector(*values[k]), horizon=horizon - k))
        assert tail.converged, k
        assert np.abs(tail.trajectory.values - values[k:]).max() <= 1e-10, k


def _permute(scen):
    def perm(seq):
        return tuple(seq[p] for p in PERMUTATION)

    rig = scen.rigidity
    rigidity = dataclasses.replace(
        rig, **{f: perm(getattr(rig, f)) for f in ("gamma", "eta", "gamma_up", "gamma_down") if getattr(rig, f) is not None}
    )
    cost = dataclasses.replace(scen.cost, target=ExpenditureVector(*perm(scen.cost.target.as_tuple())), weights=perm(scen.cost.weights))
    bounds = None if scen.delta_bounds is None else perm(scen.delta_bounds)
    baseline = ExpenditureVector(*perm(scen.baseline.as_tuple()))
    return dataclasses.replace(scen, baseline=baseline, cost=cost, rigidity=rigidity, delta_bounds=bounds)


@pytest.mark.parametrize(
    "scen",
    [
        preset_scenario(50),
        preset_scenario(50, 0.5),
        dataclasses.replace(preset_scenario(1000), delta_bounds=MIXED_LIMITS),
        dataclasses.replace(preset_scenario(300, asymmetric=True), delta_bounds=MIXED_LIMITS),
        *(random_scenario(np.random.default_rng(seed), with_bounds=True) for seed in range(3)),
    ],
    ids=["preset", "preset-0.5", "preset-mixed-T1000", "asymmetric-mixed", "random-0", "random-1", "random-2"],
)
def test_category_permutation(scen):
    # Relabelling the categories relabels the solution and nothing else.
    report, permuted = solve(scen), solve(_permute(scen))
    assert report.converged and permuted.converged
    assert permuted.iterations == report.iterations
    assert np.abs(permuted.trajectory.values - report.trajectory.values[:, list(PERMUTATION)]).max() <= 1e-10


@pytest.mark.parametrize("horizon", [50, 300])
def test_limit_multipliers_price_the_limits(horizon):
    # Envelope theorem: relaxing a limit by eps lowers the optimum by eps times
    # its present-value multiplier, sum_t beta^t z_{t,k}, up to O(eps^2).
    eps = 1e-5
    scen = preset_scenario(horizon, 0.5)
    system = planner._NewtonSystem(planner._Objective(scen, SolverConfig()))
    z = planner._newton(system)[1]
    price = np.einsum("t,stk->sk", system.objective.disc, z)
    objective = solve(scen).objective
    active = np.argwhere(price > 1e-8)
    assert len(active) == 3  # transfers' and wages' lower limits, investment's upper
    for side, k in active:
        bounds = [list(pair) for pair in scen.delta_bounds]
        bounds[k][side] += eps if side else -eps
        relaxed = solve(dataclasses.replace(scen, delta_bounds=tuple(map(tuple, bounds))))
        assert relaxed.converged
        assert (objective - relaxed.objective) / eps == pytest.approx(price[side, k], rel=1e-3), (side, k)


@pytest.mark.parametrize(
    "scen",
    [
        *(preset_scenario(horizon) for horizon in (1, 2, 7)),
        preset_scenario(7, asymmetric=True),
        *(dataclasses.replace(random_scenario(np.random.default_rng(seed)), horizon=1 + seed % 8) for seed in range(20)),
    ],
    ids=["preset-T1", "preset-T2", "preset-T7", "asymmetric-T7", *(f"random-{seed}" for seed in range(20))],
)
def test_residuals_are_the_objective_gradient(scen):
    # Row t of the residuals, times beta^t, is the objective's gradient in x_t:
    # the stationarity formula behind every certificate, checked against
    # central differences of the objective itself, date by date.
    for t, error in enumerate(_difference_errors(scen), start=1):
        assert error < 1e-6, t


def _difference_errors(scen):
    """Per date t = 1..T, ``gradient_check``'s error of beta^t times row t of
    the residuals against central differences of the objective in x_t, at the
    first guess plus a seeded perturbation."""
    objective = planner._Objective(scen)
    assert objective.frozen is None  # no limits, so no residual is zeroed
    rng = np.random.default_rng(scen.horizon)
    base = planner._initial_allocations(objective)
    base[1:] += rng.normal(0.0, 0.5, (scen.horizon, 4))

    def at_date(t):
        def f(row):
            path = base.copy()
            path[t] = row
            value, residual, _ = objective.evaluate(path)
            return CostEval(value, objective.disc[t - 1] * residual[t - 1])

        return f

    return [gradient_check(at_date(t), base[t]) for t in range(1, scen.horizon + 1)]


def test_the_objective_side_builds_no_newton_system(monkeypatch):
    # objective_value, euler_residuals and the difference oracle read the
    # objective alone: none builds the Newton system, its band buffers or its
    # (2, T, 4) limit grids, and no array of the objective holds more than
    # one entry per date and category.
    scen = preset_scenario(50)
    trajectory = solve(scen).trajectory
    expected = objective_value(trajectory, scen), euler_residuals(trajectory, scen), _difference_errors(scen)

    def refuse(system, objective):
        raise AssertionError("built a Newton system")

    monkeypatch.setattr(planner._NewtonSystem, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a Newton system"):
        solve(scen)
    assert objective_value(trajectory, scen) == expected[0]
    assert np.array_equal(euler_residuals(trajectory, scen), expected[1])
    assert _difference_errors(scen) == expected[2] and max(expected[2]) < 1e-6
    held = vars(planner._Objective(scen)).values()
    arrays = [v for value in held for v in (value if isinstance(value, tuple) else (value,))]
    assert max(np.size(v) for v in arrays if isinstance(v, np.ndarray)) == scen.horizon * 4


def _quadratic(scen):
    """The scenario with eta = 0 and the symmetric gamma = gamma_up."""
    rig = scen.rigidity
    gamma = rig.gamma if rig.gamma is not None else rig.gamma_up
    return dataclasses.replace(scen, rigidity=RigidityParams(gamma=gamma, eta=(0.0,) * 4))


def _bvls_oracle(scen):
    """Allocations x_1..x_T of a scenario with symmetric gamma and eta = 0, from
    bounded-variable least squares in the changes d, independently of the planner.

    The objective is then 1/2 ||A d - y||^2 with x_t = x_0 + sum_{s<=t} d_s, and
    the change limits are box bounds on d. Date t gives the rows
    sqrt(beta^t w_k) (x_{t,k} - target_k), sqrt(beta^t w_total) (sum_k x_{t,k} - R)
    and sqrt(beta^t gamma_k) d_{t,k}; date T adds sqrt(2 beta^T w_T) (x_T - anchor),
    the anchor being C's minimiser.
    """
    T, x0 = scen.horizon, scen.baseline.as_array()
    w, target = np.array(scen.cost.weights), scen.cost.target.as_array()
    w_total, reference = scen.cost.total_weight, scen.cost.total_reference
    anchor = np.linalg.solve(np.diag(w) + w_total, w * target + w_total * reference)
    root = np.sqrt(scen.beta ** np.arange(1, T + 1))[:, None]  # sqrt(beta^t), t = 1..T
    cumulative = np.kron(np.tril(np.ones((T, T))), np.eye(4))  # x_1..x_T, stacked, is x_0 + cumulative @ d
    by_weight = (root * np.sqrt(w)).ravel()
    by_total = root[:, 0] * np.sqrt(w_total)
    by_gamma = (root * np.sqrt(scen.rigidity.gamma)).ravel()
    terminal = root[-1, 0] * np.sqrt(2.0 * SolverConfig().terminal_weight)
    A = np.vstack(
        [
            by_weight[:, None] * cumulative,
            by_total[:, None] * cumulative.reshape(T, 4, 4 * T).sum(axis=1),
            np.diag(by_gamma),
            terminal * cumulative[-4:],
        ]
    )
    y = np.concatenate(
        [by_weight * np.tile(target - x0, T), by_total * (reference - x0.sum()), np.zeros(4 * T), terminal * (anchor - x0)]
    )
    lo, hi = scen.bounds_arrays()
    result = lsq_linear(A, y, bounds=(np.tile(lo, T), np.tile(hi, T)), method="bvls")
    assert result.success, result.message
    return x0 + np.cumsum(result.x.reshape(T, 4), axis=0)


_DRAWS = np.random.default_rng(1313)
BVLS_CASES = {
    **{f"preset-0.5-T{horizon}": _quadratic(preset_scenario(horizon, 0.5)) for horizon in (5, 20, 50)},
    **{f"random-{i}": _quadratic(random_scenario(_DRAWS, with_bounds=True)) for i in range(50)},
}


@pytest.mark.parametrize("scen", BVLS_CASES.values(), ids=BVLS_CASES.keys())
def test_bounded_quadratic_solves_match_bounded_least_squares(scen):
    # Without the cubic term a solve with change limits is a least-squares
    # problem with box bounds on the changes, which an active-set method
    # solves exactly: the planner's path agrees to the barrier floor's error.
    report = solve(scen)
    assert report.converged
    assert np.abs(report.trajectory.values[1:] - _bvls_oracle(scen)).max() <= 1e-7


def _full_solve(scen, config=None):
    """The Newton loop over the scenario's whole horizon, certified: the solve without the hold."""
    objective = planner._Objective(scen, config)
    return planner._certify(objective, *planner._newton(planner._NewtonSystem(objective)))


HELD_CASES = {
    **{
        f"preset{'-asymmetric' if asymmetric else ''}{'' if bound is None else '-0.5'}-T{horizon}": (
            preset_scenario(horizon, bound, asymmetric),
            None,
        )
        for horizon in (300, 1000, 5000)
        for bound in (None, 0.5)
        for asymmetric in (False, True)
    },
    # Just past the preset's T_c of 114 dates, and the asymmetric one's of 157 with limits.
    **{f"preset-T{horizon}": (preset_scenario(horizon), None) for horizon in (150, 200)},
    "preset-asymmetric-0.5-T600": (preset_scenario(600, 0.5, asymmetric=True), None),
    # A tighter stop test holds from T_c = 143.
    "preset-T1000-gradient_tol-1e-13": (preset_scenario(1000), SolverConfig(gradient_tol=1e-13)),
    **{f"reform-{seed}": (reform_scenario(np.random.default_rng(seed), horizon=300), None) for seed in range(100)},
}


@pytest.mark.parametrize("scen, config", HELD_CASES.values(), ids=HELD_CASES.keys())
def test_a_held_path_matches_the_full_solve(scen, config):
    # Past T_c dates, which each category's decay rate sets (114 for the
    # preset), a solve holds a short solve's path at the anchor wherever that
    # passes the full horizon's stop test; the full horizon's own Newton loop
    # is the reference. The widest gap is the +-0.5 preset at T = 5000,
    # 2.9e-11 at date 7: there the full loop stops at gradient_norm 9.1e-11,
    # against the held path's 1.4e-12 (at T = 1000 the two are 6.5e-13
    # apart). Why the full loop stops that much looser at T = 5000 is not
    # explained.
    report, reference = solve(scen, config), _full_solve(scen, config)
    assert report.converged and reference.converged
    assert np.abs(report.trajectory.values - reference.trajectory.values).max() <= 1e-10
    assert report.objective == pytest.approx(reference.objective, rel=1e-12, abs=0.0)
    assert report.gradient_norm <= 1e-10
