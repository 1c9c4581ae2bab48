"""Finite-horizon transition planner with optimality certification.

The planner minimizes the discounted sum of allocation costs and
adjustment costs over a fixed horizon,

    sum_{t=0..T} beta^t [ C(x_t) + Phi(x_t - x_{t-1}) ]
      + beta^T * w_T * || x_T - anchor ||^2,

with x_0 fixed and the year-0 change set to zero. The quadratic terminal
penalty anchors the final allocation at the long-run minimizer of C,
bounding the bias from truncating the infinite sum. Decision variables are
the allocations x_1..x_T. Each date couples only to its neighbours, through
the change d_t = x_t - x_{t-1}, so the Hessian is block tridiagonal and
each Newton iteration factorises one band (Cholesky, bandwidth 4), linear
in T. The formulas of C and Phi live in ``costs``: each trial point is
differenced once and evaluated with both kernels, in the allocations.

Every scenario runs the same damped Newton loop with an Armijo line
search, which also takes a step whose predicted decrease the merit cannot
resolve. Optional per-category change limits lo_k <= d_{t,k} <= hi_k enter
as primal-dual interior-point terms: each finite limit carries a slack and
a multiplier per date, and their barrier marginal and curvature add to the
adjustment cost's, so the band keeps its shape. An iteration's first
back-solve with its one factorisation is the step from the objective's own
gradient: without limits the Newton step, the only back-solve, with no
limit term computed; with limits Mehrotra's affine-scaling predictor. Its
corrector carries no correction once every complementarity has settled,
and a plain centred step replaces it where it does not descend. A category
frozen at (0, 0) has no interior and is pinned to its baseline by identity
rows. LAPACK comes from scipy's compiled extension alone, loaded at the
first solve through ``_lapack``: code that never solves imports no scipy,
and a solve imports scipy's top-level package and that extension, not
the ``scipy.linalg`` package.

Convergence is certified at every date by the current-value stationarity
residuals, with multipliers for the change limits,

    r_{t,k} = dC/dx_k (x_t) + m_k(d_t) - beta * m_k(d_{t+1}),
    m_k(d) = phi'_k(d) - z^lo_k + z^hi_k,

which vanish at the optimum (date T adds the anchor's pull instead of the
next year's marginal), together with complementarity z * slack ~ 0.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from .costs import quad_allocation, quad_allocation_hessian, quad_cubic, stage_cost
from .types import (
    N_CATEGORIES,
    ExpenditureVector,
    Scenario,
    Trajectory,
    ValidationError,
    _store,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "solve",
    "euler_residuals",
    "gradualism_metric",
    "objective_value",
    "stage_cost_minimizer",
]

_GUESS_MODES = ("linear-ramp", "hold")

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60
# The loop stops once every current-value residual is below _DUAL_TOL and
# every limit's complementarity s * min(z, 1) is below _COMP_TOL: the slack
# itself where the multiplier is large, the product where it is small.
_DUAL_TOL = 1e-10
_COMP_TOL = 1e-10
# Relative size of a Newton step that no longer moves the allocations.
_ROUNDOFF = 1e-14
# Floor of each limit's barrier target (see _newton).
_COMP_FLOOR = 0.5 * _COMP_TOL
_STEP_TO_BOUNDARY = 0.995
# The first guess keeps this far inside finite change limits.
_START_MARGIN = 1e-2
# Relative ridge on the scaled band's diagonal (per date, beta^t times the
# unscaled one), which keeps zero-weight, zero-curvature directions solvable.
_RIDGE = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Solver controls; the defaults certify comfortably on the shipped preset."""

    max_iterations: int = 10_000
    gradient_tol: float = 1e-8
    euler_tol: float = 1e-6
    terminal_weight: float = 1e3
    initial_guess: str = "linear-ramp"

    def __post_init__(self) -> None:
        _store(self, "count", "max_iterations")
        _store(self, "positive", "gradient_tol", "euler_tol")
        _store(self, "nonnegative", "terminal_weight")
        if self.initial_guess not in _GUESS_MODES:
            raise ValidationError(f"initial_guess must be one of {_GUESS_MODES}, got {self.initial_guess!r}")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution trajectory plus the diagnostics that certify it.

    ``gradient_norm`` is the largest current-value stationarity residual
    over every date 1..T and ``max_euler_residual`` the largest over the
    interior dates 1..T-1, both with the change-limit multipliers.
    ``converged`` holds only when the first meets the gradient tolerance,
    the second meets the residual tolerance, and every change limit holds
    with complementarity within the gradient tolerance. ``termination``
    then reads ``converged``; otherwise it says why the loop stopped:
    ``budget_exhausted``, ``line_search_stalled`` (no descent direction or
    no accepted step), ``singular`` (the band did not factorise) or
    ``roundoff_floor`` (at floating-point resolution).
    """

    converged: bool
    iterations: int
    objective: float
    gradient_norm: float
    max_euler_residual: float
    trajectory: Trajectory
    objective_history: Tuple[float, ...]
    termination: str


class _Problem:
    """Arrays and callables for one scenario solve. C and Phi enter only through
    their ``costs`` kernels; ``allocation`` and ``adjustment`` hold the arguments.
    The band's buffers, which only a solve needs, are built on first use."""

    def __init__(self, scenario: Scenario, config: SolverConfig):
        self.scenario = scenario
        self.config = config
        self.x0 = scenario.baseline.as_array()
        self.T = scenario.horizon
        self.beta = scenario.beta
        self.disc = scenario.beta ** np.arange(1, self.T + 1)
        cost = scenario.cost
        self.allocation = (cost.weights_array(), cost.target.as_array(), cost.total_weight, cost.total_reference)
        self.adjustment = (*scenario.rigidity.gamma_pair(), scenario.rigidity.eta_array())
        self.anchor = stage_cost_minimizer(scenario)
        self.value0 = float(quad_allocation(self.x0, *self.allocation)[0])
        self.wT = config.terminal_weight
        self.tail_weight = (self.beta ** self.T) * self.wT
        # The change limits as a pair, lower then upper, each broadcasting
        # over dates: a limit's slack is sign * (d - limit).
        lo, hi = scenario.bounds_arrays()
        self.frozen = lo == hi
        self.limits = np.stack([lo, hi])[:, None, :]
        self.sign = np.array([1.0, -1.0])[:, None, None]
        self.has = np.isfinite(self.limits) & ~self.frozen
        self.orient = self.sign * self.has

    @cached_property
    def _band_buffers(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The Hessian band's entries that no iterate changes; ``band`` fills
        in the rest. Row 0 couples (t-1, k) with (t, k); rows 1..3 hold C's
        Hessian's coupling of categories within a date; row 4 the
        diagonal, to which each date's next curvature adds (date T's: the
        anchor's). Returns the band, row 0's factor, the diagonal's base and
        the next-curvature buffer."""
        n = N_CATEGORIES
        free = ~self.frozen
        hess = quad_allocation_hessian(self.scenario.cost.weights_array(), self.scenario.cost.total_weight)
        ab = np.zeros((n + 1, self.T, n))
        for offset in range(1, n):
            ab[n - offset, :, offset:] = np.diagonal(hess, offset) * (free[:-offset] & free[offset:])
        return ab, -np.sqrt(self.beta) * free, np.diagonal(hess), np.full((self.T, n), 2.0 * self.wT)

    def evaluate(self, x: np.ndarray) -> Tuple[float, Tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
        """Objective at the allocations x_1..x_T; the pull, the residuals' part no
        marginal cost enters (the stage gradients, and the anchor's pull on date
        T); and the marginal and curvature adjustment cost of each change."""
        phi, marg, curv = quad_cubic(_differences(x, self.x0), *self.adjustment)
        stage, stage_grad = quad_allocation(x, *self.allocation)
        value = self.value0 + float(self.disc @ (stage + phi.sum(axis=-1)))
        tail = x[-1] - self.anchor
        return value + self.tail_weight * float(tail @ tail), (stage_grad, 2.0 * self.wT * tail), marg, curv

    def residuals(self, pull: Tuple[np.ndarray, np.ndarray], marg: np.ndarray) -> np.ndarray:
        """Current-value gradient in x_1..x_T (row t divided by beta^t), given
        the marginal cost of each change. A frozen category's free multiplier
        absorbs its entries."""
        stage, anchor = pull
        r = stage + marg
        r[:-1] -= self.beta * marg[1:]
        r[-1] += anchor
        np.copyto(r, 0.0, where=self.frozen)
        return r

    def kkt(self, pull, marg: np.ndarray, slack: np.ndarray, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Absolute residuals with the limits' multipliers z, and each limit's complementarity."""
        return np.abs(self.residuals(pull, marg - z[0] + z[1])), slack * np.minimum(z, 1.0)

    def log_barrier(self, mu: np.ndarray, slack: np.ndarray) -> float:
        """Discounted sum of mu * log(slack) over dates and limits."""
        return float(self.disc @ (mu * np.log(slack)).sum(axis=0).sum(axis=1))

    def band(self, curv: np.ndarray) -> np.ndarray:
        """Upper band (bandwidth 4) of the Hessian in x_1..x_T, given the
        current-value curvature of each change. Rows and columns of date t
        are scaled by beta^(-t/2), which leaves every entry of order one.
        Filled in place: each call overwrites the previous call's band."""
        n = N_CATEGORIES
        ab, coupling, base, nxt = self._band_buffers
        np.multiply(curv[1:], coupling, out=ab[0, 1:])
        np.multiply(curv[1:], self.beta, out=nxt[:-1])
        diag = base + curv
        diag += nxt
        np.add(diag, _RIDGE * (1.0 + diag), out=ab[n])
        np.copyto(ab[n], 1.0, where=self.frozen)
        return ab.reshape(n + 1, self.T * n)


def stage_cost_minimizer(scenario: Scenario) -> np.ndarray:
    """Long-run allocation implied by the cost spec (minimum of C).

    C is quadratic, so the deviation z from the target solves H z =
    -grad C(target) with H its Hessian; the minimum-norm solution handles
    degenerate weights. Equals the plain target whenever the total penalty is
    inactive or the reference matches the target's total.
    """
    cost = scenario.cost
    hess = quad_allocation_hessian(cost.weights_array(), cost.total_weight)
    z, *_ = np.linalg.lstsq(hess, -stage_cost(cost.target, cost).gradient, rcond=None)
    return cost.target.as_array() + z


def _initial_allocations(problem: _Problem) -> np.ndarray:
    """The configured guess, moved strictly inside every finite change limit."""
    if problem.config.initial_guess == "hold":
        d0 = np.zeros((problem.T, N_CATEGORIES))
    else:
        d0 = np.tile((problem.anchor - problem.x0) / problem.T, (problem.T, 1))
    lo, hi = problem.limits[:, 0]
    margin = np.minimum(0.25 * (hi - lo), _START_MARGIN)
    d0 = np.clip(d0, lo + margin, hi - margin)
    return problem.x0 + np.cumsum(d0, axis=0)


def _differences(x: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Year-on-year differences of the rows of ``x``, the first taken from ``first``."""
    d = np.empty_like(x)
    np.subtract(x[0], first, out=d[0])
    np.subtract(x[1:], x[:-1], out=d[1:])
    return d


def _step_to_boundary(values: np.ndarray, steps: np.ndarray) -> float:
    """Largest step in (0, 1] that keeps positive ``values`` positive, with a margin."""
    ratio = np.divide(values, steps, out=np.full_like(values, -np.inf), where=steps < 0.0)
    return float(min(1.0, _STEP_TO_BOUNDARY * -ratio.max()))


def solve(scenario: Scenario, config: Optional[SolverConfig] = None) -> SolveReport:
    """Minimize the discounted transition objective for a scenario.

    Deterministic for fixed inputs and configuration. Non-convergence is
    reported through ``converged`` and ``termination``, not raised. A
    horizon at which beta^(T/2) falls below the smallest normal float
    raises ``ValidationError``: the Newton system is solved scaled by
    beta^(t/2), which cannot represent those dates.
    """
    cfg = config if config is not None else SolverConfig()
    if scenario.beta ** (scenario.horizon / 2.0) < np.finfo(float).tiny:
        raise ValidationError(
            f"beta = {scenario.beta} and T = {scenario.horizon} put beta^(T/2) below "
            "the smallest normal float; the late dates cannot be solved"
        )
    problem = _Problem(scenario, cfg)
    return _certify(problem, *_newton(problem))


@cache
def _lapack():
    """The LAPACK pair ``(dpbtrf, dpbtrs)``, loaded at the first solve from
    scipy's compiled extension ``scipy.linalg._flapack`` alone. These are the
    objects ``scipy.linalg.lapack`` exports, without the import of the
    ``scipy.linalg`` package, which would double a solving process's cold
    start. A missing extension raises ``ImportError``."""
    import scipy  # its start-up locates the OpenBLAS that some wheels bundle

    stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", stem + suffix)
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
            return flapack.dpbtrf, flapack.dpbtrs
    raise ImportError(f"scipy's LAPACK extension {stem}<suffix> is missing", path=stem)


def _factorise(band: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Cholesky factorisation of a positive definite upper band (LAPACK
    pbtrf, the routine pair ``solveh_banded`` runs with pbtrs). Returns the
    back-solve with that factor, for a right-hand side of any shape holding
    one entry per band column. A band that does not factorise raises
    ``LinAlgError``; a non-finite band or right-hand side, ``ValueError``."""
    dpbtrf, dpbtrs = _lapack()
    factor, info = dpbtrf(np.asarray_chkfinite(band))
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor {info} of the band is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrf")

    def back_solve(rhs: np.ndarray) -> np.ndarray:
        return dpbtrs(factor, np.asarray_chkfinite(rhs).ravel())[0].reshape(rhs.shape)

    return back_solve


def _newton(problem: _Problem) -> Tuple[np.ndarray, np.ndarray, List[float], str]:
    """Damped Newton / interior-point loop from the first guess: the last
    allocations x_1..x_T, the multipliers, the objective history and why it stopped."""
    cfg = problem.config
    has, sign, orient = problem.has, problem.sign, problem.orient
    n_limits = problem.T * int(np.sum(has))
    # The Newton system is solved scaled by beta^(t/2), so the gradients
    # below are the objective's scaled the same way.
    root = (problem.beta ** (np.arange(1, problem.T + 1) / 2.0))[:, None]

    x = _initial_allocations(problem)
    # Slacks and multipliers are carried as iterates, stacked (lower, upper)
    # on the first axis; columns without a limit hold slack 1 and multiplier
    # 0, so they drop out of every formula. Recomputing a slack from the
    # changes would round to zero near an active limit. Without any finite
    # limit every limit term is an exact zero, and the loop skips them.
    s = np.where(has, sign * (_differences(x, problem.x0) - problem.limits), 1.0)
    z = has * np.ones_like(s)

    value, pull, marg, curv = problem.evaluate(x)
    history: List[float] = [value]
    for _ in range(cfg.max_iterations):
        dual, comp = problem.kkt(pull, marg, s, z)
        settled = comp.max() <= _COMP_TOL
        if settled and dual.max() <= min(_DUAL_TOL, cfg.gradient_tol):
            return x, z, history, "converged"

        # Every Newton step of this iterate shares one factorisation; the
        # limits' primal-dual curvature z / s adds to each change's.
        if n_limits:
            inv = has / s
            z_over_s = z * inv
            curv = curv + z_over_s[0] + z_over_s[1]
        try:
            back_solve = _factorise(problem.band(curv))
        except np.linalg.LinAlgError:
            return x, z, history, "singular"
        # The step from the objective's own gradient: without limits the
        # Newton step, with them the affine-scaling predictor.
        grad = root * problem.residuals(pull, marg)
        step = back_solve(-grad)
        if n_limits:
            # Each limit's barrier target is floored so that its
            # complementarity settles at half of _COMP_TOL instead of driving
            # its slack into roundoff, where z / s would swamp the band. Once
            # every complementarity has settled only the floors are left, and
            # the corrector carries no correction.
            floor = _COMP_FLOOR * np.maximum(z, 1.0)
            mu_pair, correction = has * floor, 0.0
            if not settled:
                # Mehrotra's predictor-corrector. The predictor (barrier
                # target 0) sets the centring sigma = (mu_aff / mu)^3; the
                # corrector subtracts its second-order term ds * dz from each
                # limit's floored target sigma * mu.
                ds = orient * _differences(step / root, 0.0)
                dz = -z - z_over_s * ds
                s_aff = s + _step_to_boundary(s, ds) * ds
                z_aff = z + _step_to_boundary(z, dz) * dz
                mu = float(np.vdot(s, z)) / n_limits
                sigma = (float(np.vdot(s_aff, z_aff)) / n_limits / mu) ** 3
                mu_pair = has * np.maximum(sigma * mu, floor)
                correction = ds * dz * inv
            # The line search's merit is the barrier at the floored targets,
            # and its gradient judges descent. The plain centred step is taken
            # where the corrector does not descend.
            mu_over_s = mu_pair * inv
            grad = root * problem.residuals(pull, marg - mu_over_s[0] + mu_over_s[1])
            target_over_s = mu_over_s - correction
            step = back_solve(-root * problem.residuals(pull, marg - target_over_s[0] + target_over_s[1]))
            if not (grad * step).sum() < 0.0:
                target_over_s = mu_over_s
                step = back_solve(-grad)
        slope = float((grad * step).sum())
        if not slope < 0.0:
            return x, z, history, "line_search_stalled"
        dx = step / root

        # Armijo backtracking on the barrier merit from the largest step
        # that keeps the slacks positive. Changes below the merit's roundoff
        # pass, so late dates, whose weight beta^t sits below it, still move,
        # and so does a step whose predicted decrease the merit cannot resolve.
        if n_limits:
            # The change step is the first difference of the allocation step;
            # differencing two iterates would lose it to cancellation.
            ds = orient * _differences(dx, 0.0)
            dz = target_over_s - z - z_over_s * ds
            alpha = _step_to_boundary(s, ds)
            merit = value - problem.log_barrier(mu_pair, s)
        else:
            alpha, merit = 1.0, value
        resolution = 1e-15 * (1.0 + abs(merit))
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + alpha * dx
            trial = problem.evaluate(x_new)
            merit_new = trial[0] - problem.log_barrier(mu_pair, s + alpha * ds) if n_limits else trial[0]
            if merit_new <= merit + _ARMIJO_C1 * alpha * slope + resolution or -alpha * slope <= resolution:
                break
            alpha *= 0.5
        else:
            return x, z, history, "line_search_stalled"
        x = x_new
        value, pull, marg, curv = trial
        if n_limits:
            s = s + alpha * ds
            z = z + _step_to_boundary(z, dz) * dz
        history.append(value)
        if settled and np.abs(dx).max() <= _ROUNDOFF * np.abs(x).max():
            # The step moved no allocation beyond roundoff, so stationarity
            # is as tight as floating point allows at this scale.
            return x, z, history, "roundoff_floor"
    return x, z, history, "budget_exhausted"


def _certify(problem: _Problem, x: np.ndarray, z: np.ndarray, history: List[float], stopped: str) -> SolveReport:
    """Certify the allocations as returned, at every date, and report them."""
    trajectory = Trajectory(np.vstack([problem.x0, x]))
    objective, pull, marg, _ = problem.evaluate(trajectory.values[1:])
    # Each limit's slack, negative where the limit is violated.
    gap = problem.sign * (trajectory.deltas()[1:] - problem.limits)
    slack = np.abs(np.where(problem.has, gap, 0.0))
    residuals, comp = problem.kkt(pull, marg, slack, z)
    grad_norm = float(np.max(residuals))
    max_residual = float(np.max(residuals[:-1])) if problem.T >= 2 else 0.0
    violation = max(0.0, float(np.max(-gap)))

    cfg = problem.config
    converged = bool(
        grad_norm <= cfg.gradient_tol and max_residual <= cfg.euler_tol and max(comp.max(), violation) <= cfg.gradient_tol
    )
    if stopped == "converged" and not converged:
        stopped = "roundoff_floor"  # the loop's own test is as tight as it goes
    return SolveReport(
        converged=converged,
        iterations=len(history) - 1,
        objective=objective,
        gradient_norm=grad_norm,
        max_euler_residual=max_residual,
        trajectory=trajectory,
        objective_history=tuple(history),
        termination="converged" if converged else stopped,
    )


def objective_value(trajectory: Trajectory, scenario: Scenario, config: Optional[SolverConfig] = None) -> float:
    """Discounted objective of an arbitrary trajectory under a scenario.

    Uses the same terminal penalty as the solver, so values are directly
    comparable with SolveReport.objective. The trajectory must start at the
    scenario's baseline, which the objective holds fixed.
    """
    cfg = config if config is not None else SolverConfig()
    if trajectory.horizon != scenario.horizon:
        raise ValidationError(
            f"trajectory horizon {trajectory.horizon} does not match scenario horizon {scenario.horizon}"
        )
    problem = _Problem(scenario, cfg)
    if not np.array_equal(trajectory.values[0], problem.x0):
        raise ValidationError(f"trajectory does not start at the scenario's baseline {problem.x0.tolist()}")
    return problem.evaluate(trajectory.values[1:])[0]


def euler_residuals(traj: Trajectory, scenario: Scenario) -> np.ndarray:
    """Interior-date stationarity residuals, one row per date t = 1..T-1.

    r_{t,k} = dC/dx_k (x_t) + phi'_k(d_t) - beta * phi'_k(d_{t+1}), the
    certificate's residuals without change limits. They vanish at an
    interior optimum; a perturbed or heuristic path leaves visible ones.
    """
    if traj.horizon < 2:
        raise ValidationError(f"residual check needs at least 3 trajectory rows, got {traj.horizon + 1}")
    problem = _Problem(replace(scenario, baseline=traj.at(0), delta_bounds=None, horizon=traj.horizon), SolverConfig())
    _, pull, marg, _ = problem.evaluate(traj.values[1:])
    # The anchor's pull enters only the date-T row, which is not returned.
    return problem.residuals(pull, marg)[:-1]


def gradualism_metric(traj: Trajectory, x_star: ExpenditureVector) -> float:
    """Fraction of the reform gap closed in the first year (Euclidean norms).

    Strictly below one whenever quadratic adjustment curvature makes
    spreading the reallocation across years worthwhile.
    """
    x0 = traj.values[0]
    x1 = traj.values[1]
    gap = np.linalg.norm(x_star.as_array() - x0)
    if gap == 0.0:
        raise ValidationError("gradualism metric undefined: baseline already equals the target")
    return float(np.linalg.norm(x1 - x0) / gap)
