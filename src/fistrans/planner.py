"""Finite-horizon transition planner with optimality certification.

The planner minimizes the discounted sum of allocation costs and
adjustment costs over a fixed horizon,

    sum_{t=0..T} beta^t [ C(x_t) + Phi(x_t - x_{t-1}) ]
      + beta^T * w_T * || x_T - anchor ||^2,

with x_0 fixed and the year-0 change set to zero. The quadratic terminal
penalty anchors the final allocation at the long-run minimizer of C,
bounding the bias from truncating the infinite sum. Decision variables are
the allocations x_1..x_T. Each date couples only to its neighbours, through
the change d_t = x_t - x_{t-1}, so the Hessian is block tridiagonal and a
Newton step is one banded Cholesky solve (bandwidth 4), linear in T.

Every scenario runs the same damped Newton loop with an Armijo line
search. Optional per-category change limits lo_k <= d_{t,k} <= hi_k enter
as primal-dual interior-point terms: each finite limit carries a slack and
a multiplier per date, and their barrier marginal and curvature add to the
adjustment cost's, so the band keeps its shape. A category frozen at
(0, 0) has no interior and is pinned to its baseline by identity rows.

Convergence is certified at every date by the current-value stationarity
residuals, with multipliers for the change limits,

    r_{t,k} = dC/dx_k (x_t) + m_k(d_t) - beta * m_k(d_{t+1}),
    m_k(d) = phi'_k(d) - z^lo_k + z^hi_k,

which vanish at the optimum (date T adds the anchor's pull instead of the
next year's marginal), together with complementarity z * slack ~ 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy import linalg as sla

from .costs import quad_cubic_curvature, quad_cubic_marginal, quad_cubic_value
from .types import (
    N_CATEGORIES,
    ExpenditureVector,
    Scenario,
    Trajectory,
    ValidationError,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "solve",
    "euler_residuals",
    "gradualism_metric",
    "objective_value",
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
# The barrier target is a tenth of the mean complementarity, or its 1.5th
# power once that is smaller. Each limit's target is floored so that its
# complementarity settles at half of _COMP_TOL instead of driving its slack
# into roundoff, where z / s would swamp the rest of the band.
_CENTERING = 0.1
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
        if int(self.max_iterations) < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        for name in ("gradient_tol", "euler_tol"):
            v = float(getattr(self, name))
            if not (v > 0.0):
                raise ValidationError(f"{name} must be positive, got {v}")
            object.__setattr__(self, name, v)
        w = float(self.terminal_weight)
        if not np.isfinite(w) or w < 0.0:
            raise ValidationError(f"terminal_weight must be nonnegative, got {w}")
        object.__setattr__(self, "terminal_weight", w)
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
    with complementarity within the gradient tolerance.
    """

    converged: bool
    iterations: int
    objective: float
    gradient_norm: float
    max_euler_residual: float
    trajectory: Trajectory
    objective_history: Tuple[float, ...]


class _Problem:
    """Arrays and callables for one scenario solve."""

    def __init__(self, scenario: Scenario, config: SolverConfig):
        self.config = config
        self.x0 = scenario.baseline.as_array()
        self.T = scenario.horizon
        self.beta = scenario.beta
        self.disc = scenario.beta ** np.arange(1, self.T + 1)
        self.w = scenario.cost.weights_array()
        self.xstar = scenario.cost.target.as_array()
        self.w_total = scenario.cost.total_weight
        self.total_ref = scenario.cost.total_reference
        self.g_up, self.g_dn = scenario.rigidity.gamma_pair()
        self.eta = scenario.rigidity.eta_array()
        self.wT = config.terminal_weight
        self.anchor = stage_cost_minimizer(scenario)
        self.lo, self.hi = scenario.bounds_arrays()
        self.frozen = self.lo == self.hi
        self.has_lo = np.isfinite(self.lo) & ~self.frozen
        self.has_hi = np.isfinite(self.hi) & ~self.frozen

    # -- cost pieces over stacked arrays ------------------------------------

    def phi_values(self, d: np.ndarray) -> np.ndarray:
        return quad_cubic_value(d, self.g_up, self.g_dn, self.eta).sum(axis=-1)

    def phi_marginal(self, d: np.ndarray) -> np.ndarray:
        return quad_cubic_marginal(d, self.g_up, self.g_dn, self.eta)

    def phi_curvature(self, d: np.ndarray) -> np.ndarray:
        return quad_cubic_curvature(d, self.g_up, self.g_dn, self.eta)

    def stage_values(self, x: np.ndarray) -> np.ndarray:
        gap = x - self.xstar
        tgap = x.sum(axis=-1) - self.total_ref
        return 0.5 * (self.w * gap * gap).sum(axis=-1) + 0.5 * self.w_total * tgap * tgap

    def stage_grads(self, x: np.ndarray) -> np.ndarray:
        gap = x - self.xstar
        tgap = x.sum(axis=-1, keepdims=True) - self.total_ref
        return self.w * gap + self.w_total * tgap

    # -- objective and its derivatives in x_1..x_T ---------------------------

    def changes(self, x: np.ndarray) -> np.ndarray:
        return np.diff(x, axis=0, prepend=self.x0[None, :])

    def objective(self, d: np.ndarray) -> float:
        x = self.x0 + np.cumsum(d, axis=0)
        value = float(self.stage_values(self.x0))
        value += float(self.disc @ (self.stage_values(x) + self.phi_values(d)))
        tail = x[-1] - self.anchor
        value += (self.beta ** self.T) * self.wT * float(tail @ tail)
        return value

    def residuals(self, x: np.ndarray, marg: np.ndarray) -> np.ndarray:
        """Current-value gradient in x_1..x_T (row t divided by beta^t), given
        the marginal cost of each change. A frozen category's free multiplier
        absorbs its entries."""
        r = self.stage_grads(x) + marg
        r[:-1] -= self.beta * marg[1:]
        r[-1] += 2.0 * self.wT * (x[-1] - self.anchor)
        r[:, self.frozen] = 0.0
        return r

    def band(self, curv: np.ndarray) -> np.ndarray:
        """Upper band (bandwidth 4) of the Hessian in x_1..x_T, given the
        current-value curvature of each change. Rows and columns of date t
        are scaled by beta^(-t/2), which leaves every entry of order one."""
        n = N_CATEGORIES
        free = ~self.frozen
        ab = np.zeros((n + 1, self.T, n))
        # Row 0 couples (t-1, k) with (t, k); rows 1..3 hold the total
        # penalty's coupling of categories within a date; row 4 the diagonal.
        ab[0, 1:] = -np.sqrt(self.beta) * curv[1:]
        for offset in range(1, n):
            ab[n - offset, :, offset:] = self.w_total * (free[:-offset] & free[offset:])
        diag = self.w + self.w_total + curv
        diag[:-1] += self.beta * curv[1:]
        diag[-1] += 2.0 * self.wT
        ab[n] = diag + _RIDGE * (1.0 + diag)
        ab[0][:, self.frozen] = 0.0
        ab[n][:, self.frozen] = 1.0
        return ab.reshape(n + 1, self.T * n)


def stage_cost_minimizer(scenario: Scenario) -> np.ndarray:
    """Long-run allocation implied by the cost spec (minimum of C).

    Solves the stationarity system (diag(w) + w_total * ones) z =
    -w_total * (target_total - total_reference) * ones for the deviation z
    from the target; the minimum-norm solution handles degenerate weights.
    Equals the plain target whenever the total penalty is inactive or the
    reference matches the target's total.
    """
    w = scenario.cost.weights_array()
    w_total = scenario.cost.total_weight
    xstar = scenario.cost.target.as_array()
    rhs = -w_total * (xstar.sum() - scenario.cost.total_reference) * np.ones(N_CATEGORIES)
    mat = np.diag(w) + w_total * np.ones((N_CATEGORIES, N_CATEGORIES))
    z, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    return xstar + z


def _initial_allocations(problem: _Problem) -> np.ndarray:
    """The configured guess, moved strictly inside every finite change limit."""
    if problem.config.initial_guess == "hold":
        d0 = np.zeros((problem.T, N_CATEGORIES))
    else:
        d0 = np.tile((problem.anchor - problem.x0) / problem.T, (problem.T, 1))
    margin = np.minimum(0.25 * (problem.hi - problem.lo), _START_MARGIN)
    d0 = np.clip(d0, problem.lo + margin, problem.hi - margin)
    return problem.x0 + np.cumsum(d0, axis=0)


def _step_to_boundary(values: np.ndarray, steps: np.ndarray) -> float:
    """Largest step in (0, 1] that keeps positive ``values`` positive, with a margin."""
    shrinking = steps < 0.0
    if not np.any(shrinking):
        return 1.0
    return float(min(1.0, _STEP_TO_BOUNDARY * np.min(-values[shrinking] / steps[shrinking])))


def _complementarity(slack: np.ndarray, z: np.ndarray) -> np.ndarray:
    """s * min(z, 1): the slack itself where the multiplier is large."""
    return slack * np.minimum(z, 1.0)


def solve(scenario: Scenario, config: Optional[SolverConfig] = None) -> SolveReport:
    """Minimize the discounted transition objective for a scenario.

    Deterministic for fixed inputs and configuration. Non-convergence
    within the iteration budget is reported through the ``converged`` flag,
    not raised. A horizon at which beta^(T/2) falls below the smallest
    normal float raises ``ValidationError``: the Newton system is solved
    scaled by beta^(t/2), which cannot represent those dates.
    """
    cfg = config if config is not None else SolverConfig()
    if scenario.beta ** (scenario.horizon / 2.0) < np.finfo(float).tiny:
        raise ValidationError(
            f"beta = {scenario.beta} and T = {scenario.horizon} put beta^(T/2) below "
            "the smallest normal float; the late dates cannot be solved"
        )
    problem = _Problem(scenario, cfg)
    has_lo, has_hi = problem.has_lo, problem.has_hi
    n_limits = problem.T * int(np.sum(has_lo) + np.sum(has_hi))
    # The Newton system is solved scaled by beta^(t/2), so the gradient
    # below is the objective's scaled the same way.
    root = (problem.beta ** (np.arange(1, problem.T + 1) / 2.0))[:, None]

    x = _initial_allocations(problem)
    d = problem.changes(x)
    # Slacks and multipliers are carried as iterates; columns without a
    # limit hold slack 1 and multiplier 0, so they drop out of every formula.
    # Recomputing a slack as d - lo would round to zero near an active limit.
    s_lo = np.where(has_lo, d - problem.lo, 1.0)
    s_hi = np.where(has_hi, problem.hi - d, 1.0)
    z_lo = np.where(has_lo, 1.0, 0.0) * np.ones_like(d)
    z_hi = np.where(has_hi, 1.0, 0.0) * np.ones_like(d)

    def log_barrier(mu_lo: np.ndarray, mu_hi: np.ndarray, lo_slack: np.ndarray, hi_slack: np.ndarray) -> float:
        return float(problem.disc @ (mu_lo * np.log(lo_slack) + mu_hi * np.log(hi_slack)).sum(axis=1))

    value = problem.objective(d)
    history: List[float] = [value]
    iterations = 0
    for _ in range(cfg.max_iterations):
        marg = problem.phi_marginal(d)
        dual = np.max(np.abs(problem.residuals(x, marg - z_lo + z_hi)))
        comp_lo = _complementarity(s_lo, z_lo)
        comp_hi = _complementarity(s_hi, z_hi)
        settled = max(np.max(comp_lo), np.max(comp_hi)) <= _COMP_TOL
        if settled and dual <= min(_DUAL_TOL, cfg.gradient_tol):
            break
        avg = float(np.sum(comp_lo) + np.sum(comp_hi)) / n_limits if n_limits else 0.0
        mu = min(_CENTERING * avg, avg ** 1.5)
        mu_lo = has_lo * np.maximum(mu, _COMP_FLOOR * np.maximum(z_lo, 1.0))
        mu_hi = has_hi * np.maximum(mu, _COMP_FLOOR * np.maximum(z_hi, 1.0))

        # Newton step on the barrier problem: the limits' primal-dual terms
        # enter the marginal and curvature of each change.
        inv_lo = has_lo / s_lo
        inv_hi = has_hi / s_hi
        grad = root * problem.residuals(x, marg - mu_lo * inv_lo + mu_hi * inv_hi)
        curv = problem.phi_curvature(d) + z_lo * inv_lo + z_hi * inv_hi
        try:
            step = sla.solveh_banded(problem.band(curv), -grad.ravel()).reshape(x.shape)
        except np.linalg.LinAlgError:
            break
        slope = float(np.sum(grad * step))
        if not slope < 0.0:
            break
        dx = step / root
        # The change step is the first difference of the allocation step;
        # differencing two iterates would lose it to cancellation.
        dd = np.diff(dx, axis=0, prepend=np.zeros((1, N_CATEGORIES)))
        ds_lo = has_lo * dd
        ds_hi = -(has_hi * dd)
        dz_lo = mu_lo * inv_lo - z_lo - z_lo * inv_lo * ds_lo
        dz_hi = mu_hi * inv_hi - z_hi - z_hi * inv_hi * ds_hi

        # Armijo backtracking on the barrier merit from the largest step
        # that keeps the slacks positive. Changes below the merit's roundoff
        # pass, so late dates, whose weight beta^t sits below it, still move.
        alpha = min(_step_to_boundary(s_lo, ds_lo), _step_to_boundary(s_hi, ds_hi))
        merit = value - log_barrier(mu_lo, mu_hi, s_lo, s_hi)
        resolution = 1e-15 * (1.0 + abs(merit))
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + alpha * dx
            d_new = problem.changes(x_new)
            value_new = problem.objective(d_new)
            merit_new = value_new - log_barrier(mu_lo, mu_hi, s_lo + alpha * ds_lo, s_hi + alpha * ds_hi)
            if merit_new <= merit + _ARMIJO_C1 * alpha * slope + resolution:
                break
            alpha *= 0.5
        else:
            break
        alpha_z = min(_step_to_boundary(z_lo, dz_lo), _step_to_boundary(z_hi, dz_hi))
        x, d, value = x_new, d_new, value_new
        s_lo = s_lo + alpha * ds_lo
        s_hi = s_hi + alpha * ds_hi
        z_lo = z_lo + alpha_z * dz_lo
        z_hi = z_hi + alpha_z * dz_hi
        history.append(value)
        iterations += 1
        if settled and np.max(np.abs(dx)) <= _ROUNDOFF * np.max(np.abs(x)):
            # The step moved no allocation beyond roundoff, so stationarity
            # is as tight as floating point allows at this scale.
            break

    x_full = np.vstack([problem.x0, x])
    # Components pinned at zero can pick up roundoff slightly below zero.
    x_full = np.where(np.abs(x_full) < 1e-12, np.abs(x_full), x_full)
    trajectory = Trajectory(x_full)

    # Certify the trajectory as returned, at every date.
    x = trajectory.values[1:]
    d = trajectory.deltas()[1:]
    residuals = np.abs(problem.residuals(x, problem.phi_marginal(d) - z_lo + z_hi))
    grad_norm = float(np.max(residuals))
    max_residual = float(np.max(residuals[:-1])) if problem.T >= 2 else 0.0
    violation = max(0.0, float(np.max(np.maximum(problem.lo - d, d - problem.hi))))
    slack_lo = np.abs(np.where(has_lo, d - problem.lo, 0.0))
    slack_hi = np.abs(np.where(has_hi, problem.hi - d, 0.0))
    comp = max(np.max(_complementarity(slack_lo, z_lo)), np.max(_complementarity(slack_hi, z_hi)))

    converged = bool(
        grad_norm <= cfg.gradient_tol and max_residual <= cfg.euler_tol and max(comp, violation) <= cfg.gradient_tol
    )
    return SolveReport(
        converged=converged,
        iterations=iterations,
        objective=problem.objective(d),
        gradient_norm=grad_norm,
        max_euler_residual=max_residual,
        trajectory=trajectory,
        objective_history=tuple(history),
    )


def objective_value(trajectory: Trajectory, scenario: Scenario, config: Optional[SolverConfig] = None) -> float:
    """Discounted objective of an arbitrary trajectory under a scenario.

    Uses the same terminal penalty as the solver, so values are directly
    comparable with SolveReport.objective.
    """
    cfg = config if config is not None else SolverConfig()
    if trajectory.horizon != scenario.horizon:
        raise ValidationError(
            f"trajectory horizon {trajectory.horizon} does not match scenario horizon {scenario.horizon}"
        )
    problem = _Problem(scenario, cfg)
    d = trajectory.deltas()[1:]
    return problem.objective(d)


def euler_residuals(traj: Trajectory, scenario: Scenario) -> np.ndarray:
    """Interior-date stationarity residuals, one row per date t = 1..T-1.

    r_{t,k} = dC/dx_k (x_t) + phi'_k(d_t) - beta * phi'_k(d_{t+1}).
    At an interior optimum every entry vanishes; a perturbed or heuristic
    path leaves visible residuals.
    """
    if traj.horizon < 2:
        raise ValidationError(f"residual check needs at least 3 trajectory rows, got {traj.horizon + 1}")
    problem = _Problem(scenario, SolverConfig())
    x = traj.values
    d = traj.deltas()
    marg = problem.phi_marginal(d)
    interior = slice(1, traj.horizon)
    return problem.stage_grads(x[interior]) + marg[interior] - scenario.beta * marg[2:]


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
