"""Finite-horizon transition planner with optimality certification.

The planner minimizes the discounted sum of allocation costs and
adjustment costs over a fixed horizon,

    sum_{t=0..T} beta^t [ C(x_t) + Phi(x_t - x_{t-1}) ]
      + beta^T * w_T * || x_T - anchor ||^2,

with x_0 fixed and the year-0 change set to zero. The quadratic terminal
penalty anchors the final allocation at the long-run minimizer of C,
bounding the bias from truncating the infinite sum. Decision variables are
the per-year changes, which turns optional per-category change limits into
plain box constraints.

The solve runs a projected quasi-Newton descent (L-BFGS-B) and then
polishes the result with damped Newton steps (banded first-order system
when unconstrained, two-metric projected Newton under change bounds)
until the stationarity residuals sit far below the certification
tolerance. Convergence is certified by both the projected gradient norm
and the interior-date residuals

    r_{t,k} = dC/dx_k (x_t) + phi'_k(d_t) - beta * phi'_k(d_{t+1}),

which must vanish at an interior optimum for t = 1 .. T-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy import linalg as sla
from scipy import optimize as sopt

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

# Newton polish drives interior residuals to this level, well below any
# practical certification tolerance.
_POLISH_TARGET = 1e-11
_MAX_POLISH_STEPS = 60
_ARMIJO_C1 = 1e-4
# A change sitting within this distance of its bound is treated as active
# when masking residuals for certification.
_BOUND_ACTIVE_TOL = 1e-10


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

    ``converged`` holds only when the projected gradient norm meets the
    gradient tolerance and the interior stationarity residuals (excluding
    bound-active changes) meet the residual tolerance.
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
        self.scenario = scenario
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
        self.bounded = scenario.delta_bounds is not None

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

    # -- objective in the change parametrization ----------------------------

    def paths(self, d: np.ndarray) -> np.ndarray:
        return self.x0 + np.cumsum(d, axis=0)

    def objective(self, d: np.ndarray) -> float:
        x = self.paths(d)
        value = float(self.stage_values(self.x0))
        value += float(self.disc @ (self.stage_values(x) + self.phi_values(d)))
        tail = x[-1] - self.anchor
        value += (self.beta ** self.T) * self.wT * float(tail @ tail)
        return value

    def objective_and_gradient(self, d_flat: np.ndarray) -> Tuple[float, np.ndarray]:
        d = d_flat.reshape(self.T, N_CATEGORIES)
        x = self.paths(d)
        stage_g = self.disc[:, None] * self.stage_grads(x)
        # d_tau moves every x_t with t >= tau, hence the reversed cumulative sum.
        grad = np.cumsum(stage_g[::-1], axis=0)[::-1]
        grad += self.disc[:, None] * self.phi_marginal(d)
        tail = x[-1] - self.anchor
        grad += 2.0 * (self.beta ** self.T) * self.wT * tail
        value = float(self.stage_values(self.x0))
        value += float(self.disc @ (self.stage_values(x) + self.phi_values(d)))
        value += (self.beta ** self.T) * self.wT * float(tail @ tail)
        return value, grad.ravel()

    # -- stationarity in the allocation parametrization ---------------------

    def stacked_gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient with respect to x_1..x_T (rows), for Newton polish."""
        d = np.empty_like(x)
        d[0] = x[0] - self.x0
        d[1:] = np.diff(x, axis=0)
        marg = self.phi_marginal(d)
        g = self.disc[:, None] * (self.stage_grads(x) + marg)
        g[:-1] -= self.disc[1:, None] * marg[1:]
        g[-1] += 2.0 * (self.beta ** self.T) * self.wT * (x[-1] - self.anchor)
        return g

    def banded_hessian(self, x: np.ndarray) -> np.ndarray:
        """Upper-banded Hessian (bandwidth 4) of the x-parametrized objective."""
        T, n = self.T, N_CATEGORIES
        d = np.empty_like(x)
        d[0] = x[0] - self.x0
        d[1:] = np.diff(x, axis=0)
        curv = self.phi_curvature(d)
        size = T * n
        ab = np.zeros((n + 1, size))
        stage_hess = np.diag(self.w) + self.w_total * np.ones((n, n))
        for t in range(T):
            block = self.disc[t] * stage_hess.copy()
            diag_add = self.disc[t] * curv[t]
            if t + 1 < T:
                diag_add = diag_add + self.disc[t + 1] * curv[t + 1]
            else:
                block += self.disc[t] * 2.0 * self.wT * np.eye(n)
            block[np.arange(n), np.arange(n)] += diag_add
            base = t * n
            for i in range(n):
                for j in range(i, n):
                    ab[n + (base + i) - (base + j), base + j] = block[i, j]
            if t + 1 < T:
                coupling = -self.disc[t + 1] * curv[t + 1]
                for k in range(n):
                    ab[0, (t + 1) * n + k] = coupling[k]
        # Tiny ridge keeps degenerate (zero-weight, zero-curvature) directions solvable.
        ridge = 1e-12 * (1.0 + np.max(np.abs(ab[n])))
        ab[n] += ridge
        return ab


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


def _initial_deltas(problem: _Problem) -> np.ndarray:
    if problem.config.initial_guess == "hold":
        d0 = np.zeros((problem.T, N_CATEGORIES))
    else:
        d0 = np.tile((problem.anchor - problem.x0) / problem.T, (problem.T, 1))
    if problem.bounded:
        d0 = np.clip(d0, problem.lo, problem.hi)
    return d0


def _projected_gradient_norm(problem: _Problem, d: np.ndarray, grad: np.ndarray) -> float:
    if not problem.bounded:
        return float(np.max(np.abs(grad))) if grad.size else 0.0
    stepped = np.clip(d - grad.reshape(d.shape), problem.lo, problem.hi)
    return float(np.max(np.abs(d - stepped)))


def _dense_change_hessian(problem: _Problem, d: np.ndarray) -> np.ndarray:
    """Dense Hessian in the change parametrization (row-major (year, category))."""
    T, n = problem.T, N_CATEGORIES
    suffix = np.cumsum(problem.disc[::-1])[::-1]
    overlap = suffix[np.maximum.outer(np.arange(T), np.arange(T))]
    stage_hess = np.diag(problem.w) + problem.w_total * np.ones((n, n))
    hess = np.kron(overlap, stage_hess)
    terminal = 2.0 * (problem.beta ** T) * problem.wT
    if terminal > 0.0:
        hess += np.kron(np.ones((T, T)), terminal * np.eye(n))
    curv = (problem.disc[:, None] * problem.phi_curvature(d)).ravel()
    idx = np.arange(T * n)
    hess[idx, idx] += curv
    hess[idx, idx] += 1e-12 * (1.0 + np.max(np.abs(np.diag(hess))))
    return hess


def _projected_newton_polish(problem: _Problem, d: np.ndarray, budget: int, history: List[float]) -> Tuple[np.ndarray, int]:
    """Two-metric projected Newton for bound-constrained solves.

    Newton steps on the inactive coordinates, gradient steps on the
    bound-active ones, projected back onto the box with an Armijo line
    search along the projection arc.
    """
    lo = np.tile(problem.lo, problem.T)
    hi = np.tile(problem.hi, problem.T)

    def pg_norm(point: np.ndarray, grad: np.ndarray) -> float:
        return float(np.max(np.abs(point - np.clip(point - grad, lo, hi))))

    flat = d.ravel().copy()
    steps = 0
    value = problem.objective(flat.reshape(problem.T, N_CATEGORIES))
    for _ in range(min(budget, _MAX_POLISH_STEPS)):
        _, grad = problem.objective_and_gradient(flat)
        pg = pg_norm(flat, grad)
        if pg <= _POLISH_TARGET:
            break
        at_lo = (flat - lo <= _BOUND_ACTIVE_TOL) & (grad > 0.0)
        at_hi = (hi - flat <= _BOUND_ACTIVE_TOL) & (grad < 0.0)
        active = at_lo | at_hi
        free = ~active
        step = -grad.copy()
        if np.any(free):
            hess = _dense_change_hessian(problem, flat.reshape(problem.T, N_CATEGORIES))
            try:
                step[free] = np.linalg.solve(hess[np.ix_(free, free)], -grad[free])
            except np.linalg.LinAlgError:
                pass
        full = np.clip(flat + step, lo, hi)
        predicted = float(grad @ (full - flat))
        if predicted >= 0.0:
            break
        if -predicted <= 1e-12 * (1.0 + abs(value)):
            # Below objective resolution; accept only if stationarity tightens.
            _, grad_new = problem.objective_and_gradient(full)
            if pg_norm(full, grad_new) >= pg:
                break
            flat = full
            steps += 1
            continue
        alpha = 1.0
        accepted = False
        for _ in range(60):
            candidate = np.clip(flat + alpha * step, lo, hi)
            value_new = problem.objective(candidate.reshape(problem.T, N_CATEGORIES))
            if value_new <= value + _ARMIJO_C1 * float(grad @ (candidate - flat)):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        flat = candidate
        value = value_new
        history.append(value)
        steps += 1
    return flat.reshape(problem.T, N_CATEGORIES), steps


def _newton_polish(problem: _Problem, d: np.ndarray, budget: int, history: List[float]) -> Tuple[np.ndarray, int]:
    """Damped Newton on the allocation parametrization (unconstrained only)."""

    def rescale(g: np.ndarray) -> float:
        return float(np.max(np.abs(g) / problem.disc[:, None])) if g.size else 0.0

    x = problem.paths(d)
    steps = 0
    value = problem.objective(d)
    for _ in range(min(budget, _MAX_POLISH_STEPS)):
        g = problem.stacked_gradient(x)
        scale = rescale(g)
        if scale <= _POLISH_TARGET:
            break
        ab = problem.banded_hessian(x)
        try:
            step = sla.solveh_banded(ab, -g.ravel(), lower=False)
        except np.linalg.LinAlgError:
            break
        step = step.reshape(problem.T, N_CATEGORIES)
        descent = float(np.sum(g * step))
        if descent >= 0.0:
            break
        if -descent <= 1e-12 * (1.0 + abs(value)):
            # The predicted decrease is below objective resolution; a line
            # search cannot see it. Take the full step only if it tightens
            # stationarity directly.
            x_new = x + step
            if rescale(problem.stacked_gradient(x_new)) >= scale:
                break
            x = x_new
            steps += 1
            continue
        alpha = 1.0
        accepted = False
        for _ in range(60):
            x_new = x + alpha * step
            d_new = np.empty_like(x_new)
            d_new[0] = x_new[0] - problem.x0
            d_new[1:] = np.diff(x_new, axis=0)
            value_new = problem.objective(d_new)
            if value_new <= value + _ARMIJO_C1 * alpha * descent:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        x = x_new
        value = value_new
        history.append(value)
        steps += 1
    d_final = np.empty_like(x)
    d_final[0] = x[0] - problem.x0
    d_final[1:] = np.diff(x, axis=0)
    return d_final, steps


def solve(scenario: Scenario, config: Optional[SolverConfig] = None) -> SolveReport:
    """Minimize the discounted transition objective for a scenario.

    Deterministic for fixed inputs and configuration. Non-convergence
    within the iteration budget is reported through the ``converged`` flag,
    not raised.
    """
    cfg = config if config is not None else SolverConfig()
    problem = _Problem(scenario, cfg)
    d0 = _initial_deltas(problem)

    history: List[float] = [problem.objective(d0)]

    def _record(intermediate_result: sopt.OptimizeResult) -> None:
        # L-BFGS-B passes the objective it already evaluated at the new iterate.
        history.append(intermediate_result.fun)

    bounds = None
    if problem.bounded:
        bounds = [(problem.lo[k], problem.hi[k]) for _ in range(problem.T) for k in range(N_CATEGORIES)]

    result = sopt.minimize(
        problem.objective_and_gradient,
        d0.ravel(),
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        callback=_record,
        options={
            "maxiter": cfg.max_iterations,
            "maxfun": 50 * cfg.max_iterations,
            "ftol": 1e-16,
            "gtol": min(cfg.gradient_tol, 1e-10),
            "maxls": 60,
        },
    )
    d = result.x.reshape(problem.T, N_CATEGORIES)
    iterations = int(result.nit)

    polish_budget = cfg.max_iterations - iterations
    if polish_budget > 0:
        if problem.bounded:
            d, polish_steps = _projected_newton_polish(problem, d, polish_budget, history)
        else:
            d, polish_steps = _newton_polish(problem, d, polish_budget, history)
        iterations += polish_steps

    value, grad = problem.objective_and_gradient(d.ravel())
    grad_norm = _projected_gradient_norm(problem, d, grad)

    x_full = np.vstack([problem.x0, problem.paths(d)])
    # Components pinned at zero can pick up roundoff slightly below zero.
    x_full = np.where(np.abs(x_full) < 1e-12, np.abs(x_full), x_full)
    trajectory = Trajectory(x_full)

    if problem.T >= 2:
        residuals = euler_residuals(trajectory, scenario)
        if problem.bounded:
            active = (d - problem.lo <= _BOUND_ACTIVE_TOL) | (problem.hi - d <= _BOUND_ACTIVE_TOL)
            # The residual at date t involves the changes of years t and t+1.
            mask = active[:-1] | active[1:]
            masked = np.where(mask, 0.0, residuals)
        else:
            masked = residuals
        max_residual = float(np.max(np.abs(masked))) if masked.size else 0.0
    else:
        max_residual = 0.0

    converged = bool(grad_norm <= cfg.gradient_tol and max_residual <= cfg.euler_tol)
    return SolveReport(
        converged=converged,
        iterations=iterations,
        objective=float(value),
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
