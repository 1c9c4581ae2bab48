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
in T. ``_Objective`` holds the objective: its value and stationarity
residuals on a path, from the ``costs`` kernels of C and Phi, which every
caller shares. ``_NewtonSystem``, which only a solve builds from it, holds
the band, the change limits' grids over the dates and their barrier.

Every scenario runs the same damped Newton loop with an Armijo line
search, which also takes a step whose predicted decrease the merit cannot
resolve. Optional per-category change limits lo_k <= d_{t,k} <= hi_k enter
as primal-dual interior-point terms: each finite limit carries a slack and
a multiplier per date, and their barrier marginal and curvature add to the
adjustment cost's, so the band keeps its shape. An iteration factorises
the band once and takes the centred step, the back-solve of minus the
barrier merit's gradient, unless Mehrotra's corrector descends. With
limits, until every complementarity has settled, a predictor from the
objective's own gradient sets the corrector's centring; without them the
centred step is the Newton step, and no limit term is computed. A Newton
system that does not factorise or is not finite, band or right-hand side,
stops the loop as ``singular``. A category frozen at (0, 0) has no
interior and is pinned to its baseline by identity rows. LAPACK is loaded
at the first solve (``_lapack``): code that never solves imports no scipy.

Each category closes its gap to the anchor at a pace its rigidity sets:
the Euler equation of 1/2 * w * e^2 + 1/2 * gamma * d^2, linearised at the
anchor, has one stable root rho(gamma, w) in [0, 1) (``_decay_rate``), the
gap's decay per date. A solve plans from it twice. Without finite limits
the loop starts on the decay path anchor + (x0 - anchor) * rho_k^t, closed
at the anchor on date T, the default guess. And past the transition the path sits on its anchor, so a solve
longer than T_c dates first runs the loop over its first T_c dates and
holds every later date at the anchor, with no limit multiplier. T_c
(``_held_horizon``, 114 on the shipped preset) is the date by which every
category's residual scale gamma_k * |x0 - anchor|_k * rho_k^t, after the
dates it rides its change limit toward the anchor, meets the stop test.
That short problem is the full one's first T_c dates with date T_c's
terminal term (``_Objective.head``, views of the full objective's grids),
so a solve builds one objective. Past the junction C'(anchor) = 0 and
phi'(0) = 0, so each residual there is exactly 0. The held path is
certified over the full horizon and kept when its certificate passes the
loop's stop test. There is one try: when it misses, when the short loop
stops unconverged, or when the held path is below zero (an anchor below
zero), which no ``Trajectory`` holds, the loop runs over the full horizon,
so a miss costs one short solve. No try is made that cannot pass: none
with a frozen category (its anchor is then no long-run point), a change
limit of 0 toward the anchor or a rate of 1, and none where the barrier
floor leaves a limit pair's multipliers further apart at a zero change
than the stop test, which the junction would read. Past T_c a held solve
costs one evaluation per date. Without a finite limit on a free category
no stage carries a limit term: the loop has no slacks or multipliers, and
the certificate reads the plain residuals and a frozen category's pin.

A step's arithmetic is laid out for few numpy calls: on (T, 4) arrays at
the horizons of a reform comparison, dispatch, not arithmetic, sets its
cost, so no operation broadcasts. An iterate is the whole path x_0..x_T,
so its changes are one difference. Its plain residuals, those without
limit multipliers, are computed once, with its evaluation; the stop test,
the Newton and barrier gradients and the corrector's right-hand side each
add the multiplier terms' linear part m_t - beta * m_{t+1} to them. The
primal and dual steps to the boundary come from one pass over the stacked
slacks and multipliers.

Convergence is certified at every date by the current-value stationarity
residuals, with multipliers for the change limits,

    r_{t,k} = dC/dx_k (x_t) + m_k(d_t) - beta * m_k(d_{t+1}),
    m_k(d) = phi'_k(d) - z^lo_k + z^hi_k,

which vanish at the optimum (date T adds the anchor's pull instead of the
next year's marginal), together with complementarity z * slack ~ 0.
"""

from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from .costs import quad_allocation, quad_allocation_args, quad_allocation_hessian, quad_allocation_minimum
from .costs import quad_cubic, quad_cubic_args
from .types import (
    _NEG_TOL,
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

_GUESS_MODES = ("decay", "linear-ramp", "hold")

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
_UPPER = np.triu_indices(N_CATEGORIES, 1)
# The first guess keeps this far inside finite change limits.
_START_MARGIN = 1e-2
# Relative ridge on the scaled band's diagonal (per date, beta^t times the
# unscaled one), which keeps zero-weight, zero-curvature directions solvable.
_RIDGE = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Solver controls; the defaults certify comfortably on the shipped preset.

    ``initial_guess`` names the loop's first path. ``"decay"``, the default,
    closes each category's gap at its decay rate: anchor + (x0 - anchor) *
    rho_k^t, with rho_k the rate under C's own curvature w_k + w_total and
    the kink (gamma_up + gamma_down) / 2, raised by the cubic's secant
    curvature over the first year; the second root's mode closes the gap on
    date T, as the terminal term nearly does. It is the linear ramp wherever
    a category is frozen or has a finite change limit, whose interior-point
    start the ramp serves better, or where a rate is not finite.
    ``"linear-ramp"`` moves in equal steps from the baseline to the anchor,
    and ``"hold"`` stays at the baseline; both keep strictly inside finite
    change limits.
    """

    max_iterations: int = 10_000
    gradient_tol: float = 1e-8
    euler_tol: float = 1e-6
    terminal_weight: float = 1e3
    initial_guess: str = "decay"

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
    no accepted step), ``singular`` (the Newton system did not factorise, or
    its band or right-hand side was not finite) or ``roundoff_floor`` (at
    floating-point resolution). ``anchor`` is the long-run allocation, the
    minimum of C, toward which the terminal term pulls x_T. On a solve that
    holds a short solve's path at the anchor (see ``solve``), ``iterations``
    and ``objective_history`` are that short solve's, still with
    ``iterations + 1`` entries, and ``objective`` is the full horizon's.
    After a held try that misses they are the full solve's alone.
    """

    converged: bool
    iterations: int
    objective: float
    gradient_norm: float
    max_euler_residual: float
    trajectory: Trajectory
    objective_history: Tuple[float, ...]
    termination: str
    anchor: np.ndarray


class _Objective:
    """A scenario's objective, under ``SolverConfig``'s defaults unless given a
    ``config``, and the change limits its certificate checks. ``allocation`` and
    ``adjustment`` hold the ``costs`` kernels' arguments, each repeated to the
    shape (T, 4) of the allocations so that no operation of a step broadcasts."""

    def __init__(self, scenario: Scenario, config: Optional[SolverConfig] = None):
        config = self.config = config if config is not None else SolverConfig()
        self.stop_tol = min(_DUAL_TOL, config.gradient_tol)  # the loop's bound on every residual
        self.x0 = scenario.baseline.as_array()
        T = self.T = scenario.horizon
        beta = self.beta = scenario.beta
        self.disc = beta ** np.arange(1, T + 1)
        allocation = quad_allocation_args(scenario.cost)
        self.anchor = quad_allocation_minimum(*allocation)
        self.anchor.flags.writeable = False  # the report hands it out
        self.value0 = float(quad_allocation(self.x0, *allocation)[0])
        self.wT = config.terminal_weight
        self.tail_weight = (beta**T) * self.wT
        # The change limits as a pair, lower then upper: a limit's slack is
        # sign * (d - limit). ``finite`` marks the finite limits of free categories.
        lo, hi = scenario.bounds_arrays()
        self.free = lo != hi
        self.frozen = None if self.free.all() else ~self.free  # None: no mask to apply
        self.limits = np.array([lo, hi])[:, None, :]
        self.sign = np.array([1.0, -1.0])[:, None, None]
        self.finite = np.isfinite(self.limits) & self.free
        # Every per-category parameter repeated over the dates, and the discount over the categories.
        grid = np.empty((6, T, N_CATEGORIES))
        grid[:5] = np.array([*quad_cubic_args(scenario.rigidity), *allocation[:2]], dtype=float)[:, None, :]
        grid[5] = self.disc[:, None]
        self.adjustment = (grid[0], grid[1], grid[2])
        self.allocation = (grid[3], grid[4], *allocation[2:])
        self.disc_grid = grid[5]

    def head(self, T: int) -> _Objective:
        """The objective of the first ``T`` dates, with date T's terminal term:
        views of this one's grids, so nothing is rebuilt."""
        head = copy.copy(self)
        head.T, head.tail_weight = T, (self.beta**T) * self.wT
        head.disc, head.disc_grid = self.disc[:T], self.disc_grid[:T]
        head.adjustment = tuple(grid[:T] for grid in self.adjustment)
        head.allocation = (self.allocation[0][:T], self.allocation[1][:T], *self.allocation[2:])
        return head

    def evaluate(self, path: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
        """Objective on the path x_0..x_T (x_0 the baseline); the plain
        current-value residuals, those without limit multipliers; and the
        curvature adjustment cost of each change."""
        x = path[1:]
        phi, marg, curv = quad_cubic(x - path[:-1], *self.adjustment)
        stage, residual = quad_allocation(x, *self.allocation)
        tail = x[-1] - self.anchor
        value = self.value0 + float(np.dot(self.disc, stage)) + float(np.vdot(self.disc_grid, phi))
        # Row t divided by beta^t: the stage gradient, this change's marginal
        # cost less the discounted next one, and on date T the anchor's pull.
        residual += marg
        residual[:-1] -= self.beta * marg[1:]
        residual[-1] += 2.0 * self.wT * tail
        if self.frozen is not None:
            np.copyto(residual, 0.0, where=self.frozen)  # a frozen category's multiplier absorbs it
        return value + self.tail_weight * float(np.dot(tail, tail)), residual, curv

    def with_multipliers(self, residual: np.ndarray, pair: np.ndarray) -> np.ndarray:
        """The residuals with the limits' terms added: each date's m_t - beta * m_{t+1},
        where m = upper - lower of a (lower, upper) ``pair`` of multiplier-like
        terms. They are zero wherever a category has no limit."""
        m = pair[1] - pair[0]
        m[:-1] -= self.beta * m[1:]
        m += residual
        return m


class _NewtonSystem:
    """The Newton system of an objective: its band, and the (lower, upper) grids
    over the dates of the finite limits (``has``) and their signs (``orient``)."""

    def __init__(self, objective: _Objective):
        self.objective = objective
        T, free = objective.T, objective.free
        hess = quad_allocation_hessian(objective.allocation[0][0], objective.allocation[2])
        has = objective.finite[:, 0]
        self.n_limits = T * np.count_nonzero(has)
        # Every per-category parameter repeated over the dates, then every per-date factor
        # over the categories: the discount of each limit, and the scaling beta^(t/2).
        per_category = [np.diagonal(hess), -np.sqrt(objective.beta) * free, *has, *(objective.sign[:, 0] * has)]
        grid = np.empty((9, T, N_CATEGORIES))
        grid[:6] = np.array(per_category, dtype=float)[:, None, :]
        grid[6:] = np.array([objective.disc, objective.disc, objective.beta ** (np.arange(1, T + 1) / 2.0)])[:, :, None]
        self.base, self.coupling, self.has, self.orient = grid[0], grid[1], grid[2:4], grid[4:6]
        self.disc_pair, self.root, self.neg_root = grid[6:8], grid[8], -grid[8]
        # The Hessian band's entries that no iterate changes; ``band`` fills in the
        # rest. Row 0 couples (t-1, k) with (t, k); entry (i, j), i < j, of C's Hessian,
        # without the couplings of frozen categories, sits in row 4 - (j - i), column j;
        # row 4 is the diagonal, to which each date's next curvature ``nxt`` adds
        # (date T's: the anchor's). ``flat`` is the band as LAPACK reads it.
        i, j = _UPPER
        self.ab = np.zeros((N_CATEGORIES + 1, T, N_CATEGORIES))
        self.ab[N_CATEGORIES - (j - i), :, j] = (hess[i, j] * (free[i] & free[j]))[:, None]
        self.flat = self.ab.reshape(N_CATEGORIES + 1, T * N_CATEGORIES)
        self.nxt = np.full((T, N_CATEGORIES), 2.0 * objective.wT)

    def log_barrier(self, mu: np.ndarray, slack: np.ndarray) -> float:
        """Discounted sum of mu * log(slack) over dates and limits."""
        return float(np.vdot(self.disc_pair, mu * np.log(slack)))

    def band(self, curv: np.ndarray) -> np.ndarray:
        """Upper band (bandwidth 4) of the Hessian in x_1..x_T, given the
        current-value curvature of each change. Rows and columns of date t
        are scaled by beta^(-t/2), which leaves every entry of order one.
        Filled in place: each call overwrites the previous call's band."""
        ab, nxt, frozen = self.ab, self.nxt, self.objective.frozen
        diag = ab[N_CATEGORIES]
        np.multiply(curv[1:], self.coupling[1:], out=ab[0, 1:])
        np.multiply(curv[1:], self.objective.beta, out=nxt[:-1])
        np.add(self.base, curv, out=diag)
        diag += nxt
        diag *= 1.0 + _RIDGE
        diag += _RIDGE
        if frozen is not None:
            np.copyto(diag, 1.0, where=frozen)
        return self.flat


def stage_cost_minimizer(scenario: Scenario) -> np.ndarray:
    """Long-run allocation implied by the cost spec, C's minimum-norm minimum
    (``quad_allocation_minimum``): the plain target whenever the total
    penalty is inactive or the reference matches the target's total."""
    return quad_allocation_minimum(*quad_allocation_args(scenario.cost))


def _decay_rate(gamma: float, weight: float, beta: float) -> float:
    """Per-date decay rate of a gap e under the cost 1/2 * weight * e^2 + 1/2 * gamma * d^2:
    the root in [0, 1) of beta * gamma * rho^2 - a * rho + gamma = 0, a = weight +
    gamma * (1 + beta), the stable root of the Euler equation linearised at the
    anchor (Ljungqvist & Sargent, Recursive Macroeconomic Theory, ch. 5). Written
    2 * gamma / (a + sqrt(a^2 - 4 * beta * gamma^2)), which keeps its digits where
    gamma is small: 0 at gamma = 0, 1 at weight = 0, and nan where a^2 and
    4 * beta * gamma^2 both overflow."""
    if gamma == 0.0:
        return 0.0
    a = weight + gamma * (1.0 + beta)
    return 2.0 * gamma / (a + math.sqrt(max(a * a - 4.0 * beta * gamma * gamma, 0.0)))


def _start_rates(objective: _Objective) -> np.ndarray:
    """Each category's decay rate for the first guess: C's own curvature w_k + w_total,
    and the kink raised by the cubic's secant curvature over the first year's change,
    (2/3) * eta * |x0 - anchor| * (1 - rho), rho the rate without it."""
    kink, _, eta = (grid[0].tolist() for grid in objective.adjustment)
    weights = (objective.allocation[0][0] + objective.allocation[2]).tolist()
    sizes = np.abs(objective.x0 - objective.anchor).tolist()
    rates = []
    for gamma, cubic, weight, size in zip(kink, eta, weights, sizes):
        first_year = size * (1.0 - _decay_rate(gamma, weight, objective.beta))
        rates.append(_decay_rate(gamma + (2.0 / 3.0) * cubic * first_year, weight, objective.beta))
    return np.array(rates)


def _initial_allocations(objective: _Objective) -> np.ndarray:
    """The path x_0..x_T of the configured guess (see ``SolverConfig``), moved
    strictly inside every finite change limit."""
    T, x0, anchor = objective.T, objective.x0, objective.anchor
    guess = objective.config.initial_guess
    path = np.empty((T + 1, N_CATEGORIES))
    path[0] = x0
    # With any finite limit, a frozen category's included, the interior-point start
    # takes the ramp: a decay path clipped into the limits took more iterations.
    if guess == "decay" and np.isinf(objective.limits).all():
        rate = _start_rates(objective)
        if np.isfinite(rate).all():
            # The linearised Euler equation's two modes, rho^t and (beta * rho)^-t,
            # combined to start at the gap and close it on date T, as the stiff
            # terminal term nearly does; on a long horizon, rho^t but in the last dates.
            t, beta = np.arange(1.0, T + 1.0)[:, None], objective.beta
            shape = (rate**t - rate**T * (beta * rate) ** (T - t)) / (1.0 - beta**T * rate ** (2 * T))
            np.multiply(x0 - anchor, shape, out=path[1:])
            path[1:] += anchor
            return path
    step = 0.0 if guess == "hold" else (anchor - x0) / T
    lo, hi = objective.limits[:, 0]
    margin = np.minimum(0.25 * (hi - lo), _START_MARGIN)
    path[1:] = np.clip(step, lo + margin, hi - margin)
    np.add(x0, np.cumsum(path[1:], axis=0), out=path[1:])
    return path


def _held_horizon(objective: _Objective) -> float:
    """The horizon T_c of a held try (see ``solve``), or inf where none can pass:
    T_c = ceil(max_k [ride_k + ln(stop_tol / (gamma_k * |g_k|)) / ln rho_k]) over
    the categories with a gap g = x0 - anchor. ride_k = |g_k| / (the limit toward
    the anchor), 0 without one; gamma_k is the larger of gamma_up and gamma_down,
    and rho_k the rate under w_k alone, which alone resists a move that keeps the
    total fixed, the slowest tail. A limit of 0 toward the anchor, a rate of 1 or
    more, a frozen category, or a limit pair whose barrier floor leaves its
    multipliers _COMP_FLOOR * |1/hi - 1/|lo|| apart at a zero change, above the
    stop test (the held dates carry none), means no try."""
    if objective.frozen is not None:
        return math.inf
    tol, dates = objective.stop_tol, 1.0
    lo, hi = objective.limits[:, 0].tolist()
    kink, skew, _ = (grid[0].tolist() for grid in objective.adjustment)
    columns = zip(lo, hi, objective.x0.tolist(), objective.anchor.tolist(), kink, skew, objective.allocation[0][0].tolist())
    for lo_k, hi_k, x0_k, anchor_k, kink_k, skew_k, weight in columns:
        imbalance = _COMP_FLOOR * abs((1.0 / hi_k if hi_k else math.inf) - (1.0 / -lo_k if lo_k else math.inf))
        if imbalance > tol:
            return math.inf
        size = abs(x0_k - anchor_k)
        if size == 0.0:
            continue
        gamma = kink_k + abs(skew_k)  # the larger of gamma_up and gamma_down
        rate = _decay_rate(gamma, weight, objective.beta)
        toward = -lo_k if x0_k > anchor_k else hi_k
        if not rate < 1.0 or toward == 0.0:
            return math.inf
        # A gap whose residual scale already meets the stop test adds no date.
        scale = gamma * size
        tail = (math.log(tol) - math.log(scale)) / math.log(rate) if scale > tol and rate > 0.0 else 0.0
        dates = max(dates, size / toward + tail)
    return math.ceil(dates) if math.isfinite(dates) else math.inf


def _step_to_boundary(values: np.ndarray, steps: np.ndarray) -> Tuple[float, float]:
    """For each half of the stacked positive ``values``, the largest step in
    (0, 1] along ``steps`` that keeps them positive, with a margin. Only
    negative steps bound it; the others may divide by zero."""
    ratio = np.where(steps < 0.0, values / steps, -np.inf)
    first, second = np.maximum.reduce(ratio.reshape(2, -1), axis=1).tolist()
    return min(1.0, _STEP_TO_BOUNDARY * -first), min(1.0, _STEP_TO_BOUNDARY * -second)


def solve(scenario: Scenario, config: Optional[SolverConfig] = None) -> SolveReport:
    """Minimize the discounted transition objective for a scenario.

    Deterministic for fixed inputs and configuration. Non-convergence is
    reported through ``converged`` and ``termination``, not raised. A
    horizon at which beta^(T/2) falls below the smallest normal float
    raises ``ValidationError``: the Newton system is solved scaled by
    beta^(t/2), which cannot represent those dates. Past T_c dates, which
    the categories' decay rates set, the path past the transition is held
    at the anchor and kept when its certificate passes the loop's stop
    test; one try, so a miss costs one short solve before the full one
    (module docstring).
    """
    if scenario.beta ** (scenario.horizon / 2.0) < np.finfo(float).tiny:
        raise ValidationError(
            f"beta = {scenario.beta} and T = {scenario.horizon} put beta^(T/2) below "
            "the smallest normal float; the late dates cannot be solved"
        )
    objective = _Objective(scenario, config)
    horizon = _held_horizon(objective)
    if objective.T > horizon:
        path, z, history, stopped, _ = _newton(_NewtonSystem(objective.head(horizon)))
        # Every later date held at the anchor with multipliers 0: the short loop
        # stopped settled, so the loop's stop test reads the certified residuals alone.
        held = np.empty((objective.T + 1, N_CATEGORIES))
        held[: len(path)], held[len(path) :] = path, objective.anchor
        if z is not None:
            z = np.concatenate((z, np.zeros((2, objective.T + 1 - len(path), N_CATEGORIES))), axis=1)
        # A path below zero, such as one held at an anchor below zero, is no Trajectory: never kept.
        if stopped == "converged" and held.min() >= -_NEG_TOL:
            report = _certify(objective, held, z, history, stopped)
            if report.gradient_norm <= objective.stop_tol:
                return report
    return _certify(objective, *_newton(_NewtonSystem(objective)))


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


def _limit_steps(system: _NewtonSystem, dpath: np.ndarray, z: np.ndarray, z_over_s, target_over_s, out: np.ndarray) -> None:
    """The slack and multiplier steps (ds, dz) of the path step ``dpath``, into
    ``out``: dz = target / s - z - (z / s) * ds. The change step is the first
    difference of the path step; differencing two iterates would lose it to
    cancellation."""
    ds, dz = out
    np.multiply(system.orient, dpath[1:] - dpath[:-1], out=ds)
    np.multiply(z_over_s, ds, out=dz)
    np.subtract(target_over_s - z, dz, out=dz)


def _newton(system: _NewtonSystem) -> Tuple[np.ndarray, Optional[np.ndarray], List[float], str, tuple]:
    """Damped Newton / interior-point loop from the first guess: the last path
    x_0..x_T, the multipliers (None without change limits), the objective
    history, why it stopped, and the last path's ``evaluate``. Every iteration
    takes the centred step unless Mehrotra's corrector descends."""
    # A step to the boundary divides by the steps that are not negative. An
    # evaluation, or a multiplier's z / s late in a degenerate solve, can
    # overflow; the loop then stops as singular. None of this is a warning.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        objective = system.objective
        cfg = objective.config
        has, root, neg_root, n_limits = system.has, system.root, system.neg_root, system.n_limits

        path = _initial_allocations(objective)
        # Slacks and multipliers are carried as iterates, stacked (slacks,
        # multipliers) and each (lower, upper); columns without a limit hold slack
        # 1 and multiplier 0, so they drop out of every formula. Recomputing a
        # slack from the changes would round to zero near an active limit.
        # Without a finite limit on a free category every limit term is an exact
        # zero: there are no slacks or multipliers (z is None), and neither the loop
        # nor the certificate adds a limit term (carrying them made unbounded
        # solves 36-45% slower, 2-vCPU Xeon).
        z = None
        if n_limits:
            sz = np.empty((2, 2, objective.T, N_CATEGORIES))
            s, z = sz
            np.copyto(s, np.where(has, objective.sign * (path[1:] - path[:-1] - objective.limits), 1.0))
            np.copyto(z, has)
            dsz = np.empty_like(sz)
            ds, dz = dsz
        # Steps of the path; the baseline's row stays zero.
        dpath = np.zeros_like(path)
        dx = dpath[1:]

        evaluation = objective.evaluate(path)
        value, residual, curv = evaluation
        history: List[float] = [value]
        for _ in range(cfg.max_iterations):
            # The stop test: every complementarity settled, and every residual within stop_tol.
            settled = not n_limits or (s * np.minimum(z, 1.0)).max() <= _COMP_TOL
            if settled and np.abs(objective.with_multipliers(residual, z) if n_limits else residual).max() <= objective.stop_tol:
                return path, z, history, "converged", evaluation

            # Every Newton step of this iterate shares one factorisation; the
            # limits' primal-dual curvature z / s adds to each change's.
            if n_limits:
                z_over_s = z / s
                curv = curv + z_over_s[0] + z_over_s[1]
            try:
                back_solve = _factorise(system.band(curv))
                slope = 0.0
                if not n_limits:
                    mu_over_s, grad = None, root * residual
                else:
                    # Each limit's barrier target is floored so that its
                    # complementarity settles at half of _COMP_TOL instead of driving
                    # its slack into roundoff, where z / s would swamp the band. Once
                    # every complementarity has settled only the floors are left, and
                    # there is no correction.
                    floor = _COMP_FLOOR * np.maximum(z, 1.0)
                    if settled:
                        target, correction = has * floor, None
                    else:
                        # Mehrotra's predictor-corrector. The predictor, the step from
                        # the objective's own gradient (barrier target 0), sets the
                        # centring sigma = (mu_aff / mu)^3; the corrector subtracts its
                        # second-order term ds * dz from each limit's floored target
                        # sigma * mu.
                        np.divide(back_solve(neg_root * residual), root, out=dx)
                        _limit_steps(system, dpath, z, z_over_s, 0.0, dsz)
                        affine = sz + np.array(_step_to_boundary(sz, dsz))[:, None, None, None] * dsz
                        mu = float(np.vdot(s, z)) / n_limits
                        sigma = (float(np.vdot(affine[0], affine[1])) / n_limits / mu) ** 3
                        target = has * np.maximum(sigma * mu, floor)
                        correction = ds * dz / s
                    # The line search's merit is the barrier at the floored targets,
                    # and its gradient judges descent.
                    mu_over_s = target / s
                    grad = root * objective.with_multipliers(residual, mu_over_s)
                    if correction is not None:
                        target_over_s = mu_over_s - correction
                        step = back_solve(neg_root * objective.with_multipliers(residual, target_over_s))
                        slope = float(np.vdot(grad, step))
                # The centred step, wherever no corrector descends; without limits,
                # the objective's Newton step and the iteration's only back-solve.
                if not slope < 0.0:
                    target_over_s, step = mu_over_s, back_solve(-grad)
                    slope = float(np.vdot(grad, step))
            except (np.linalg.LinAlgError, ValueError):  # not positive definite, or not finite
                return path, z, history, "singular", evaluation
            if not slope < 0.0:
                return path, z, history, "line_search_stalled", evaluation
            np.divide(step, root, out=dx)

            # Armijo backtracking on the barrier merit from the largest step
            # that keeps the slacks positive. Changes below the merit's roundoff
            # pass, so late dates, whose weight beta^t sits below it, still move,
            # and so does a step whose predicted decrease the merit cannot resolve.
            if n_limits:
                _limit_steps(system, dpath, z, z_over_s, target_over_s, dsz)
                alpha, alpha_z = _step_to_boundary(sz, dsz)
                merit = value - system.log_barrier(target, s)
            else:
                alpha, merit = 1.0, value
            resolution = 1e-15 * (1.0 + abs(merit))
            for _ in range(_MAX_BACKTRACKS):
                trial_path = path + alpha * dpath
                trial = objective.evaluate(trial_path)
                merit_new = trial[0] - system.log_barrier(target, s + alpha * ds) if n_limits else trial[0]
                if merit_new <= merit + _ARMIJO_C1 * alpha * slope + resolution or -alpha * slope <= resolution:
                    break
                alpha *= 0.5
            else:
                return path, z, history, "line_search_stalled", evaluation
            path, evaluation = trial_path, trial
            value, residual, curv = trial
            if n_limits:
                s += alpha * ds
                z += alpha_z * dz
            history.append(value)
            if settled and np.abs(dx).max() <= _ROUNDOFF * np.abs(path[1:]).max():
                # The step moved no allocation beyond roundoff, so stationarity
                # is as tight as floating point allows at this scale.
                return path, z, history, "roundoff_floor", evaluation
        return path, z, history, "budget_exhausted", evaluation


def _certify(
    objective: _Objective,
    path: np.ndarray,
    z: Optional[np.ndarray],
    history: List[float],
    stopped: str,
    evaluation: Optional[tuple] = None,
) -> SolveReport:
    """Certify the path as returned, at every date, and report it. The loop's
    ``evaluation`` of the path is reused unless ``Trajectory`` moved it
    (it lifts roundoff below zero to zero). With multipliers ``z`` the
    residuals carry their terms and every limit's violation and
    complementarity is checked. Without a finite limit on a free category
    (``z`` None) only the plain residuals and a frozen category's pin are
    read. A held path is kept when this passes the loop's stop test.

    A Newton system that is not finite can stop the loop below zero,
    which no trajectory holds; that report names the stop, with the path
    lifted to zero, instead of failing as if the input were invalid."""
    # What an overflow in a degenerate loop leaves is reported, not warned of.
    with np.errstate(over="ignore", invalid="ignore"):
        trajectory = Trajectory(np.maximum(path, 0.0) if stopped == "singular" else path)
        if evaluation is None or not np.array_equal(trajectory.values, path):
            evaluation = objective.evaluate(trajectory.values)
        value, residual, _ = evaluation
        values = trajectory.values
        if z is None:  # no multiplier term; only a frozen category's pin to violate
            residuals, limit_error = np.abs(residual), 0.0
            if objective.frozen is not None:
                limit_error = float(np.abs(values[1:] - values[:-1])[:, objective.frozen].max())
        else:
            # Each limit's slack, negative where the limit is violated; |slack| * min(z, 1) is its complementarity.
            gap = objective.sign * (values[1:] - values[:-1] - objective.limits)
            comp = np.abs(np.where(objective.finite, gap, 0.0)) * np.minimum(z, 1.0)
            residuals = np.abs(objective.with_multipliers(residual, z))
            limit_error = max(comp.max(), max(0.0, float(np.max(-gap))))
        # An overflowed marginal cost leaves inf - inf: that date is not certified.
        np.copyto(residuals, np.inf, where=np.isnan(residuals))
        grad_norm = float(np.max(residuals))
        max_residual = float(np.max(residuals[:-1])) if objective.T >= 2 else 0.0

        cfg = objective.config
        converged = bool(
            grad_norm <= cfg.gradient_tol and max_residual <= cfg.euler_tol and limit_error <= cfg.gradient_tol
        )
        if stopped == "converged" and not converged:
            stopped = "roundoff_floor"  # the loop's own test is as tight as it goes
        return SolveReport(
            converged=converged,
            iterations=len(history) - 1,
            objective=value,
            gradient_norm=grad_norm,
            max_euler_residual=max_residual,
            trajectory=trajectory,
            objective_history=tuple(history),
            termination="converged" if converged else stopped,
            anchor=objective.anchor,
        )


def objective_value(trajectory: Trajectory, scenario: Scenario, config: Optional[SolverConfig] = None) -> float:
    """Discounted objective of an arbitrary trajectory under a scenario.

    Uses the same terminal penalty as the solver, so values are directly
    comparable with SolveReport.objective. The trajectory must start at the
    scenario's baseline, which the objective holds fixed.
    """
    if trajectory.horizon != scenario.horizon:
        raise ValidationError(
            f"trajectory horizon {trajectory.horizon} does not match scenario horizon {scenario.horizon}"
        )
    objective = _Objective(scenario, config)
    if not np.array_equal(trajectory.values[0], objective.x0):
        raise ValidationError(f"trajectory does not start at the scenario's baseline {objective.x0.tolist()}")
    return objective.evaluate(trajectory.values)[0]


def euler_residuals(traj: Trajectory, scenario: Scenario) -> np.ndarray:
    """Interior-date stationarity residuals, one row per date t = 1..T-1.

    r_{t,k} = dC/dx_k (x_t) + phi'_k(d_t) - beta * phi'_k(d_{t+1}), the
    certificate's residuals without change limits. They vanish at an
    interior optimum; a perturbed or heuristic path leaves visible ones.
    """
    if traj.horizon < 2:
        raise ValidationError(f"residual check needs at least 3 trajectory rows, got {traj.horizon + 1}")
    objective = _Objective(replace(scenario, baseline=traj.at(0), delta_bounds=None, horizon=traj.horizon))
    return objective.evaluate(traj.values)[1][:-1]  # date T's row, with the anchor's pull, is left out


def gradualism_metric(traj: Trajectory, x_star: ExpenditureVector | np.ndarray) -> float:
    """Fraction of the reform gap closed in the first year (Euclidean norms).

    ``x_star`` may be an array, such as a long-run anchor below zero. Strictly
    below one whenever quadratic adjustment curvature makes spreading the
    reallocation across years worthwhile.
    """
    x0, x1 = traj.values[:2]
    target = x_star.as_array() if isinstance(x_star, ExpenditureVector) else np.asarray(x_star, dtype=float)
    gap = np.linalg.norm(target - x0)
    if gap == 0.0:
        raise ValidationError("gradualism metric undefined: baseline already equals the target")
    return float(np.linalg.norm(x1 - x0) / gap)
