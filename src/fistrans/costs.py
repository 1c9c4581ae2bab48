"""Adjustment-cost and allocation-cost evaluators with analytic gradients.

The per-category adjustment cost is quadratic-cubic,

    phi_k(d) = gamma_k/2 * d^2 + eta_k/3 * |d|^3,

so marginal costs rise sharply for large reallocations. gamma_k is
gamma_up for increases and gamma_down for reductions, and symmetric
rigidity is the case gamma_up = gamma_down. The allocation cost C is
quadratic in deviations from a target composition plus an optional
quadratic penalty on total spending, so its Hessian is constant. Both are
convex and continuously differentiable, including at zero change: d|d|
has derivative 2|d|, so the cubic term is smooth there with zero slope.
Each cost has one kernel over stacked arrays, ``quad_cubic`` and
``quad_allocation``, which the other modules call with the arguments that
``quad_cubic_args`` lays out from a rigidity block and
``quad_allocation_args`` from a cost spec; no other module builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .types import (
    BreakEvenSpec,
    DeltaVector,
    ExpenditureVector,
    FiscalCostSpec,
    ModeMismatchError,
    RigidityParams,
    _check,
)

__all__ = [
    "CostEval",
    "phi",
    "phi_asymmetric",
    "adjustment_cost",
    "stage_cost",
    "gradient_check",
    "quad_cubic",
    "quad_allocation",
    "quad_allocation_hessian",
    "quad_allocation_minimum",
    "quad_cubic_args",
    "quad_allocation_args",
]


@dataclass(frozen=True, eq=False)
class CostEval:
    """A cost value together with its analytic gradient (one entry per category)."""

    value: float
    gradient: np.ndarray

    def __post_init__(self) -> None:
        grad = np.array(self.gradient, dtype=float)
        grad.flags.writeable = False
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "gradient", grad)


def quad_cubic(d, kink, skew, eta):
    """Elementwise value gamma/2 * d^2 + eta/3 * |d|^3, marginal (gamma + eta * |d|) * d
    and curvature gamma + 2 * eta * |d|, with gamma = kink + skew * sign(d): given
    a rigidity's ``quad_cubic_args``, gamma_up for d > 0, gamma_down for d < 0 and
    their mean, the kink, at d = 0. The parameters broadcast against d; a caller
    that evaluates many points of one shape saves work by passing them at it."""
    d = np.asarray(d, dtype=float)
    gamma = kink + skew * np.sign(d)
    cubic = eta * np.abs(d)
    slope = gamma + cubic
    return (0.5 * gamma + cubic / 3.0) * d * d, slope * d, slope + cubic


def _row_sum(a):
    """Sum over the length-4 last axis, category by category: the same bits for
    one row as for many, and far cheaper than a reduction over that short axis."""
    return a[..., 0] + a[..., 1] + a[..., 2] + a[..., 3]


def quad_allocation(x, weights, target, total_weight, total_reference):
    """Allocation cost over the last axis of x, value
    1/2 * sum_k w_k (x_k - target_k)^2 + 1/2 * w_total * (sum_k x_k - total_reference)^2,
    and its gradient w * (x - target) + w_total * (sum_k x_k - total_reference)."""
    x = np.asarray(x, dtype=float)
    gap = x - target
    weighted = weights * gap
    total_gap = _row_sum(x) - total_reference
    total_pull = total_weight * total_gap
    value = 0.5 * (_row_sum(weighted * gap) + total_pull * total_gap)
    return value, weighted + total_pull[..., None]


def quad_allocation_hessian(weights, total_weight) -> np.ndarray:
    """The allocation cost's Hessian, the same at every point: diag(w) + w_total."""
    return np.diag(weights) + total_weight


def quad_allocation_minimum(weights, target, total_weight, total_reference) -> np.ndarray:
    """C's minimum-norm minimizer target - (S - R) * u, with S the target's total and
    R the reference; C's gradient at the target is w_total * (S - R) in every category.
    u = (w_total / w) / (1 + sum_k w_total / w_k) when every weight is positive, else
    the equal split over the zero-weight categories, or 0 when w_total = 0."""
    zero = weights == 0.0
    if not zero.any():
        u = total_weight / weights
        u /= 1.0 + np.sum(u)
    else:
        u = zero / np.count_nonzero(zero) if total_weight > 0.0 else 0.0 * weights
    return target - (np.sum(target) - total_reference) * u


def quad_cubic_args(rigidity: RigidityParams | BreakEvenSpec) -> tuple:
    """The ``quad_cubic`` arguments (kink, skew, eta) of a rigidity block, per
    category or one number each for a ``BreakEvenSpec``: gamma_up = kink + skew and
    gamma_down = kink - skew, so the skew is zero when symmetric. Each is a sum of
    halves, so no finite curvature overflows."""
    up, down = rigidity.gamma_pair()
    half_up, half_down = 0.5 * up, 0.5 * down
    return half_up + half_down, half_up - half_down, np.asarray(rigidity.eta, dtype=float)


def quad_allocation_args(cost: FiscalCostSpec) -> tuple:
    """The ``quad_allocation`` arguments (weights, target, total_weight, total_reference) of a cost spec."""
    return np.array(cost.weights, dtype=float), cost.target.as_array(), cost.total_weight, cost.total_reference


def adjustment_cost(d: DeltaVector, p: RigidityParams) -> CostEval:
    """Adjustment cost of a change vector, with its gradient, in either rigidity mode."""
    value, grad, _ = quad_cubic(d.as_array(), *quad_cubic_args(p))
    return CostEval(float(np.sum(value)), grad)


def phi(d: DeltaVector, p: RigidityParams) -> CostEval:
    """Symmetric adjustment cost of a change vector, with its gradient.

    Raises ModeMismatchError for asymmetric parameter sets; calibration
    mistakes must surface rather than be coerced.
    """
    if p.is_asymmetric:
        raise ModeMismatchError("phi requires symmetric rigidity; use phi_asymmetric")
    return adjustment_cost(d, p)


def phi_asymmetric(d: DeltaVector, p: RigidityParams) -> CostEval:
    """Asymmetric adjustment cost of a change vector, with its gradient."""
    if not p.is_asymmetric:
        raise ModeMismatchError("phi_asymmetric requires asymmetric rigidity; use phi")
    return adjustment_cost(d, p)


def stage_cost(x: ExpenditureVector, spec: FiscalCostSpec) -> CostEval:
    """Per-period allocation cost of one allocation, with its gradient (see ``quad_allocation``)."""
    return CostEval(*quad_allocation(x.as_array(), *quad_allocation_args(spec)))


def gradient_check(
    f: Callable[[np.ndarray], CostEval],
    point: np.ndarray,
    h: float = 1e-6,
) -> float:
    """Worst relative error of the analytic gradient against central differences.

    The evaluator maps a length-4 array to a CostEval. Each coordinate is
    perturbed by +/- h and the centered difference is compared against the
    analytic entry, scaled by max(1, |analytic|). A value or gradient entry
    that is not finite makes the result nan.
    """
    h = _check(h, "step size", "positive")
    point = np.asarray(point, dtype=float)
    analytic = f(point).gradient
    fd = np.array([f(point + e).value - f(point - e).value for e in h * np.eye(point.size)]) / (2.0 * h)
    return float(np.max(np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))))
