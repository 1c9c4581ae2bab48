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
``quad_allocation``; the other evaluators here and the planner call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .types import (
    DeltaVector,
    ExpenditureVector,
    FiscalCostSpec,
    ModeMismatchError,
    RigidityParams,
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


def quad_cubic(d, gamma_up, gamma_down, eta):
    """Elementwise value gamma/2 * d^2 + eta/3 * |d|^3, marginal gamma * d + eta * d * |d|
    and curvature gamma + 2 * eta * |d|, with gamma = gamma_up for d > 0, else
    gamma_down. The curvature's kink at d = 0 takes the mean gamma."""
    d = np.asarray(d, dtype=float)
    gamma = np.where(d > 0.0, gamma_up, gamma_down)
    size = np.abs(d)
    value = 0.5 * gamma * d * d + (np.asarray(eta) / 3.0) * size**3
    marginal = gamma * d + eta * d * size
    kink = 0.5 * (np.asarray(gamma_up) + np.asarray(gamma_down))
    curvature = np.where(d == 0.0, kink, gamma) + 2.0 * eta * size
    return value, marginal, curvature


def quad_allocation(x, weights, target, total_weight, total_reference):
    """Allocation cost over the last axis of x, value
    1/2 * sum_k w_k (x_k - target_k)^2 + 1/2 * w_total * (sum_k x_k - total_reference)^2,
    and its gradient w * (x - target) + w_total * (sum_k x_k - total_reference)."""
    x = np.asarray(x, dtype=float)
    gap = x - target
    tgap = x.sum(axis=-1) - total_reference
    value = 0.5 * (weights * gap * gap).sum(axis=-1) + 0.5 * total_weight * tgap * tgap
    return value, weights * gap + total_weight * tgap[..., None]


def quad_allocation_hessian(weights, total_weight) -> np.ndarray:
    """The allocation cost's Hessian, the same at every point: diag(w) + w_total."""
    return np.diag(weights) + total_weight


def adjustment_cost(d: DeltaVector, p: RigidityParams) -> CostEval:
    """Adjustment cost of a change vector, with its gradient, in either rigidity mode."""
    dv = d.as_array()
    g_up, g_dn = p.gamma_pair()
    eta = p.eta_array()
    value, grad, _ = quad_cubic(dv, g_up, g_dn, eta)
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
    args = (spec.weights_array(), spec.target.as_array(), spec.total_weight, spec.total_reference)
    return CostEval(*quad_allocation(x.as_array(), *args))


def gradient_check(
    f: Callable[[np.ndarray], CostEval],
    point: np.ndarray,
    h: float = 1e-6,
) -> float:
    """Worst relative error of the analytic gradient against central differences.

    The evaluator maps a length-4 array to a CostEval. Each coordinate is
    perturbed by +/- h and the centered difference is compared against the
    analytic entry, scaled by max(1, |analytic|).
    """
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    point = np.asarray(point, dtype=float)
    analytic = f(point).gradient
    worst = 0.0
    for k in range(point.size):
        bump = np.zeros_like(point)
        bump[k] = h
        fd = (f(point + bump).value - f(point - bump).value) / (2.0 * h)
        err = abs(fd - analytic[k]) / max(1.0, abs(analytic[k]))
        worst = max(worst, err)
    return worst
