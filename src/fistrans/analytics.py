"""Derived fiscal series: effective expenditure, hump-shaped transition
classification, and the administrative-savings timing pipeline.

Effective expenditure adds the adjustment outlay of each year to the
allocation total, so reform years carry the implementation overhead on top
of the underlying budget. The savings pipeline turns a reduction path for
adjustable administrative spending into gross savings, net savings after
adjustment outlays, and the first year at which cumulative net savings
turn nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .costs import quad_allocation, quad_allocation_args, quad_allocation_minimum, quad_cubic, quad_cubic_args
from .types import (
    BreakEvenSpec,
    DeltaVector,
    ExpenditureVector,
    RigidityParams,
    Scenario,
    Trajectory,
    ValidationError,
    delta,
)

__all__ = [
    "JShapeVerdict",
    "SavingsSeries",
    "effective_expenditure",
    "adjustment_series",
    "jshape_classify",
    "jshape_condition",
    "baseline_gap",
    "equal_step_path",
    "savings_series",
]

# Absolute tolerance of the shape classifier's comparisons and of the rise condition.
_SHAPE_TOL = 1e-9


@dataclass(frozen=True)
class JShapeVerdict:
    """Outcome of classifying a series as a rise-then-fall transition."""

    is_j_shaped: bool
    peak_index: int
    peak_value: float
    terminal_value: float


@dataclass(frozen=True, eq=False)
class SavingsSeries:
    """Per-year savings accounting for an administrative reduction path.

    ``net`` equals ``gross - adjustment`` exactly and ``cumulative`` is the
    running (undiscounted) sum of ``net``. ``breakeven_year`` is the first
    year >= 1 with nonnegative cumulative net savings inside the reporting
    window, or None when the window ends before that happens. Year 0 always
    has zero adjustment outlay: nothing changes before the reform starts.
    """

    gross: np.ndarray
    adjustment: np.ndarray
    net: np.ndarray
    cumulative: np.ndarray
    window: int
    breakeven_year: Optional[int]

    def __post_init__(self) -> None:
        for name in ("gross", "adjustment", "net", "cumulative"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def breakeven_label(self) -> str:
        """Break-even year as printed in reports: '3' or '> 5'."""
        if self.breakeven_year is None:
            return f"> {self.window}"
        return str(self.breakeven_year)

    @property
    def windowed_cumulative(self) -> float:
        """Cumulative net savings over years 0..window."""
        return float(self.cumulative[self.window])


def adjustment_series(traj: Trajectory, p: RigidityParams) -> np.ndarray:
    """Per-year adjustment outlay along a trajectory (zero in year 0)."""
    return quad_cubic(traj.deltas(), *quad_cubic_args(p))[0].sum(axis=1)


def effective_expenditure(traj: Trajectory, p: RigidityParams) -> np.ndarray:
    """Allocation total plus the year's adjustment outlay, per year.

    Year 0 carries no adjustment outlay by convention, so the series starts
    at the plain allocation total.
    """
    return traj.totals() + adjustment_series(traj, p)


def jshape_classify(series: Sequence[float]) -> JShapeVerdict:
    """Classify a series as rise-then-fall (peak after the start, decline after).

    The verdict is positive iff the (first) maximum sits strictly after
    index 0, exceeds the initial value, and the final value sits strictly
    below the peak, all beyond an absolute tolerance of 1e-9.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1 or arr.size < 3:
        raise ValidationError(f"series must be one-dimensional with length >= 3, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("series contains non-finite values")
    peak_index = int(np.argmax(arr))
    peak_value = float(arr[peak_index])
    terminal = float(arr[-1])
    is_j = (
        peak_index >= 1
        and peak_value > arr[0] + _SHAPE_TOL
        and terminal < peak_value - _SHAPE_TOL
    )
    return JShapeVerdict(bool(is_j), peak_index, peak_value, terminal)


def jshape_condition(scenario: Scenario) -> Tuple[float, float, bool]:
    """The rise condition, (outlay, gain, holds): whether moving from the baseline
    to the long-run anchor, the minimum of C, in one year costs more than one
    year of the long-run cost gain, beyond 1e-9. The anchor is evaluated as an
    array, so one below zero in some category is too; a gain below zero is
    roundoff and reads 0. When the condition holds for a solved trajectory,
    effective expenditure rises in year 1 before the reform's gains pull it down.
    """
    x0 = scenario.baseline.as_array()
    allocation = quad_allocation_args(scenario.cost)
    anchor = quad_allocation_minimum(*allocation)
    outlay = float(np.sum(quad_cubic(anchor - x0, *quad_cubic_args(scenario.rigidity))[0]))
    c_x0, c_anchor = quad_allocation(np.array([x0, anchor]), *allocation)[0].tolist()
    gain = max(c_x0 - c_anchor, 0.0)
    return outlay, gain, outlay > gain + _SHAPE_TOL


def baseline_gap(x: ExpenditureVector, baseline: ExpenditureVector) -> DeltaVector:
    """Discretionary deviation of an allocation from its institutional baseline."""
    return delta(x, baseline)


def equal_step_path(spec: BreakEvenSpec) -> np.ndarray:
    """Reduction path with equal yearly decrements.

    The adjustable level falls from the base by reduction_fraction * base
    in equal steps over target_years years, then stays constant through the
    reporting window. The returned array covers years 0..max(target_years,
    window).
    """
    base = spec.adjustable_base
    step_years = np.minimum(np.arange(max(spec.target_years, spec.window) + 1), spec.target_years)
    return base - (spec.reduction_fraction * base) * step_years / spec.target_years


def savings_series(path: Sequence[float], spec: BreakEvenSpec) -> SavingsSeries:
    """Savings accounting for a reduction path of adjustable spending.

    Gross savings measure the gap below the constant baseline level; the
    adjustment outlay applies the spec's rigidity block to each year's
    change; net savings subtract the outlay; cumulative sums are
    undiscounted. The path must cover the reporting window.
    """
    arr = np.asarray(path, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError(f"path must be one-dimensional with length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("path contains non-finite values")
    if arr.size < spec.window + 1:
        raise ValidationError(
            f"path covers {arr.size - 1} years but the reporting window needs {spec.window}"
        )
    gross = spec.adjustable_base - arr
    steps = np.zeros_like(arr)
    steps[1:] = np.diff(arr)
    outlay = quad_cubic(steps, *quad_cubic_args(spec))[0]
    net = gross - outlay
    cumulative = np.cumsum(net)

    breakeven: Optional[int] = None
    for t in range(1, spec.window + 1):
        if cumulative[t] >= 0.0:
            breakeven = t
            break
    return SavingsSeries(gross, outlay, net, cumulative, spec.window, breakeven)
