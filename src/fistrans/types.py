"""Domain types for the fiscal expenditure transition model.

Expenditure allocations are four-category vectors (transfers, wages,
investment, operating) in budget-share index units. A simulation run fixes
the normalization; the shipped calibration uses total = 100 at t = 0.
All quantities are 64-bit floats and all types are immutable value objects,
safe to share across threads and processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ValidationError",
    "ModeMismatchError",
    "Category",
    "CATEGORIES",
    "N_CATEGORIES",
    "ExpenditureVector",
    "DeltaVector",
    "RigidityParams",
    "FiscalCostSpec",
    "Trajectory",
    "BreakEvenSpec",
    "Scenario",
    "total",
    "delta",
]


class ValidationError(ValueError):
    """An input violates a documented invariant."""


class ModeMismatchError(ValidationError):
    """Symmetric parameters fed to the asymmetric evaluator, or vice versa."""


class Category(Enum):
    """The four expenditure categories in their fixed serialization order."""

    TRANSFERS = "T"
    WAGES = "W"
    INVESTMENT = "I"
    OPERATING = "F"

    def __init__(self, code: str) -> None:
        #: Lowercase field name used in scenario files and dataclasses.
        self.key = self.name.lower()


CATEGORIES: Tuple[Category, ...] = tuple(Category)
N_CATEGORIES = len(CATEGORIES)
# Every category's change limits when a scenario sets none.
_NO_LIMITS = ((-math.inf, math.inf),) * N_CATEGORIES

# Values this close below zero are treated as numerical zeros when a solver
# result is packed into value objects that require nonnegativity.
_NEG_TOL = 1e-9


def _check(value, what: str, kind: str = "finite"):
    """The one field check: ``value`` must be a finite number of one ``kind``,
    "finite", "nonnegative", "positive", "fraction" (in (0, 1)), "score" (in
    [0, 1]) or "count" (an integer >= 1); a boolean is no number. Returns a
    float, or an int for a count."""
    try:
        if isinstance(value, (bool, np.bool_)):  # float would read True as the number 1
            raise TypeError
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be a number, got {value!r}") from None
    if kind == "count":
        if not (v >= 1.0 and v.is_integer()):
            raise ValidationError(f"{what} must be an integer >= 1, got {value}")
        return int(v)
    if kind == "fraction":
        if not 0.0 < v < 1.0:
            raise ValidationError(f"{what} out of range (0, 1): {v}")
    elif kind == "score" and not 0.0 <= v <= 1.0:
        raise ValidationError(f"{what} out of range [0, 1]: {v}")
    elif not math.isfinite(v):
        raise ValidationError(f"{what} must be finite, got {v}")
    elif kind == "nonnegative" and v < 0.0:
        raise ValidationError(f"{what} must be nonnegative, got {v}")
    elif kind == "positive" and v <= 0.0:
        raise ValidationError(f"{what} must be positive, got {v}")
    return v


def _store(obj, kind: str, *names: str) -> None:
    """Check each named field of a frozen value object and store the result."""
    for name in names:
        object.__setattr__(obj, name, _check(getattr(obj, name), name, kind))


def _float4(values: Sequence[float], what: str, kind: str = "finite") -> Tuple[float, float, float, float]:
    vals = tuple(values) if np.iterable(values) else ()
    if len(vals) != N_CATEGORIES:
        raise ValidationError(f"{what} must have exactly {N_CATEGORIES} entries, got {values!r}")
    return tuple(_check(v, f"{what}[{cat.key}]", kind) for cat, v in zip(CATEGORIES, vals))  # type: ignore[return-value]


@dataclass(frozen=True)
class _Vector4:
    """Four finite per-category floats in serialization order; subclasses set
    ``_what`` (the name in error messages) and ``_kind`` (see ``_check``)."""

    transfers: float
    wages: float
    investment: float
    operating: float

    _what: ClassVar[str]
    _kind: ClassVar[str] = "finite"

    def __post_init__(self) -> None:
        for cat, v in zip(CATEGORIES, _float4(self.as_tuple(), self._what, self._kind)):
            object.__setattr__(self, cat.key, v)

    @classmethod
    def from_array(cls, values: Sequence[float]):
        vals = tuple(float(v) for v in np.asarray(values, dtype=float).ravel())
        if len(vals) != N_CATEGORIES:
            raise ValidationError(f"{cls._what} vector needs {N_CATEGORIES} entries, got {len(vals)}")
        return cls(*vals)

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.transfers, self.wages, self.investment, self.operating)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple(), dtype=float)

    def get(self, category: Category) -> float:
        return getattr(self, category.key)


class ExpenditureVector(_Vector4):
    """A four-category expenditure allocation, componentwise nonnegative."""

    _what = "expenditure"
    _kind = "nonnegative"

    @property
    def total(self) -> float:
        return self.transfers + self.wages + self.investment + self.operating


class DeltaVector(_Vector4):
    """A signed one-period change in each expenditure category."""

    _what = "delta"


def total(x: ExpenditureVector) -> float:
    """Total expenditure: the sum of the four category components."""
    return x.total


def delta(x_curr: ExpenditureVector, x_prev: ExpenditureVector) -> DeltaVector:
    """Componentwise one-period change x_curr - x_prev."""
    return DeltaVector.from_array(x_curr.as_array() - x_prev.as_array())


class _Rigidity:
    """The rigidity block of RigidityParams and BreakEvenSpec: ``gamma``, or both
    ``gamma_up`` and ``gamma_down``, never both forms; every curvature, ``eta``
    included, is nonnegative. Subclasses set ``_curvature``, the check of one
    curvature (a 4-vector or a float), and ``_pair``, its type in ``gamma_pair``."""

    def __post_init__(self) -> None:
        if (self.gamma_up is None) != (self.gamma_down is None):
            raise ValidationError("asymmetric rigidity requires both gamma_up and gamma_down")
        if (self.gamma is None) == (self.gamma_up is None):
            raise ValidationError("rigidity must be either symmetric (gamma) or asymmetric (gamma_up/gamma_down)")
        for name in ("gamma", "eta", "gamma_up", "gamma_down"):
            if name == "eta" or getattr(self, name) is not None:
                object.__setattr__(self, name, self._curvature(getattr(self, name), name, "nonnegative"))

    @property
    def is_asymmetric(self) -> bool:
        return self.gamma is None

    def gamma_pair(self) -> tuple:
        """Quadratic curvatures (for increases, for reductions); both are gamma when symmetric."""
        if self.is_asymmetric:
            return self._pair(self.gamma_up), self._pair(self.gamma_down)
        gamma = self._pair(self.gamma)
        return gamma, gamma


@dataclass(frozen=True)
class RigidityParams(_Rigidity):
    """Curvature parameters of the per-category adjustment-cost function.

    Symmetric mode supplies ``gamma`` (quadratic curvature) and ``eta``
    (cubic curvature) per category. Asymmetric mode replaces ``gamma`` by
    the pair (``gamma_up``, ``gamma_down``) so that reductions can be
    costlier than increases; the mode is all-or-nothing across categories.
    """

    gamma: Optional[Tuple[float, float, float, float]] = None
    eta: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    gamma_up: Optional[Tuple[float, float, float, float]] = None
    gamma_down: Optional[Tuple[float, float, float, float]] = None

    _curvature = staticmethod(_float4)
    _pair = staticmethod(np.array)


@dataclass(frozen=True)
class FiscalCostSpec:
    """Parameters of the per-period allocation cost.

    The cost penalizes squared deviations from the target allocation,
    weighted per category, plus an optional squared penalty on total
    spending relative to ``total_reference`` (defaults to the target's
    own total).
    """

    target: ExpenditureVector
    weights: Tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    total_weight: float = 0.0
    total_reference: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _float4(self.weights, "weights", "nonnegative"))
        _store(self, "nonnegative", "total_weight")
        if max(self.weights) == 0.0 and self.total_weight == 0.0:
            raise ValidationError("cost spec needs at least one strictly positive weight")
        ref = self.target.total if self.total_reference is None else self.total_reference
        object.__setattr__(self, "total_reference", _check(ref, "total_reference"))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A time-indexed sequence of allocations x_0 ... x_T.

    The year-0 change is zero by convention (no pre-sample history), so all
    derived series start from an adjustment-free initial year. Components
    within 1e-9 below zero are treated as numerical zeros.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != N_CATEGORIES:
            raise ValidationError(f"trajectory must have shape (years+1, {N_CATEGORIES}), got {arr.shape}")
        if arr.shape[0] < 2:
            raise ValidationError("trajectory needs at least two rows (one year)")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("trajectory contains non-finite values")
        if np.min(arr) < -_NEG_TOL:
            raise ValidationError(f"trajectory has negative components below -{_NEG_TOL}")
        arr = np.maximum(arr, 0.0)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def horizon(self) -> int:
        """Number of years T (the sequence has T + 1 rows)."""
        return self.values.shape[0] - 1

    def at(self, t: int) -> ExpenditureVector:
        return ExpenditureVector.from_array(self.values[t])

    def deltas(self) -> np.ndarray:
        """Per-year changes with the year-0 row fixed at zero."""
        out = np.zeros_like(self.values)
        out[1:] = np.diff(self.values, axis=0)
        return out

    def totals(self) -> np.ndarray:
        return self.values.sum(axis=1)


@dataclass(frozen=True)
class BreakEvenSpec(_Rigidity):
    """Inputs of the administrative-savings timing computation.

    ``adjustable_base`` is the year-0 level of the discretionary operating
    slice that the reform can reduce; ``core_floor`` is the non-reducible
    remainder, carried as metadata. The reform cuts the adjustable slice by
    ``reduction_fraction`` over ``target_years`` years; savings are reported
    over ``window`` years. The rigidity block is either symmetric
    (``gamma``, ``eta``) or asymmetric (``gamma_up``, ``gamma_down``, ``eta``).
    """

    reduction_fraction: float
    target_years: int
    adjustable_base: float = 100.0
    core_floor: float = 0.0
    window: int = 5
    gamma: Optional[float] = None
    eta: float = 0.0
    gamma_up: Optional[float] = None
    gamma_down: Optional[float] = None

    _curvature = staticmethod(_check)
    _pair = float

    def __post_init__(self) -> None:
        _store(self, "fraction", "reduction_fraction")
        _store(self, "count", "target_years", "window")
        _store(self, "positive", "adjustable_base")
        _store(self, "nonnegative", "core_floor")
        super().__post_init__()


@dataclass(frozen=True)
class Scenario:
    """A named simulation bundle: baseline, costs, rigidity, and run controls.

    ``delta_bounds``, when present, gives per-category (min, max) limits on
    the one-period change; the limits must admit zero change so that holding
    the baseline is always feasible.
    """

    name: str
    baseline: ExpenditureVector
    cost: FiscalCostSpec
    rigidity: RigidityParams
    beta: float
    horizon: int
    delta_bounds: Optional[Tuple[Tuple[float, float], ...]] = None
    breakeven: Optional[BreakEvenSpec] = None

    def __post_init__(self) -> None:
        # Scenario files quote the name on one line, so it must be a string
        # holding no '"' and no character str.splitlines splits on (the '.'
        # catches a trailing one).
        if not isinstance(self.name, str):
            raise ValidationError(f"name must be a string, got {self.name!r}")
        if '"' in self.name or len(f"{self.name}.".splitlines()) > 1:
            raise ValidationError(f"name must not contain a double quote or a line break, got {self.name!r}")
        object.__setattr__(self, "beta", _check(self.beta, "discount factor", "fraction"))
        _store(self, "count", "horizon")
        if self.delta_bounds is not None:
            try:
                norm = tuple((float(lo), float(hi)) for lo, hi in self.delta_bounds)
            except (TypeError, ValueError):
                raise ValidationError(f"delta_bounds must hold (min, max) pairs, got {self.delta_bounds!r}") from None
            if len(norm) != N_CATEGORIES:
                raise ValidationError(f"delta_bounds needs {N_CATEGORIES} (min, max) pairs")
            for cat, (lo, hi) in zip(CATEGORIES, norm):
                if math.isnan(lo) or math.isnan(hi):
                    raise ValidationError(f"delta_bounds[{cat.key}] contains NaN")
                if lo > 0.0 or hi < 0.0:
                    raise ValidationError(f"delta_bounds[{cat.key}] must admit zero change, got ({lo}, {hi})")
            object.__setattr__(self, "delta_bounds", None if norm == _NO_LIMITS else norm)

    def bounds_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lower/upper per-category change bounds (infinite when unbounded)."""
        return tuple(np.array(self.delta_bounds or _NO_LIMITS, dtype=float).T)
