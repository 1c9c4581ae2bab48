"""Named calibration presets and the rigidity-score mapping.

The shipped "paper-default" preset carries the baseline composition of
public expenditure (shares of total, normalized to 100), the internal
composition of each category, flexibility scores, the curvature parameters
of the adjustment-cost function, an illustrative long-run reform target
(the cost spec's ``target``), and a catalog of administrative-savings
scenarios at low/medium/high rigidity, each row holding its ``BreakEvenSpec``.

Flexibility scores map to curvature parameters by piecewise-linear
interpolation through the four published (score, gamma, eta) anchor pairs,
clamped outside the anchored range. The anchors are not collinear, so a
lookup with interpolation is the least-assumption monotone mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

import numpy as np

from .types import (
    BreakEvenSpec,
    Category,
    ExpenditureVector,
    FiscalCostSpec,
    RigidityParams,
    Scenario,
    ValidationError,
    _check,
    _float4,
)

__all__ = [
    "BreakEvenScenario",
    "CalibrationPreset",
    "load_default_preset",
    "rigidity_to_params",
    "asymmetric_variant",
    "DEFAULT_PRESET_NAME",
]

DEFAULT_PRESET_NAME = "paper-default"

# (flexibility score, gamma, eta) anchors, ascending in score.
_SCORE_ANCHORS = (0.3, 0.5, 0.8, 0.9)
_GAMMA_ANCHORS = (1.0, 1.5, 3.5, 4.0)
_ETA_ANCHORS = (0.4, 0.6, 1.5, 1.8)

# Non-published convention for asymmetric variants: reductions carry 1.5x
# the quadratic curvature of increases.
ASYMMETRIC_DOWN_FACTOR = 1.5


@dataclass(frozen=True)
class BreakEvenScenario:
    """One row of the administrative-savings catalog: name, rigidity regime, inputs."""

    name: str
    regime: str
    spec: BreakEvenSpec


# The catalog, built once: its specs are immutable, so every preset shares it.
_BREAKEVEN_CATALOG = (
    BreakEvenScenario("A", "low", BreakEvenSpec(0.10, 3, gamma=0.8, eta=0.05)),
    BreakEvenScenario("B", "medium", BreakEvenSpec(0.10, 3, gamma=2.0, eta=0.15)),
    BreakEvenScenario("C", "high", BreakEvenSpec(0.10, 3, gamma=4.0, eta=0.30)),
    BreakEvenScenario("D", "low", BreakEvenSpec(0.20, 5, gamma=0.8, eta=0.05)),
    BreakEvenScenario("E", "medium", BreakEvenSpec(0.20, 5, gamma=2.0, eta=0.15)),
    BreakEvenScenario("F", "high", BreakEvenSpec(0.20, 5, gamma=4.0, eta=0.30)),
)


@dataclass(frozen=True)
class CalibrationPreset:
    """An immutable bundle of calibrated inputs and the savings catalog.

    The reform target is ``cost.target``. ``rigidity`` is no argument: each
    construction, ``replace`` too, derives it from the flexibility scores.
    ``gdp_shares`` and the read-only ``internal_composition`` are
    annotations only; the dynamics run on the four-category share vector.
    """

    name: str
    baseline: ExpenditureVector
    flexibility: Tuple[float, float, float, float]
    rigidity: RigidityParams = field(init=False)
    cost: FiscalCostSpec
    beta: float
    horizon: int
    gdp_shares: Tuple[float, float, float, float]
    internal_composition: Mapping[Category, Tuple[Tuple[str, float], ...]]
    breakeven_catalog: Tuple[BreakEvenScenario, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "internal_composition", MappingProxyType(dict(self.internal_composition)))
        composition = self.internal_composition.items()
        totals = [("baseline shares", self.baseline.total), ("target shares", self.cost.target.total)]
        totals += [(f"internal composition of {cat.key}", sum(s for _, s in rows)) for cat, rows in composition]
        for label, total in totals:
            if abs(total - 100.0) > 1e-9:
                raise ValidationError(f"{label} must sum to 100, got {total}")
        params = [rigidity_to_params(score) for score in self.flexibility] if np.iterable(self.flexibility) else []
        object.__setattr__(self, "flexibility", _float4(self.flexibility, "flexibility"))
        object.__setattr__(self, "rigidity", RigidityParams(*zip(*params)))

    def scenario(self, name: Optional[str] = None, breakeven: Optional[BreakEvenSpec] = None) -> Scenario:
        """The preset's reform transition as a runnable scenario."""
        return Scenario(
            name=name if name is not None else self.name,
            baseline=self.baseline,
            cost=self.cost,
            rigidity=self.rigidity,
            beta=self.beta,
            horizon=self.horizon,
            breakeven=breakeven,
        )

    def breakeven_row(self, name: str) -> BreakEvenScenario:
        for row in self.breakeven_catalog:
            if row.name == name:
                return row
        raise ValidationError(f"unknown break-even scenario {name!r}")


@cache
def load_default_preset() -> CalibrationPreset:
    """The shipped calibration, built at the first call: one shared, immutable value.

    The allocation-cost weights are a deliberate convention: equal category
    weights with a total-spending penalty anchored below the baseline total,
    sized so that the solved reform path shows an early effective-expenditure
    hump (the first-year adjustment outlay exceeds the long-run cost gain)
    before settling below its starting level.
    """
    baseline = ExpenditureVector(46.0, 21.0, 12.0, 21.0)
    cost = FiscalCostSpec(
        target=ExpenditureVector(40.0, 18.0, 18.0, 24.0),
        weights=(0.25, 0.25, 0.25, 0.25),
        total_weight=0.25,
        total_reference=97.0,
    )
    internal = {
        Category.TRANSFERS: (
            ("pensions", 72.0),
            ("social assistance programs", 18.0),
            ("other transfers", 10.0),
        ),
        Category.WAGES: (
            ("education sector wages", 38.0),
            ("health sector wages", 26.0),
            ("central administration wages", 36.0),
        ),
        Category.INVESTMENT: (
            ("infrastructure investment", 61.0),
            ("public housing", 17.0),
            ("other capital projects", 22.0),
        ),
    }
    return CalibrationPreset(
        name=DEFAULT_PRESET_NAME,
        baseline=baseline,
        flexibility=(0.9, 0.8, 0.5, 0.3),
        cost=cost,
        beta=0.96,
        horizon=50,
        gdp_shares=(13.2, 6.0, 3.4, 6.1),
        internal_composition=internal,
        breakeven_catalog=_BREAKEVEN_CATALOG,
    )


def rigidity_to_params(flexibility_score: float) -> Tuple[float, float]:
    """Map a flexibility score in [0, 1] to (gamma, eta) curvature parameters.

    Piecewise-linear through the four published anchors, clamped outside
    their score range, hence monotone nondecreasing in the score.
    """
    score = _check(flexibility_score, "flexibility score", "score")
    gamma = float(np.interp(score, _SCORE_ANCHORS, _GAMMA_ANCHORS))
    eta = float(np.interp(score, _SCORE_ANCHORS, _ETA_ANCHORS))
    return gamma, eta


def asymmetric_variant(rigidity: RigidityParams) -> RigidityParams:
    """Asymmetric rigidity derived from a symmetric set.

    Increases keep the symmetric quadratic curvature; reductions are scaled
    up by ``ASYMMETRIC_DOWN_FACTOR``. The factor is a convention of this
    package, not a published number, and reports flag it as such.
    """
    if rigidity.is_asymmetric:
        raise ValidationError("rigidity is already asymmetric")
    gamma, _ = rigidity.gamma_pair()
    return RigidityParams(
        eta=rigidity.eta,
        gamma_up=tuple(gamma),
        gamma_down=tuple(gamma * ASYMMETRIC_DOWN_FACTOR),
    )
