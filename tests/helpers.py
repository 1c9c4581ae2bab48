"""Shared builders for the test suite."""

from __future__ import annotations

import ast
import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import fistrans
from fistrans import (
    BreakEvenSpec,
    ExpenditureVector,
    FiscalCostSpec,
    RigidityParams,
    Scenario,
    load_default_preset,
)
from fistrans.calibration import asymmetric_variant

TABLE_GAMMA = (4.0, 3.5, 1.5, 1.0)
TABLE_ETA = (1.8, 1.5, 0.6, 0.4)
BASELINE = ExpenditureVector(46.0, 21.0, 12.0, 21.0)
TARGETS = ExpenditureVector(40.0, 18.0, 18.0, 24.0)
# Change limits of every kind: symmetric, lopsided, and one category frozen.
MIXED_LIMITS = ((-0.5, 0.5), (-0.2, 0.8), (-1.0, 0.3), (0.0, 0.0))


def preset_scenario(horizon: int, bound: float | None = None, asymmetric: bool = False) -> Scenario:
    """The shipped preset at ``horizon``; with change limits of +-``bound`` in
    every category when given, and the asymmetric variant's rigidity when asked."""
    scen = load_default_preset().scenario()
    rigidity = asymmetric_variant(scen.rigidity) if asymmetric else scen.rigidity
    bounds = None if bound is None else ((-bound, bound),) * 4
    return dataclasses.replace(scen, horizon=horizon, delta_bounds=bounds, rigidity=rigidity)


def scalar_scenario(gamma: float, eta: float, horizon: int = 1, beta: float = 0.9) -> Scenario:
    """One active category: start at 0, quadratic pull toward 1."""
    return Scenario(
        name="scalar",
        baseline=ExpenditureVector(0.0, 0.0, 0.0, 0.0),
        cost=FiscalCostSpec(target=ExpenditureVector(1.0, 0.0, 0.0, 0.0), weights=(1.0, 0.0, 0.0, 0.0)),
        rigidity=RigidityParams(gamma=(gamma, 0.0, 0.0, 0.0), eta=(eta, 0.0, 0.0, 0.0)),
        beta=beta,
        horizon=horizon,
    )


def random_scenario(rng: np.random.Generator, with_bounds: bool = False, with_breakeven: bool = False) -> Scenario:
    """A validation-passing scenario with randomized fields (for round trips)."""
    baseline = ExpenditureVector.from_array(rng.uniform(5.0, 40.0, 4))
    target = ExpenditureVector.from_array(rng.uniform(5.0, 40.0, 4))
    weights = tuple(rng.uniform(0.05, 2.0, 4))
    if rng.random() < 0.5:
        rigidity = RigidityParams(gamma=tuple(rng.uniform(0.0, 5.0, 4)), eta=tuple(rng.uniform(0.0, 2.0, 4)))
    else:
        rigidity = RigidityParams(
            eta=tuple(rng.uniform(0.0, 2.0, 4)),
            gamma_up=tuple(rng.uniform(0.0, 5.0, 4)),
            gamma_down=tuple(rng.uniform(0.0, 8.0, 4)),
        )
    bounds = None
    if with_bounds:
        lo = -rng.uniform(0.2, 3.0, 4)
        hi = rng.uniform(0.2, 3.0, 4)
        bounds = tuple((float(a), float(b)) for a, b in zip(lo, hi))
    breakeven = None
    if with_breakeven:
        breakeven = BreakEvenSpec(
            reduction_fraction=float(rng.uniform(0.05, 0.5)),
            target_years=int(rng.integers(1, 8)),
            adjustable_base=float(rng.uniform(50.0, 150.0)),
            window=int(rng.integers(3, 9)),
            gamma=float(rng.uniform(0.0, 4.0)),
            eta=float(rng.uniform(0.0, 0.5)),
        )
    return Scenario(
        name=f"random-{rng.integers(1_000_000)}",
        baseline=baseline,
        cost=FiscalCostSpec(
            target=target,
            weights=weights,
            total_weight=float(rng.uniform(0.0, 1.0)),
            total_reference=float(rng.uniform(80.0, 120.0)),
        ),
        rigidity=rigidity,
        beta=float(rng.uniform(0.8, 0.99)),
        horizon=int(rng.integers(2, 40)),
        delta_bounds=bounds,
        breakeven=breakeven,
    )


def reform_scenario(
    rng: np.random.Generator,
    horizon: int = 30,
    beta: float = 0.96,
) -> Scenario:
    """A randomized reform with strictly positive quadratic rigidity everywhere.

    Baseline and target share the same total and no total penalty applies,
    so the path interpolates componentwise and stays positive.
    """
    baseline = rng.uniform(10.0, 40.0, 4)
    shift = rng.uniform(-5.0, 5.0, 4)
    shift -= shift.mean()  # keep the reform total-neutral
    if np.max(np.abs(shift)) < 0.5:
        shift[0] += 1.0
        shift[1] -= 1.0
    target = baseline + shift
    return Scenario(
        name="reform",
        baseline=ExpenditureVector.from_array(baseline),
        cost=FiscalCostSpec(target=ExpenditureVector.from_array(target), weights=tuple(rng.uniform(0.2, 1.5, 4))),
        rigidity=RigidityParams(gamma=tuple(rng.uniform(0.5, 5.0, 4)), eta=tuple(rng.uniform(0.0, 2.0, 4))),
        beta=beta,
        horizon=horizon,
    )


def fresh_python(code: str, *args: str):
    """Run ``code`` with ``args`` in a new interpreter that imports fistrans
    from this checkout; what it prints, read as a Python literal."""
    src = str(Path(fistrans.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return ast.literal_eval(result.stdout.strip())
