"""Seeded workload generators, the operations they run, and per-op checks.

Every workload is a fixed list of operations built from ``--seed`` before
any timing starts; the program only ever sees the generated inputs. Ops call
fistrans through module attributes (``ft.solve``, ``cli.run_cli``) at call
time, so the tracer's wrappers see them.

Checks never trust the solver's ``converged`` flag alone. A verdict records
whether the program claimed success, so a claimed success that fails a check
(a silent non-certification) is told apart from an honest failure.
"""

from __future__ import annotations

import dataclasses
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

import fistrans as ft
import fistrans.cli as cli

EULER_TOL = 1e-6
BOUND_TOL = 1e-9
# CSV cells carry six decimals, so each of T, W, I, F and total is off by up
# to 5e-7 and their sum identity can miss by 5 * 5e-7.
CSV_SUM_TOL = 2.5e-6 + 1e-12
CSV_CELL_TOL = 5e-7 + 1e-12
CSV_HEADER = "t,T,W,I,F,total,phi,G_eff,S_gross,S_net,cum_net"


@dataclasses.dataclass(frozen=True)
class Verdict:
    ok: bool
    claimed: bool  # the program itself reported success
    reason: str = ""


@dataclasses.dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


# -- checks ------------------------------------------------------------------


def check_unbounded(out: Tuple[ft.Scenario, ft.SolveReport]) -> Verdict:
    scenario, report = out
    worst = 0.0
    if scenario.horizon >= 2:
        worst = float(np.max(np.abs(ft.euler_residuals(report.trajectory, scenario))))
    ok = report.converged and worst <= EULER_TOL
    return Verdict(ok, report.converged, f"converged={report.converged} max|euler residual|={worst:.3g}")


def check_bounded(out: Tuple[ft.Scenario, ft.SolveReport]) -> Verdict:
    scenario, report = out
    changes = report.trajectory.deltas()[1:]
    lo, hi = scenario.bounds_arrays()
    excess = float(max(np.max(lo - changes), np.max(changes - hi), 0.0))
    ok = report.converged and excess <= BOUND_TOL
    return Verdict(ok, report.converged, f"converged={report.converged} bound excess={excess:.3g}")


def check_simulate(out: Tuple[ft.Scenario, str, int, str]) -> Verdict:
    scenario, text, code, stdout = out
    claimed = code == 0
    problems = [] if claimed else [f"exit code {code}"]
    lines = stdout.splitlines()
    rows = [line.split(",") for line in lines[lines.index(CSV_HEADER) + 1:]] if CSV_HEADER in lines else []
    if len(rows) != scenario.horizon + 1:
        problems.append(f"{len(rows)} CSV rows for horizon {scenario.horizon}")
    for row in rows:
        parts = [float(cell) for cell in row[1:6]]
        if abs(sum(parts[:4]) - parts[4]) > CSV_SUM_TOL:
            problems.append(f"row {row[0]}: total {parts[4]} != T+W+I+F {sum(parts[:4])}")
            break
    if rows:
        first = np.array([float(cell) for cell in rows[0][1:5]])
        if np.max(np.abs(first - scenario.baseline.as_array())) > CSV_CELL_TOL:
            problems.append(f"row 0 {first.tolist()} is not the baseline")
    if ft.serialize_scenario(ft.parse_scenario(text)) != text:
        problems.append("scenario text does not round-trip")
    return Verdict(not problems, claimed, "; ".join(problems))


# -- generators --------------------------------------------------------------


def _preset_scenario(horizon: int, bound: float = 0.0) -> ft.Scenario:
    scenario = ft.load_default_preset().scenario(name=f"preset-T{horizon}")
    bounds = None if bound == 0.0 else ((-bound, bound),) * 4
    return dataclasses.replace(scenario, horizon=horizon, delta_bounds=bounds)


def _preset_op(horizon: int, bound: float = 0.0) -> Op:
    def run():
        scenario = _preset_scenario(horizon, bound)
        return scenario, ft.solve(scenario)

    kind = "unbounded" if bound == 0.0 else f"bounded{bound:g}"
    return Op(f"preset-{kind}-T{horizon}", run, check_unbounded if bound == 0.0 else check_bounded)


def _bounded_op(scenario: ft.Scenario) -> Op:
    return Op(scenario.name, lambda: (scenario, ft.solve(scenario)), check_bounded)


def random_bounded_scenario(rng: np.random.Generator, index: int, horizon: int) -> ft.Scenario:
    """A bounded scenario drawn from the whole valid range: independent baseline
    and target, curvatures down to zero, change limits of 0.2 to 3 a year.
    Odd indices are asymmetric."""
    eta = tuple(rng.uniform(0.0, 2.0, 4))
    if index % 2 == 1:
        rigidity = ft.RigidityParams(eta=eta, gamma_up=tuple(rng.uniform(0.0, 5.0, 4)), gamma_down=tuple(rng.uniform(0.0, 8.0, 4)))
    else:
        rigidity = ft.RigidityParams(gamma=tuple(rng.uniform(0.0, 5.0, 4)), eta=eta)
    lo = -rng.uniform(0.2, 3.0, 4)
    hi = rng.uniform(0.2, 3.0, 4)
    return ft.Scenario(
        name=f"bounded-{index}",
        baseline=ft.ExpenditureVector.from_array(rng.uniform(5.0, 40.0, 4)),
        cost=ft.FiscalCostSpec(
            target=ft.ExpenditureVector.from_array(rng.uniform(5.0, 40.0, 4)),
            weights=tuple(rng.uniform(0.05, 2.0, 4)),
            total_weight=float(rng.uniform(0.0, 1.0)),
            total_reference=float(rng.uniform(80.0, 120.0)),
        ),
        rigidity=rigidity,
        beta=float(rng.uniform(0.8, 0.99)),
        horizon=horizon,
        delta_bounds=tuple((float(a), float(b)) for a, b in zip(lo, hi)),
    )


def random_reform(rng: np.random.Generator, index: int, horizon: int) -> ft.Scenario:
    """A total-neutral reform; odd indices are asymmetric, every other pair
    carries a [breakeven] block."""
    baseline = rng.uniform(10.0, 40.0, 4)
    shift = rng.uniform(-5.0, 5.0, 4)
    shift -= shift.mean()
    eta = tuple(rng.uniform(0.0, 2.0, 4))
    gamma = rng.uniform(0.5, 5.0, 4)
    if index % 2 == 1:
        rigidity = ft.RigidityParams(eta=eta, gamma_up=tuple(gamma), gamma_down=tuple(gamma * rng.uniform(1.0, 1.6, 4)))
    else:
        rigidity = ft.RigidityParams(gamma=tuple(gamma), eta=eta)
    breakeven = None
    if (index // 2) % 2 == 1:
        breakeven = ft.BreakEvenSpec(
            reduction_fraction=float(rng.uniform(0.05, 0.3)),
            target_years=int(rng.integers(1, 8)),
            adjustable_base=float(rng.uniform(50.0, 150.0)),
            window=int(rng.integers(3, 9)),
            gamma=float(rng.uniform(0.0, 4.0)),
            eta=float(rng.uniform(0.0, 0.5)),
        )
    return ft.Scenario(
        name=f"reform-{index}",
        baseline=ft.ExpenditureVector.from_array(baseline),
        cost=ft.FiscalCostSpec(
            target=ft.ExpenditureVector.from_array(baseline + shift),
            weights=tuple(rng.uniform(0.2, 1.5, 4)),
            total_weight=float(rng.uniform(0.0, 0.5)),
            total_reference=float(baseline.sum() + rng.uniform(-3.0, 3.0)),
        ),
        rigidity=rigidity,
        beta=0.96,
        horizon=horizon,
        breakeven=breakeven,
    )


def _simulate_op(scenario: ft.Scenario, path: Path) -> Op:
    def run():
        text = ft.serialize_scenario(scenario)
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run_cli(["simulate", str(path), "--out", "-"])
        return scenario, text, code, out.getvalue()

    return Op(f"simulate-{scenario.name}", run, check_simulate)


# -- workloads ---------------------------------------------------------------


def long_horizon(seed: int, workdir: Path, horizons: Tuple[int, ...] = (200, 500, 1000)) -> List[Op]:
    """The shipped preset, unbounded and symmetric, once per horizon in seeded order."""
    order = np.random.default_rng(seed).permutation(len(horizons))
    return [_preset_op(horizons[i]) for i in order]


def bounded(
    seed: int,
    workdir: Path,
    preset_horizons: Tuple[int, ...] = (50, 300),
    n_random: int = 100,
) -> List[Op]:
    """Preset solves under +-0.5 change limits plus seeded random bounded scenarios.

    The random scenarios' horizons step evenly through 2..40 instead of being
    drawn, so the amount of work per pass varies less from seed to seed.
    """
    rng = np.random.default_rng(seed)
    ops = [_preset_op(T, bound=0.5) for T in preset_horizons]
    horizons = [2 + (i * 39) // max(n_random, 1) for i in range(n_random)]
    ops += [_bounded_op(random_bounded_scenario(rng, i, T)) for i, T in enumerate(horizons)]
    return ops


def batch(seed: int, workdir: Path, n: int = 100, horizon: int = 25) -> List[Op]:
    """Seeded reforms, each through serialize_scenario and the in-process CLI."""
    rng = np.random.default_rng(seed)
    path = workdir / "scenario.scn"
    return [_simulate_op(random_reform(rng, i, horizon), path) for i in range(n)]


WORKLOADS = {"long_horizon": long_horizon, "bounded": bounded, "batch": batch}
