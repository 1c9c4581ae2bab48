"""When do administrative savings turn net-positive?

A reform cuts the adjustable slice of operating spending by a fraction
rho over H years in equal steps. Each year's cut produces gross savings
against the constant baseline but costs an adjustment outlay; the
break-even year is when cumulative net savings first reach zero. Higher
rigidity pushes that year out or past the reporting window entirely.
"""

import numpy as np

from fistrans import BreakEvenSpec, equal_step_path, load_default_preset, savings_series

preset = load_default_preset()

print("cataloged scenarios (reduction target, rigidity regime -> timing):")
print(f"  {'name':<5}{'rho':>5}{'H':>3}  {'regime':<8}{'t*':<5}{'cum net[0..5]':>14}")
for row in preset.breakeven_catalog:
    spec = row.spec
    series = savings_series(equal_step_path(spec), spec)
    print(
        f"  {row.name:<5}{spec.reduction_fraction:>5.2f}{spec.target_years:>3}  "
        f"{row.regime:<8}{series.breakeven_label:<5}{series.windowed_cumulative:>14.2f}"
    )

print("\nyear-by-year accounting for scenario B (medium rigidity):")
spec = preset.breakeven_row("B").spec
series = savings_series(equal_step_path(spec), spec)
print(f"  {'t':>2} {'gross':>9} {'outlay':>9} {'net':>9} {'cumulative':>11}")
for t in range(series.net.size):
    print(
        f"  {t:>2} {series.gross[t]:>9.3f} {series.adjustment[t]:>9.3f} "
        f"{series.net[t]:>9.3f} {series.cumulative[t]:>11.3f}"
    )

print("\nstretching the same 10% cut over more years:")
for years in (2, 3, 5, 8):
    spec = BreakEvenSpec(
        reduction_fraction=0.10, target_years=years, window=8, gamma=2.0, eta=0.15
    )
    series = savings_series(equal_step_path(spec), spec)
    print(
        f"  H={years}: break-even {series.breakeven_label:>4}, "
        f"cumulative over 8 years {series.windowed_cumulative:8.2f}"
    )

# The equal-step path is a convention. A planner-chosen reduction path is
# one composition away: let the transition solver pick the cuts for a
# one-category problem pulled toward the reduced level, then run the same
# savings accounting on its path.
from fistrans import ExpenditureVector, FiscalCostSpec, RigidityParams, Scenario, solve

spec = preset.breakeven_row("A").spec
reduced = spec.adjustable_base * (1.0 - spec.reduction_fraction)
one_category = Scenario(
    name="planner-path",
    baseline=ExpenditureVector(0.0, 0.0, 0.0, spec.adjustable_base),
    cost=FiscalCostSpec(
        target=ExpenditureVector(0.0, 0.0, 0.0, reduced),
        weights=(0.0, 0.0, 0.0, 2.0),
    ),
    rigidity=RigidityParams(
        gamma=(0.0, 0.0, 0.0, spec.gamma), eta=(0.0, 0.0, 0.0, spec.eta)
    ),
    beta=0.96,
    horizon=max(spec.window, spec.target_years) + 5,
)
report = solve(one_category)
planner_path = report.trajectory.values[: spec.window + 1, 3]
planner_series = savings_series(planner_path, spec)
equal_series = savings_series(equal_step_path(spec), spec)
print("\nscenario A under two path conventions:")
print(f"  equal-step : t* {equal_series.breakeven_label}, cumulative {equal_series.windowed_cumulative:.2f}")
print(f"  planner    : t* {planner_series.breakeven_label}, cumulative {planner_series.windowed_cumulative:.2f}")
print("  planner path:", np.round(planner_path, 2))
