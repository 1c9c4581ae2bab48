"""Effective expenditure and the rise-then-fall transition shape.

During the reform, the budget total plus that year's adjustment outlay
(the effective expenditure) first rises above its starting level, peaks
within a few years, and then declines below it as outlays fade and the
leaner long-run allocation takes over. Scaling all rigidity parameters
up stretches the transition and deepens the early hump.
"""

import numpy as np

from fistrans import (
    ExpenditureVector,
    RigidityParams,
    Scenario,
    effective_expenditure,
    gradualism_metric,
    jshape_classify,
    jshape_condition,
    load_default_preset,
    solve,
    stage_cost_minimizer,
)

preset = load_default_preset()
scenario = preset.scenario()
report = solve(scenario)
g_eff = effective_expenditure(report.trajectory, scenario.rigidity)

print("effective expenditure (first twelve years):")
for t in range(12):
    bar = "#" * int(round(2 * (g_eff[t] - 95.0)))
    print(f"  t={t:2d}  {g_eff[t]:8.3f}  {bar}")

verdict = jshape_classify(g_eff)
print(f"\nclassified rise-then-fall: {verdict.is_j_shaped}")
print(f"peak at year {verdict.peak_index} ({verdict.peak_value:.3f}), terminal {verdict.terminal_value:.3f}")

# The rise condition: executing the intended reallocation at once would
# cost more than one year of the long-run cost gain.
outlay, gain, holds = jshape_condition(scenario)
print(f"\nintended reallocation outlay: {outlay:.2f}")
print(f"recurring long-run cost gain: {gain:.2f}")
print(f"outlay exceeds gain (rise condition): {holds}")

print("\nscaling every (gamma, eta) by c > 1 slows the transition:")
for scale in (1.0, 2.0, 4.0):
    params = RigidityParams(
        gamma=tuple(scale * g for g in preset.rigidity.gamma),
        eta=tuple(scale * e for e in preset.rigidity.eta),
    )
    scen = Scenario("scaled", preset.baseline, preset.cost, params, preset.beta, preset.horizon)
    rep = solve(scen)
    series = effective_expenditure(rep.trajectory, params)
    closure = gradualism_metric(rep.trajectory, ExpenditureVector.from_array(stage_cost_minimizer(scen)))
    print(
        f"  c={scale:3.1f}: year-1 closure {closure:.3f}, "
        f"peak {np.max(series):8.3f}, year-10 level {series[10]:8.3f}"
    )
