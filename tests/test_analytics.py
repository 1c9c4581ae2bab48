import dataclasses
from pathlib import Path

import numpy as np
import pytest

from fistrans import (
    BreakEvenSpec,
    DeltaVector,
    ExpenditureVector,
    RigidityParams,
    Trajectory,
    ValidationError,
    baseline_gap,
    effective_expenditure,
    equal_step_path,
    jshape_classify,
    jshape_condition,
    load_default_preset,
    parse_scenario,
    savings_series,
)

from helpers import BASELINE, TABLE_ETA, TABLE_GAMMA, TARGETS

TABLE_PARAMS = RigidityParams(gamma=TABLE_GAMMA, eta=TABLE_ETA)

# Independent arithmetic for the six cataloged savings rows: with equal
# yearly cuts of rho*base/H, the per-step outlay is gamma/2*step^2 +
# eta/3*step^3 while the reform runs; gross savings ramp to rho*base and
# stay there. The expected pairs below are derived from those formulas
# alone, not from the code under test.
def _expected_row(rho, years, gamma, eta, base=100.0, window=5):
    step = rho * base / years
    outlay = 0.5 * gamma * step * step + (eta / 3.0) * step**3
    net = [0.0]
    for t in range(1, max(years, window) + 1):
        gross = step * min(t, years)
        net.append(gross - (outlay if t <= years else 0.0))
    cumulative = np.cumsum(net)
    breakeven = None
    for t in range(1, window + 1):
        if cumulative[t] >= 0.0:
            breakeven = t
            break
    return breakeven, float(cumulative[window])


EXPECTED_ROWS = {
    "A": _expected_row(0.10, 3, 0.8, 0.05),
    "B": _expected_row(0.10, 3, 2.0, 0.15),
    "C": _expected_row(0.10, 3, 4.0, 0.30),
    "D": _expected_row(0.20, 5, 0.8, 0.05),
    "E": _expected_row(0.20, 5, 2.0, 0.15),
    "F": _expected_row(0.20, 5, 4.0, 0.30),
}

REPORTED_ROWS = {
    "A": (3, 24.81),
    "B": (5, 1.11),
    "C": (None, -37.78),
    "D": (3, 22.67),
    "E": (None, -36.00),
    "F": (None, -132.00),
}


def test_hand_oracle_matches_reported_rows():
    # The independent oracle itself reproduces the published two-decimal values.
    for name, (t_star, cum) in EXPECTED_ROWS.items():
        exp_t, exp_cum = REPORTED_ROWS[name]
        assert t_star == exp_t
        assert cum == pytest.approx(exp_cum, abs=0.01)


def test_savings_series_reproduces_all_catalog_rows():
    preset = load_default_preset()
    for row in preset.breakeven_catalog:
        spec = row.spec
        series = savings_series(equal_step_path(spec), spec)
        exp_t, exp_cum = EXPECTED_ROWS[row.name]
        assert series.breakeven_year == exp_t
        assert series.windowed_cumulative == pytest.approx(exp_cum, abs=1e-9)


def test_savings_identity_and_prefix_sums():
    preset = load_default_preset()
    for row in preset.breakeven_catalog:
        spec = row.spec
        series = savings_series(equal_step_path(spec), spec)
        assert np.array_equal(series.net, series.gross - series.adjustment)
        assert np.allclose(series.cumulative, np.cumsum(series.net), atol=0)
        assert series.adjustment[0] == 0.0


def test_equal_step_path_ten_percent_over_three_years():
    spec = BreakEvenSpec(reduction_fraction=0.10, target_years=3, gamma=0.8, eta=0.05)
    path = equal_step_path(spec)
    expected = np.array([100.0, 100 - 10 / 3, 100 - 20 / 3, 90.0, 90.0, 90.0])
    assert np.allclose(path, expected, atol=1e-12)


def test_equal_step_path_twenty_percent_over_five_years():
    spec = BreakEvenSpec(reduction_fraction=0.20, target_years=5, gamma=0.8, eta=0.05)
    assert np.allclose(equal_step_path(spec), [100, 96, 92, 88, 84, 80], atol=1e-12)


def test_equal_step_path_meets_the_target_exactly():
    spec = BreakEvenSpec(reduction_fraction=0.35, target_years=4, window=8, gamma=1.0)
    path = equal_step_path(spec)
    assert path.size == 9
    assert path[4] == pytest.approx(65.0, abs=1e-12)
    assert np.all(path[4:] == path[4])


def test_savings_path_must_cover_window():
    spec = BreakEvenSpec(reduction_fraction=0.10, target_years=3, window=5, gamma=1.0)
    with pytest.raises(ValidationError):
        savings_series([100.0, 99.0, 98.0], spec)


def test_window_shorter_than_reform_reports_within_window():
    spec = BreakEvenSpec(reduction_fraction=0.20, target_years=5, window=3, gamma=0.8, eta=0.05)
    series = savings_series(equal_step_path(spec), spec)
    assert series.cumulative.size == 6
    assert series.breakeven_year == 3
    assert series.windowed_cumulative == pytest.approx(float(series.cumulative[3]), abs=0)


def test_breakeven_first_year_when_rigidity_is_negligible():
    spec = BreakEvenSpec(reduction_fraction=0.10, target_years=3, gamma=0.01, eta=0.0)
    series = savings_series(equal_step_path(spec), spec)
    assert series.breakeven_year == 1


def test_asymmetric_admin_block_prices_cuts_with_gamma_down():
    sym = BreakEvenSpec(reduction_fraction=0.10, target_years=3, gamma=3.0, eta=0.05)
    asym = BreakEvenSpec(
        reduction_fraction=0.10, target_years=3, eta=0.05, gamma_up=1.0, gamma_down=3.0
    )
    path = equal_step_path(sym)
    a = savings_series(path, sym)
    b = savings_series(path, asym)
    assert np.allclose(a.adjustment, b.adjustment, atol=1e-12)


def test_rigidity_scaling_monotonicity_on_fixed_path():
    preset = load_default_preset()
    for row in preset.breakeven_catalog:
        spec = row.spec
        path = equal_step_path(spec)
        base = savings_series(path, spec)
        doubled_spec = BreakEvenSpec(
            reduction_fraction=spec.reduction_fraction,
            target_years=spec.target_years,
            adjustable_base=spec.adjustable_base,
            window=spec.window,
            gamma=2.0 * spec.gamma,
            eta=2.0 * spec.eta,
        )
        doubled = savings_series(path, doubled_spec)
        moved = np.abs(np.diff(path)) > 0
        assert np.all(doubled.net[1:][moved] < base.net[1:][moved])
        assert doubled.windowed_cumulative < base.windowed_cumulative
        base_t = base.breakeven_year if base.breakeven_year is not None else np.inf
        doubled_t = doubled.breakeven_year if doubled.breakeven_year is not None else np.inf
        assert doubled_t >= base_t


def test_breakeven_label_formats():
    preset = load_default_preset()
    spec_a = preset.breakeven_row("A").spec
    spec_c = preset.breakeven_row("C").spec
    assert savings_series(equal_step_path(spec_a), spec_a).breakeven_label == "3"
    assert savings_series(equal_step_path(spec_c), spec_c).breakeven_label == "> 5"


def test_effective_expenditure_constant_trajectory():
    traj = Trajectory(np.tile(BASELINE.as_array(), (6, 1)))
    assert np.allclose(effective_expenditure(traj, TABLE_PARAMS), 100.0, atol=0)


def test_effective_expenditure_adds_first_year_outlay():
    values = np.array([[46, 21, 12, 21], [45, 21, 12, 21]], dtype=float)
    g_eff = effective_expenditure(Trajectory(values), TABLE_PARAMS)
    # A one-point transfer cut costs 4/2 + 1.8/3 = 2.6 on top of the 99 total.
    assert g_eff[0] == pytest.approx(100.0, abs=1e-12)
    assert g_eff[1] == pytest.approx(101.6, abs=1e-12)


def test_effective_expenditure_frictionless_equals_totals():
    rng = np.random.default_rng(41)
    values = rng.uniform(5, 40, (8, 4))
    traj = Trajectory(values)
    frictionless = RigidityParams(gamma=(0, 0, 0, 0), eta=(0, 0, 0, 0))
    assert np.array_equal(effective_expenditure(traj, frictionless), traj.totals())


PLOTTED_TRANSITION = [1.00, 1.06, 1.10, 1.08, 1.05, 1.03, 1.01, 1.00, 0.99, 0.98, 0.97]


def test_jshape_classify_plotted_transition_path():
    verdict = jshape_classify(PLOTTED_TRANSITION)
    assert verdict.is_j_shaped
    assert verdict.peak_index == 2
    assert verdict.peak_value == pytest.approx(1.10)
    assert verdict.terminal_value == pytest.approx(0.97)


def test_jshape_classify_monotone_decline_is_not_j():
    assert not jshape_classify([1.00, 0.99, 0.98]).is_j_shaped


def test_jshape_classify_no_post_peak_decline_is_not_j():
    assert not jshape_classify([1.00, 1.05, 1.10]).is_j_shaped


def test_jshape_classify_needs_three_points():
    with pytest.raises(ValidationError):
        jshape_classify([1.0, 2.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: jshape_classify([1.0, np.inf, 0.5]), "series contains non-finite values"),
        (lambda: savings_series([100.0], BreakEvenSpec(0.1, 3, window=1, gamma=1.0)), "length >= 2"),
        (lambda: savings_series([100.0, np.nan, 90.0], BreakEvenSpec(0.1, 2, window=2, gamma=1.0)), "path contains non-finite"),
    ],
)
def test_series_inputs_are_checked(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_jshape_condition_examples():
    scen = load_default_preset().scenario()
    outlay, gain, holds = jshape_condition(scen)
    assert (round(outlay, 4), round(gain, 4), holds) == (363.7116, 12.15, True)
    # Without adjustment costs the one-year move costs nothing.
    free = dataclasses.replace(scen, rigidity=RigidityParams(gamma=(0.0,) * 4, eta=(0.0,) * 4))
    assert jshape_condition(free) == (0.0, gain, False)
    # A baseline one ulp from the anchor: both sides are roundoff, so the condition fails.
    at_anchor = parse_scenario(Path(__file__).with_name("baseline_at_anchor.scn").read_text(encoding="utf-8"))
    outlay, gain, holds = jshape_condition(at_anchor)
    assert outlay < 1e-20 and gain == 0.0 and holds is False


def test_baseline_gap_examples():
    assert baseline_gap(BASELINE, BASELINE) == DeltaVector(0, 0, 0, 0)
    assert baseline_gap(ExpenditureVector(47, 21, 12, 21), BASELINE) == DeltaVector(1, 0, 0, 0)
    assert baseline_gap(TARGETS, BASELINE) == DeltaVector(-6, -3, 6, 3)


def test_rise_condition_implies_peak_after_start():
    from fistrans import (
        FiscalCostSpec,
        Scenario,
        solve,
    )

    rng = np.random.default_rng(5150)
    checked = 0
    for i in range(12):
        scale = rng.uniform(0.5, 3.0)
        scen = Scenario(
            f"rand-{i}",
            BASELINE,
            FiscalCostSpec(
                target=TARGETS,
                weights=(rng.uniform(0.1, 0.6),) * 4,
                total_weight=rng.uniform(0.05, 0.5),
                total_reference=rng.uniform(94.0, 99.5),
            ),
            RigidityParams(
                gamma=tuple(scale * g for g in TABLE_GAMMA),
                eta=tuple(scale * e for e in TABLE_ETA),
            ),
            beta=0.96,
            horizon=40,
        )
        report = solve(scen)
        assert report.converged
        if not jshape_condition(scen)[2]:
            continue
        checked += 1
        verdict = jshape_classify(effective_expenditure(report.trajectory, scen.rigidity))
        assert verdict.peak_index >= 1
    assert checked >= 8  # the family is built to trigger the condition
