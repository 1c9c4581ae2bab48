import dataclasses

import numpy as np
import pytest

from fistrans import (
    BreakEvenSpec,
    CATEGORIES,
    Category,
    DeltaVector,
    ExpenditureVector,
    FiscalCostSpec,
    RigidityParams,
    Scenario,
    SolverConfig,
    Trajectory,
    ValidationError,
    delta,
    serialize_scenario,
    total,
)

from helpers import BASELINE, TARGETS


def test_category_order_and_labels():
    assert [c.value for c in CATEGORIES] == ["T", "W", "I", "F"]
    assert [c.key for c in CATEGORIES] == ["transfers", "wages", "investment", "operating"]


def test_total_baseline_shares():
    assert total(BASELINE) == 100.0


def test_total_zero_vector():
    assert total(ExpenditureVector(0, 0, 0, 0)) == 0.0


def test_total_reform_targets():
    assert total(TARGETS) == 100.0


def test_delta_identity_is_zero():
    assert delta(BASELINE, BASELINE) == DeltaVector(0, 0, 0, 0)


def test_delta_targets_minus_baseline():
    assert delta(TARGETS, BASELINE) == DeltaVector(-6.0, -3.0, 6.0, 3.0)


def test_delta_unit_step():
    bumped = ExpenditureVector(47, 21, 12, 21)
    assert delta(bumped, BASELINE) == DeltaVector(1.0, 0.0, 0.0, 0.0)


def test_total_equals_component_sum_on_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(200):
        arr = rng.uniform(0.0, 100.0, 4)
        x = ExpenditureVector.from_array(arr)
        assert total(x) == pytest.approx(arr.sum(), abs=1e-12)


def test_delta_additivity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b, c = (ExpenditureVector.from_array(rng.uniform(0, 50, 4)) for _ in range(3))
        lhs = delta(a, b).as_array() + delta(b, c).as_array()
        assert np.allclose(lhs, delta(a, c).as_array(), atol=1e-12)


def test_expenditure_vector_rejects_negative():
    with pytest.raises(ValidationError):
        ExpenditureVector(-0.1, 1, 1, 1)


def test_expenditure_vector_rejects_nan():
    with pytest.raises(ValidationError):
        ExpenditureVector(float("nan"), 1, 1, 1)


def test_vector_accessors():
    assert BASELINE.get(Category.INVESTMENT) == 12.0
    assert np.array_equal(BASELINE.as_array(), np.array([46.0, 21.0, 12.0, 21.0]))


def test_rigidity_requires_exactly_one_mode():
    with pytest.raises(ValidationError):
        RigidityParams(eta=(0, 0, 0, 0))
    with pytest.raises(ValidationError):
        RigidityParams(gamma=(1, 1, 1, 1), eta=(0, 0, 0, 0), gamma_up=(1, 1, 1, 1), gamma_down=(1, 1, 1, 1))
    with pytest.raises(ValidationError):
        RigidityParams(eta=(0, 0, 0, 0), gamma_up=(1, 1, 1, 1))


def test_vectors_share_a_base_but_keep_their_messages():
    with pytest.raises(ValidationError, match="expenditure vector needs 4 entries"):
        ExpenditureVector.from_array([1.0, 2.0])
    with pytest.raises(ValidationError, match="delta vector needs 4 entries"):
        DeltaVector.from_array([1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValidationError, match=r"expenditure\[wages\] must be nonnegative"):
        ExpenditureVector(1, -1, 1, 1)
    with pytest.raises(ValidationError, match=r"delta\[operating\] must be finite"):
        DeltaVector(0, 0, 0, np.inf)
    assert DeltaVector(-1, 0, 0, 0).transfers == -1.0
    assert ExpenditureVector(1, 2, 3, 4) != DeltaVector(1, 2, 3, 4)


def test_rigidity_gamma_pair_in_both_modes():
    sym = RigidityParams(gamma=(4, 3.5, 1.5, 1), eta=(0, 0, 0, 0))
    up, down = sym.gamma_pair()
    assert np.array_equal(up, [4.0, 3.5, 1.5, 1.0]) and np.array_equal(down, up)
    asym = RigidityParams(eta=(0, 0, 0, 0), gamma_up=(1, 2, 3, 4), gamma_down=(5, 6, 7, 8))
    up, down = asym.gamma_pair()
    assert np.array_equal(up, [1.0, 2.0, 3.0, 4.0]) and np.array_equal(down, [5.0, 6.0, 7.0, 8.0])
    # The pair is derived, not stored: the fields keep the mode and replace() still works.
    for p in (sym, asym):
        bumped = dataclasses.replace(p, eta=(0.1, 0.2, 0.3, 0.4))
        assert bumped.eta == (0.1, 0.2, 0.3, 0.4)
        assert bumped.is_asymmetric == p.is_asymmetric
        assert all(np.array_equal(a, b) for a, b in zip(bumped.gamma_pair(), p.gamma_pair()))
    assert sym.gamma_up is None and asym.gamma is None


def test_breakeven_gamma_pair_in_both_modes():
    sym = BreakEvenSpec(reduction_fraction=0.1, target_years=3, gamma=0.8, eta=0.05)
    assert sym.gamma_pair() == (0.8, 0.8)
    asym = BreakEvenSpec(reduction_fraction=0.1, target_years=3, gamma_up=0.8, gamma_down=1.2, eta=0.05)
    assert asym.gamma_pair() == (0.8, 1.2)
    for spec in (sym, asym):
        bumped = dataclasses.replace(spec, eta=0.3)
        assert bumped.eta == 0.3
        assert bumped.is_asymmetric == spec.is_asymmetric
        assert bumped.gamma_pair() == spec.gamma_pair()
    assert sym.gamma_up is None and asym.gamma is None


def test_rigidity_rejects_negative_curvature():
    with pytest.raises(ValidationError):
        RigidityParams(gamma=(-1, 0, 0, 0), eta=(0, 0, 0, 0))
    for fields in (
        dict(gamma=(1, 1, 1, 1), eta=(0, 0, -0.5, 0)),
        dict(gamma_up=(1, 1, 1, 1), gamma_down=(1, 1, 1, -2)),
        dict(gamma_up=(1, -1, 1, 1), gamma_down=(1, 1, 1, 1)),
        dict(gamma=(1, 1, np.nan, 1)),
    ):
        with pytest.raises(ValidationError):
            RigidityParams(**fields)


def test_cost_spec_requires_positive_weight():
    with pytest.raises(ValidationError):
        FiscalCostSpec(target=TARGETS, weights=(0, 0, 0, 0), total_weight=0.0)


def test_cost_spec_total_reference_defaults_to_target_total():
    spec = FiscalCostSpec(target=TARGETS, weights=(1, 1, 1, 1))
    assert spec.total_reference == 100.0


def test_scenario_rejects_out_of_range_discount():
    with pytest.raises(ValidationError, match="discount factor out of range"):
        Scenario(
            name="bad",
            baseline=BASELINE,
            cost=FiscalCostSpec(target=TARGETS),
            rigidity=RigidityParams(gamma=(1, 1, 1, 1)),
            beta=1.2,
            horizon=10,
        )


def test_scenario_bounds_must_admit_zero():
    with pytest.raises(ValidationError, match="admit zero"):
        Scenario(
            name="bad-bounds",
            baseline=BASELINE,
            cost=FiscalCostSpec(target=TARGETS),
            rigidity=RigidityParams(gamma=(1, 1, 1, 1)),
            beta=0.9,
            horizon=10,
            delta_bounds=((0.5, 1.0), (-1, 1), (-1, 1), (-1, 1)),
        )


def test_scenario_normalizes_unbounded_bounds_to_none():
    scen = Scenario(
        name="inf-bounds",
        baseline=BASELINE,
        cost=FiscalCostSpec(target=TARGETS),
        rigidity=RigidityParams(gamma=(1, 1, 1, 1)),
        beta=0.9,
        horizon=10,
        delta_bounds=((-np.inf, np.inf),) * 4,
    )
    assert scen.delta_bounds is None


ONE_SIDED = ((-0.5, np.inf), (-np.inf, 1.0), (-np.inf, np.inf), (-np.inf, np.inf))
FROZEN = ((0.0, 0.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))


@pytest.mark.parametrize(
    "bounds, stored",
    [(None, None), (ONE_SIDED, ONE_SIDED), (FROZEN, FROZEN), (((-np.inf, np.inf),) * 4, None)],
    ids=["none", "one-sided", "frozen", "all-infinite"],
)
def test_bounds_arrays_expand_the_limits(bounds, stored):
    scen = Scenario(
        name="limits",
        baseline=BASELINE,
        cost=FiscalCostSpec(target=TARGETS),
        rigidity=RigidityParams(gamma=(1, 1, 1, 1)),
        beta=0.9,
        horizon=10,
        delta_bounds=bounds,
    )
    assert scen.delta_bounds == stored
    lo, hi = scen.bounds_arrays()
    expected = np.array(stored or ((-np.inf, np.inf),) * 4)
    np.testing.assert_array_equal(lo, expected[:, 0])
    np.testing.assert_array_equal(hi, expected[:, 1])
    # A scenario file holds only the finite limits; a category without one has no section.
    blocks = []
    for cat, (low, high) in zip(CATEGORIES, expected.tolist()):
        keys = [f"{key} = {value!r}\n" for key, value in (("min_change", low), ("max_change", high)) if np.isfinite(value)]
        if keys:
            blocks.append(f"[bounds.{cat.key}]\n" + "".join(keys))
    text = serialize_scenario(scen)
    assert text.count("[bounds.") == len(blocks)
    assert "\n".join(blocks) in text


def test_breakeven_spec_rejects_degenerate_fraction():
    for rho in (0.0, 1.0, -0.2, np.nan, np.inf):
        with pytest.raises(ValidationError):
            BreakEvenSpec(reduction_fraction=rho, target_years=3, gamma=1.0)


def test_breakeven_spec_defaults():
    spec = BreakEvenSpec(reduction_fraction=0.1, target_years=3, gamma=0.8, eta=0.05)
    assert spec.adjustable_base == 100.0
    assert spec.window == 5
    assert not spec.is_asymmetric


def test_trajectory_shape_and_derived_series():
    values = np.array([[46, 21, 12, 21], [45, 21, 12, 21], [45, 21, 12, 21]], dtype=float)
    traj = Trajectory(values)
    assert traj.horizon == 2
    deltas = traj.deltas()
    assert np.array_equal(deltas[0], np.zeros(4))
    assert deltas[1, 0] == -1.0
    assert np.array_equal(traj.totals(), np.array([100.0, 99.0, 99.0]))
    assert traj.at(0) == BASELINE


def test_trajectory_rejects_single_row_and_negatives():
    with pytest.raises(ValidationError):
        Trajectory(np.zeros((1, 4)))
    with pytest.raises(ValidationError):
        Trajectory(np.array([[1.0, 1, 1, 1], [-1e-3, 1, 1, 1]]))


def test_trajectory_clips_numerical_zeros():
    traj = Trajectory(np.array([[1.0, 1, 1, 1], [-1e-12, 1, 1, 1]]))
    assert traj.values[1, 0] == 0.0
    assert not traj.values.flags.writeable


def _scenario(**changes):
    fields = dict(
        name="s",
        baseline=BASELINE,
        cost=FiscalCostSpec(target=TARGETS),
        rigidity=RigidityParams(gamma=(1, 1, 1, 1)),
        beta=0.9,
        horizon=10,
    )
    return Scenario(**{**fields, **changes})


def _breakeven(**changes):
    return BreakEvenSpec(**{"reduction_fraction": 0.1, "target_years": 3, "gamma": 1.0, **changes})


# One row per field check: (id, constructor call, message it raises).
_FIELD_CHECKS = [
    ("weights-length", lambda: FiscalCostSpec(target=TARGETS, weights=(1, 1, 1)), "weights must have exactly 4 entries"),
    ("eta-length", lambda: RigidityParams(gamma=(1, 1, 1, 1), eta=(0, 0, 0, 0, 0)), "eta must have exactly 4 entries"),
    ("weights-nan", lambda: FiscalCostSpec(target=TARGETS, weights=(1, np.nan, 1, 1)), r"weights\[wages\] must be finite"),
    ("total_weight", lambda: FiscalCostSpec(target=TARGETS, total_weight=-1.0), "total_weight must be nonnegative"),
    ("total_reference", lambda: FiscalCostSpec(target=TARGETS, total_reference=np.inf), "total_reference must be finite"),
    ("trajectory-shape", lambda: Trajectory(np.zeros((3, 3))), "trajectory must have shape"),
    ("trajectory-nan", lambda: Trajectory(np.array([[1.0, 1, 1, 1], [np.nan, 1, 1, 1]])), "non-finite"),
    ("target_years", lambda: _breakeven(target_years=0), "target_years must be an integer >= 1"),
    ("target_years-fractional", lambda: _breakeven(target_years=2.7), "target_years must be an integer >= 1, got 2.7"),
    ("target_years-inf", lambda: _breakeven(target_years=np.inf), "target_years must be an integer"),
    ("adjustable_base", lambda: _breakeven(adjustable_base=0.0), "adjustable_base must be positive"),
    ("adjustable_base-inf", lambda: _breakeven(adjustable_base=np.inf), "adjustable_base must be finite"),
    ("core_floor", lambda: _breakeven(core_floor=-1.0), "core_floor must be nonnegative"),
    ("window", lambda: _breakeven(window=0), "window must be an integer >= 1"),
    ("window-fractional", lambda: _breakeven(window=5.5), "window must be an integer >= 1, got 5.5"),
    ("window-nan", lambda: _breakeven(window=np.nan), "window must be an integer"),
    ("breakeven-eta", lambda: _breakeven(eta=-0.1), "eta must be nonnegative"),
    ("breakeven-gamma", lambda: _breakeven(gamma=-1.0), "gamma must be nonnegative"),
    ("breakeven-gamma_up", lambda: _breakeven(gamma=None, gamma_up=-1.0, gamma_down=1.0), "gamma_up must be nonnegative"),
    ("breakeven-gamma_down", lambda: _breakeven(gamma=None, gamma_up=1.0, gamma_down=np.inf), "gamma_down must be finite"),
    ("breakeven-both-forms", lambda: _breakeven(gamma_up=1.0, gamma_down=1.0), "either symmetric"),
    ("breakeven-half-pair", lambda: _breakeven(gamma=None, gamma_up=1.0), "requires both gamma_up and gamma_down"),
    ("horizon", lambda: _scenario(horizon=0), "horizon must be an integer >= 1"),
    ("horizon-fractional", lambda: _scenario(horizon=2.5), "horizon must be an integer >= 1, got 2.5"),
    ("horizon-inf", lambda: _scenario(horizon=np.inf), "horizon must be an integer"),
    ("horizon-nan", lambda: _scenario(horizon=np.nan), "horizon must be an integer"),
    ("horizon-text", lambda: _scenario(horizon="ten"), "horizon must be a number"),
    # float(True) is 1.0, but a boolean is no count, amount or vector entry.
    ("horizon-bool", lambda: _scenario(horizon=True), "horizon must be a number, got True"),
    ("max_iterations-bool", lambda: SolverConfig(max_iterations=True), "max_iterations must be a number, got True"),
    ("core_floor-bool", lambda: _breakeven(core_floor=np.False_), "core_floor must be a number"),
    ("weights-bool", lambda: FiscalCostSpec(target=TARGETS, weights=(1, True, 1, 1)), r"weights\[wages\] must be a number"),
    ("beta-nan", lambda: _scenario(beta=np.nan), "discount factor out of range"),
    ("delta_bounds-count", lambda: _scenario(delta_bounds=((-1, 1),) * 3), "delta_bounds needs 4"),
    ("delta_bounds-nan", lambda: _scenario(delta_bounds=((-1, 1), (np.nan, 1), (-1, 1), (-1, 1))), "contains NaN"),
    ("delta_bounds-triple", lambda: _scenario(delta_bounds=((-1, 0, 1),) * 4), r"\(min, max\) pairs"),
    ("delta_bounds-scalar", lambda: _scenario(delta_bounds=(1.0, 1.0, 1.0, 1.0)), r"\(min, max\) pairs"),
    ("delta_bounds-number", lambda: _scenario(delta_bounds=0.5), r"\(min, max\) pairs"),
    ("eta-none", lambda: RigidityParams(gamma=(1, 1, 1, 1), eta=None), "eta must have exactly 4 entries, got None"),
    ("weights-none", lambda: FiscalCostSpec(target=TARGETS, weights=None), "weights must have exactly 4 entries, got None"),
    ("gamma-number", lambda: RigidityParams(gamma=5.0), "gamma must have exactly 4 entries, got 5.0"),
]


@pytest.mark.parametrize("build, message", [pytest.param(b, m, id=name) for name, b, m in _FIELD_CHECKS])
def test_every_field_check_rejects(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_integral_counts_are_stored_as_ints():
    for five in (5, 5.0, np.int64(5), np.float64(5.0)):
        spec = _breakeven(target_years=five, window=five)
        config = SolverConfig(max_iterations=five)
        stored = (spec.target_years, spec.window, _scenario(horizon=five).horizon, config.max_iterations)
        assert all(type(v) is int and v == 5 for v in stored), five
