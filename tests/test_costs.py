import math

import numpy as np
import pytest

from fistrans import (
    BreakEvenSpec,
    CostEval,
    DeltaVector,
    ExpenditureVector,
    FiscalCostSpec,
    ModeMismatchError,
    RigidityParams,
    ValidationError,
    gradient_check,
    phi,
    phi_asymmetric,
    stage_cost,
)
from fistrans.costs import (
    quad_allocation,
    quad_allocation_args,
    quad_allocation_hessian,
    quad_allocation_minimum,
    quad_cubic_args,
)

from helpers import TABLE_ETA, TABLE_GAMMA, TARGETS

TABLE_PARAMS = RigidityParams(gamma=TABLE_GAMMA, eta=TABLE_ETA)


def test_phi_zero_change_costs_nothing():
    ev = phi(DeltaVector(0, 0, 0, 0), TABLE_PARAMS)
    assert ev.value == 0.0
    assert np.array_equal(ev.gradient, np.zeros(4))


def test_phi_single_category_closed_form():
    # gamma/2 * (10/3)^2 + eta/3 * (10/3)^3 = 410/81; slope -29/9
    p = RigidityParams(gamma=(0.8, 0, 0, 0), eta=(0.05, 0, 0, 0))
    ev = phi(DeltaVector(-10.0 / 3.0, 0, 0, 0), p)
    assert ev.value == pytest.approx(410.0 / 81.0, rel=1e-14)
    assert ev.gradient[0] == pytest.approx(-29.0 / 9.0, rel=1e-14)


def test_phi_transfers_unit_step():
    ev = phi(DeltaVector(1.0, 0, 0, 0), TABLE_PARAMS)
    assert ev.value == pytest.approx(2.6, abs=1e-12)
    assert ev.gradient[0] == pytest.approx(5.8, abs=1e-12)


def test_phi_rejects_asymmetric_params():
    p = RigidityParams(eta=(0, 0, 0, 0), gamma_up=(1, 1, 1, 1), gamma_down=(2, 2, 2, 2))
    with pytest.raises(ModeMismatchError):
        phi(DeltaVector(1, 0, 0, 0), p)


def test_phi_asymmetric_rejects_symmetric_params():
    with pytest.raises(ModeMismatchError):
        phi_asymmetric(DeltaVector(1, 0, 0, 0), TABLE_PARAMS)


def test_phi_asymmetric_up_and_down():
    p = RigidityParams(eta=(0, 0, 0, 0), gamma_up=(1, 0, 0, 0), gamma_down=(3, 0, 0, 0))
    up = phi_asymmetric(DeltaVector(2, 0, 0, 0), p)
    down = phi_asymmetric(DeltaVector(-2, 0, 0, 0), p)
    assert up.value == pytest.approx(2.0, abs=1e-14)
    assert down.value == pytest.approx(6.0, abs=1e-14)
    assert up.gradient[0] == pytest.approx(2.0, abs=1e-14)
    assert down.gradient[0] == pytest.approx(-6.0, abs=1e-14)


def test_phi_asymmetric_degenerates_to_symmetric():
    # Symmetric rigidity is the case gamma_up = gamma_down: one kernel, so
    # the two evaluators agree bit for bit, zero changes of either sign included.
    rng = np.random.default_rng(3)
    asym = RigidityParams(eta=TABLE_ETA, gamma_up=TABLE_GAMMA, gamma_down=TABLE_GAMMA)
    draws = [rng.uniform(-3, 3, 4) for _ in range(50)]
    draws += [np.zeros(4), np.array([-0.0, 0.0, -0.0, 0.0]), np.array([0.0, -1.5, -0.0, 2.0])]
    for arr in draws:
        d = DeltaVector.from_array(arr)
        a = phi_asymmetric(d, asym)
        s = phi(d, TABLE_PARAMS)
        assert a.value == s.value
        assert np.array_equal(a.gradient, s.gradient)


def test_phi_asymmetric_cuts_cost_more_when_down_exceeds_up():
    p = RigidityParams(eta=(0.1, 0.1, 0.1, 0.1), gamma_up=(1, 1, 1, 1), gamma_down=(2.5, 2.5, 2.5, 2.5))
    for size in (0.5, 1.0, 2.0):
        lose = phi_asymmetric(DeltaVector(-size, 0, 0, 0), p).value
        gain = phi_asymmetric(DeltaVector(size, 0, 0, 0), p).value
        assert lose > gain


def test_phi_even_in_each_coordinate():
    rng = np.random.default_rng(5)
    for _ in range(100):
        arr = rng.uniform(-4, 4, 4)
        assert phi(DeltaVector.from_array(arr), TABLE_PARAMS).value == pytest.approx(
            phi(DeltaVector.from_array(-arr), TABLE_PARAMS).value, rel=1e-14
        )


def test_phi_positive_for_nonzero_changes():
    rng = np.random.default_rng(9)
    for _ in range(100):
        arr = rng.uniform(-4, 4, 4)
        if np.all(arr == 0):
            continue
        assert phi(DeltaVector.from_array(arr), TABLE_PARAMS).value > 0.0


def test_phi_scaling_convexity():
    rng = np.random.default_rng(13)
    quad_only = RigidityParams(gamma=TABLE_GAMMA, eta=(0, 0, 0, 0))
    for _ in range(50):
        arr = rng.uniform(-4, 4, 4)
        lam = rng.uniform(0.05, 0.95)
        d = DeltaVector.from_array(arr)
        d_scaled = DeltaVector.from_array(lam * arr)
        # Quadratic-only scales exactly with lambda^2.
        assert phi(d_scaled, quad_only).value == pytest.approx(lam**2 * phi(d, quad_only).value, rel=1e-12)
        # With positive quadratic curvature, scaling beats linear interpolation.
        full = phi(d, TABLE_PARAMS).value
        if full > 0:
            assert phi(d_scaled, TABLE_PARAMS).value < lam * full


def test_stage_cost_zero_at_target():
    spec = FiscalCostSpec(target=TARGETS, weights=(1, 1, 1, 1), total_weight=0.0)
    ev = stage_cost(TARGETS, spec)
    assert ev.value == 0.0
    assert np.array_equal(ev.gradient, np.zeros(4))


def test_stage_cost_unit_deviation():
    base = ExpenditureVector(46, 21, 12, 21)
    spec = FiscalCostSpec(target=base, weights=(1, 1, 1, 1), total_weight=0.0)
    ev = stage_cost(ExpenditureVector(47, 21, 12, 21), spec)
    assert ev.value == pytest.approx(0.5, abs=1e-14)
    assert ev.gradient[0] == pytest.approx(1.0, abs=1e-14)


def test_stage_cost_total_on_reference():
    spec = FiscalCostSpec(
        target=TARGETS, weights=(0, 0, 0, 0), total_weight=1.0, total_reference=100.0
    )
    ev = stage_cost(ExpenditureVector(46, 21, 12, 21), spec)
    assert ev.value == 0.0


def test_allocation_kernel_stacks_stage_cost_with_a_constant_hessian():
    spec = FiscalCostSpec(target=TARGETS, weights=(1, 0.5, 2, 0.25), total_weight=0.3, total_reference=97.0)
    args = quad_allocation_args(spec)
    x = np.random.default_rng(29).uniform(0.0, 50.0, (30, 4))
    values, grads = quad_allocation(x, *args)
    for row, value, grad in zip(x, values, grads):
        ev = stage_cost(ExpenditureVector.from_array(row), spec)
        assert value == ev.value
        assert np.array_equal(grad, ev.gradient)
    hess = quad_allocation_hessian(args[0], args[2])
    h = 1e-3
    for point in x[:5]:
        bumps = h * np.eye(4)
        fd = (quad_allocation(point + bumps, *args)[1] - quad_allocation(point - bumps, *args)[1]) / (2.0 * h)
        # Row j of fd is the gradient's change along category j, column j of the Hessian.
        assert np.allclose(fd.T, hess, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("zeros", [0, 1, 2, 4])
@pytest.mark.parametrize("total_weight", ["random", 0.0])
def test_the_allocation_minimum_zeroes_the_gradient_at_least_norm(zeros, total_weight):
    rng = np.random.default_rng(100 + zeros)
    for _ in range(500):
        weights = rng.uniform(0.05, 2.0, 4)
        weights[rng.choice(4, zeros, replace=False)] = 0.0
        w_total = float(rng.uniform(0.0, 1.0)) if total_weight == "random" else total_weight
        args = (weights, rng.uniform(5.0, 40.0, 4), w_total, float(rng.uniform(80.0, 120.0)))
        anchor = quad_allocation_minimum(*args)
        assert np.max(np.abs(quad_allocation(anchor, *args)[1])) <= 1e-12
        # The minimum-norm solution of H z = -grad C(target), as lstsq finds it.
        hess = quad_allocation_hessian(weights, w_total)
        z, *_ = np.linalg.lstsq(hess, -quad_allocation(args[1], *args)[1], rcond=None)
        assert np.allclose(anchor, args[1] + z, rtol=0.0, atol=1e-9)


def test_a_symmetric_block_gives_its_gamma_as_kink_and_no_skew():
    # Up to a curvature whose double would overflow.
    gamma = (4.0, 0.1, 0.0, 1.5e308)
    kink, skew, eta = quad_cubic_args(RigidityParams(gamma=gamma, eta=TABLE_ETA))
    assert kink.tobytes() == np.array(gamma).tobytes()
    assert skew.tobytes() == np.zeros(4).tobytes()
    assert eta.tobytes() == np.array(TABLE_ETA).tobytes()
    kink, skew, eta = quad_cubic_args(BreakEvenSpec(reduction_fraction=0.1, target_years=3, gamma=0.1, eta=0.05))
    assert (kink, skew, eta) == (0.1, 0.0, 0.05) and math.copysign(1.0, skew) == 1.0


def test_kink_and_skew_give_back_both_curvatures():
    up, down = (1.5, 0.25, 3.0, 0.0), (2.25, 0.75, 0.5, 1.0)
    kink, skew, _ = quad_cubic_args(RigidityParams(gamma_up=up, gamma_down=down))
    assert np.array_equal(kink + skew, up) and np.array_equal(kink - skew, down)
    spec = BreakEvenSpec(reduction_fraction=0.1, target_years=3, gamma_up=0.75, gamma_down=1.25, eta=0.05)
    kink, skew, _ = quad_cubic_args(spec)
    assert (kink + skew, kink - skew) == (0.75, 1.25)


def test_gradient_check_phi_at_mixed_point():
    f = lambda arr: phi(DeltaVector.from_array(arr), TABLE_PARAMS)
    err = gradient_check(f, np.array([1.0, -1.0, 0.5, -0.5]), h=1e-6)
    assert err < 1e-6


def test_gradient_check_stage_cost_is_exact_for_quadratics():
    spec = FiscalCostSpec(target=TARGETS, weights=(1, 0.5, 2, 0.25), total_weight=0.3)
    rng = np.random.default_rng(17)
    point = TARGETS.as_array() + rng.uniform(-2, 2, 4)
    f = lambda arr: stage_cost(ExpenditureVector.from_array(arr), spec)
    assert gradient_check(f, point, h=1e-6) < 1e-8


def test_gradient_check_phi_smooth_at_zero():
    f = lambda arr: phi(DeltaVector.from_array(arr), TABLE_PARAMS)
    assert gradient_check(f, np.zeros(4), h=1e-6) < 1e-6


@pytest.mark.parametrize("h", [0.0, -1e-6, math.nan, math.inf])
def test_gradient_check_requires_positive_step(h):
    # An evaluator that accepts any point: the step is rejected by its own check.
    f = lambda arr: CostEval(float(arr @ arr), 2.0 * arr)
    with pytest.raises(ValidationError):
        gradient_check(f, np.zeros(4), h=h)


def test_gradient_check_reports_what_is_not_finite():
    # A nan anywhere is no agreement: it must not read as an exact gradient.
    point = np.array([1.0, -1.0, 0.5, -0.5])
    good = lambda arr: phi(DeltaVector.from_array(arr), TABLE_PARAMS)
    nan_gradient = lambda arr: CostEval(good(arr).value, good(arr).gradient * [1.0, 1.0, np.nan, 1.0])
    nan_value = lambda arr: CostEval(np.nan, good(arr).gradient)
    wrong = lambda arr: CostEval(good(arr).value, good(arr).gradient + 3.0)
    assert math.isnan(gradient_check(nan_gradient, point))
    assert math.isnan(gradient_check(nan_value, point))
    # The worst entry is wages': gradient -5 reported as -2, an error of 3 / 2.
    assert gradient_check(wrong, point) == pytest.approx(1.5, rel=1e-6)


def test_gradient_suite_hundred_random_draws():
    rng = np.random.default_rng(23)
    asym = RigidityParams(eta=TABLE_ETA, gamma_up=TABLE_GAMMA, gamma_down=tuple(2 * g for g in TABLE_GAMMA))
    spec = FiscalCostSpec(target=TARGETS, weights=(1, 0.5, 2, 0.25), total_weight=0.3)
    for _ in range(100):
        d = rng.uniform(-3, 3, 4)
        x = TARGETS.as_array() + rng.uniform(-5, 5, 4)
        assert gradient_check(lambda a: phi(DeltaVector.from_array(a), TABLE_PARAMS), d) < 1e-6
        assert gradient_check(lambda a: phi_asymmetric(DeltaVector.from_array(a), asym), d) < 1e-6
        assert gradient_check(lambda a: stage_cost(ExpenditureVector.from_array(a), spec), x) < 1e-6
