import dataclasses

import numpy as np
import pytest

from fistrans import (
    Category,
    ValidationError,
    asymmetric_variant,
    load_default_preset,
    rigidity_to_params,
)


ANCHORS = {0.3: (1.0, 0.4), 0.5: (1.5, 0.6), 0.8: (3.5, 1.5), 0.9: (4.0, 1.8)}


def test_anchor_pairs_reproduce_exactly():
    for score, (gamma, eta) in ANCHORS.items():
        got = rigidity_to_params(score)
        assert got == (gamma, eta)


def test_midpoint_interpolation():
    gamma, eta = rigidity_to_params(0.65)
    assert gamma == pytest.approx(2.5, abs=1e-12)
    assert eta == pytest.approx(1.05, abs=1e-12)


def test_clamped_extrapolation():
    assert rigidity_to_params(0.0) == (1.0, 0.4)
    assert rigidity_to_params(0.1) == (1.0, 0.4)
    assert rigidity_to_params(1.0) == (4.0, 1.8)


def test_score_out_of_range_rejected():
    for score in (-0.01, 1.01, float("nan")):
        with pytest.raises(ValidationError):
            rigidity_to_params(score)


def test_mapping_is_monotone_on_dense_grid():
    grid = np.linspace(0.0, 1.0, 1000)
    gammas, etas = zip(*(rigidity_to_params(s) for s in grid))
    assert np.all(np.diff(gammas) >= 0)
    assert np.all(np.diff(etas) >= 0)


def test_default_preset_tables():
    preset = load_default_preset()
    assert preset.baseline.as_tuple() == (46.0, 21.0, 12.0, 21.0)
    assert preset.cost.target.as_tuple() == (40.0, 18.0, 18.0, 24.0)
    assert preset.flexibility == (0.9, 0.8, 0.5, 0.3)
    assert preset.rigidity.gamma == (4.0, 3.5, 1.5, 1.0)
    assert preset.rigidity.eta == (1.8, 1.5, 0.6, 0.4)
    assert preset.gdp_shares == (13.2, 6.0, 3.4, 6.1)


def test_preset_flexibility_scores_map_to_calibrated_curvature():
    preset = load_default_preset()
    for idx, score in enumerate(preset.flexibility):
        gamma, eta = rigidity_to_params(score)
        assert gamma == preset.rigidity.gamma[idx]
        assert eta == preset.rigidity.eta[idx]


def test_internal_composition_sums_to_hundred():
    preset = load_default_preset()
    comp = preset.internal_composition
    assert set(comp) == {Category.TRANSFERS, Category.WAGES, Category.INVESTMENT}
    for parts in comp.values():
        assert sum(share for _, share in parts) == pytest.approx(100.0, abs=1e-9)
    pensions = dict(comp[Category.TRANSFERS])["pensions"]
    assert pensions == 72.0


def test_the_default_preset_is_one_immutable_value():
    preset = load_default_preset()
    assert load_default_preset() is preset
    with pytest.raises(TypeError):
        preset.internal_composition[Category.TRANSFERS] = (("pensions", 100.0),)
    # A replaced preset holds its own read-only copy of the mapping it is given.
    parts = dict(preset.internal_composition)
    copy = dataclasses.replace(preset, internal_composition=parts)
    parts.clear()
    assert copy.internal_composition == preset.internal_composition
    with pytest.raises(TypeError):
        copy.internal_composition[Category.OPERATING] = ()


@pytest.mark.parametrize(
    "field, message",
    [
        ("baseline", "baseline shares must sum to 100"),
        ("targets", "target shares must sum to 100"),
        ("internal_composition", "internal composition of transfers must sum to 100"),
    ],
)
def test_preset_shares_must_sum_to_hundred(field, message):
    preset = load_default_preset()
    target = preset.cost.target
    bad = {
        "baseline": {"baseline": dataclasses.replace(preset.baseline, transfers=preset.baseline.transfers + 1.0)},
        "targets": {"cost": dataclasses.replace(preset.cost, target=dataclasses.replace(target, wages=target.wages - 1.0))},
        "internal_composition": {
            "internal_composition": {**preset.internal_composition, Category.TRANSFERS: (("pensions", 72.0),)}
        },
    }
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(preset, **bad[field])


def test_preset_curvatures_follow_its_flexibility_scores():
    # The curvatures are derived from the scores, never given beside them, so
    # a preset with new scores solves with the curvatures those scores map to.
    preset = load_default_preset()
    variant = dataclasses.replace(preset, flexibility=(0.3,) * 4)
    assert variant.rigidity.gamma == (1.0,) * 4
    assert variant.rigidity.eta == (0.4,) * 4
    assert variant.scenario().rigidity == variant.rigidity
    for score in (1.5, -0.1, float("nan")):
        with pytest.raises(ValidationError, match="flexibility score out of range"):
            dataclasses.replace(preset, flexibility=(score, 0.8, 0.5, 0.3))
    with pytest.raises(ValidationError, match="flexibility score must be a number"):
        dataclasses.replace(preset, flexibility=("high", 0.8, 0.5, 0.3))
    with pytest.raises(ValueError, match="rigidity"):
        dataclasses.replace(preset, rigidity=asymmetric_variant(preset.rigidity))


@pytest.mark.parametrize("scores", [[0.3] * 4, ("0.3",) * 4, ()], ids=["list", "strings", "empty"])
def test_flexibility_is_stored_as_four_floats(scores):
    # Scores are checked like every other four-category field: a list or
    # numeric strings become a tuple of floats, a wrong count is a
    # ValidationError that names the field.
    preset = load_default_preset()
    if not scores:
        with pytest.raises(ValidationError, match="flexibility must have exactly 4 entries"):
            dataclasses.replace(preset, flexibility=scores)
        return
    variant = dataclasses.replace(preset, flexibility=scores)
    assert type(variant.flexibility) is tuple and variant.flexibility == (0.3,) * 4
    assert all(type(score) is float for score in variant.flexibility)
    assert variant.rigidity == dataclasses.replace(preset, flexibility=(0.3,) * 4).rigidity


def test_breakeven_catalog_rows():
    preset = load_default_preset()
    rows = {row.name: row for row in preset.breakeven_catalog}
    assert list(rows) == ["A", "B", "C", "D", "E", "F"]
    b = rows["B"].spec
    assert (b.reduction_fraction, b.target_years, b.gamma, b.eta) == (0.10, 3, 2.0, 0.15)
    assert (b.adjustable_base, b.window) == (100.0, 5)
    assert rows["A"].regime == "low" and rows["C"].regime == "high"
    assert rows["D"].spec.target_years == 5 and rows["D"].spec.reduction_fraction == 0.20


def test_breakeven_row_lookup_errors_on_unknown_name():
    with pytest.raises(ValidationError):
        load_default_preset().breakeven_row("Z")


def test_preset_scenario_is_valid_and_named():
    preset = load_default_preset()
    scen = preset.scenario()
    assert scen.name == "paper-default"
    assert 0.0 < scen.beta < 1.0
    assert scen.horizon == 50
    assert scen.breakeven is None
    named = preset.scenario(name="run-1", breakeven=preset.breakeven_row("A").spec)
    assert named.name == "run-1"
    assert named.breakeven is not None


def test_asymmetric_variant_convention():
    preset = load_default_preset()
    asym = asymmetric_variant(preset.rigidity)
    assert asym.is_asymmetric
    assert asym.gamma_up == preset.rigidity.gamma
    assert asym.gamma_down == tuple(1.5 * g for g in preset.rigidity.gamma)
    assert asym.eta == preset.rigidity.eta
    with pytest.raises(ValidationError):
        asymmetric_variant(asym)
