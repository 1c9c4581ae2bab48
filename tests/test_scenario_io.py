import dataclasses
import shutil
from pathlib import Path

import numpy as np
import pytest

from fistrans import (
    CATEGORIES,
    BreakEvenSpec,
    ScenarioSyntaxError,
    ValidationError,
    load_default_preset,
    parse_scenario,
    parse_scenario_info,
    serialize_scenario,
)
from fistrans import analytics, calibration, scenario_io
from fistrans.analytics import adjustment_series, effective_expenditure
from fistrans.cli import run_cli
from fistrans.scenario_io import build_report, emit_trajectory_csv, load_preset_scenario, read_scenario_file

from helpers import random_scenario

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def user_presets(tmp_path, monkeypatch):
    """Presets "asym" (asymmetric rigidity and break-even block) and "sym"
    (symmetric ones), resolved through FISTRANS_PRESET_DIR."""
    shutil.copy(REPO / "tests" / "golden" / "asymmetric_variant.scn", tmp_path / "asym.scn")
    shutil.copy(REPO / "demos" / "scenarios" / "admin_savings_a.scn", tmp_path / "sym.scn")
    monkeypatch.setenv("FISTRANS_PRESET_DIR", str(tmp_path))


def test_minimal_file_equals_default_preset():
    scen = parse_scenario('preset = "paper-default"\n')
    assert scen == load_default_preset().scenario()


def test_empty_file_defaults_to_default_preset():
    assert parse_scenario("") == load_default_preset().scenario()


def test_named_override():
    scen = parse_scenario('name = "my-run"\nbeta = 0.9\n')
    assert scen.name == "my-run"
    assert scen.beta == 0.9
    base = load_default_preset().scenario()
    assert scen.baseline == base.baseline
    assert scen.rigidity == base.rigidity


def test_discount_factor_out_of_range_is_a_validation_error():
    with pytest.raises(ValidationError, match="discount factor out of range"):
        parse_scenario("beta = 1.2\n")


def test_unknown_key_is_rejected_with_line_number():
    with pytest.raises(ScenarioSyntaxError, match="line 2.*unknown key 'betta'"):
        parse_scenario('name = "x"\nbetta = 0.9\n')


def test_unknown_section_is_rejected():
    with pytest.raises(ScenarioSyntaxError, match=r"unknown section \[weightz\]"):
        parse_scenario("[weightz]\ntransfers = 1.0\n")
    # The error points at the header, with or without keys below it.
    with pytest.raises(ScenarioSyntaxError, match=r"line 4, .*unknown section \[weightz\]"):
        parse_scenario("beta = 0.9\n\n\n[weightz]\n")
    with pytest.raises(ScenarioSyntaxError, match=r"line 3, .*unknown section \[weightz\]"):
        parse_scenario("beta = 0.9\n\n[weightz]\n\ntransfers = 1.0\n")


def test_syntax_errors_carry_position():
    with pytest.raises(ScenarioSyntaxError, match="line 1"):
        parse_scenario("this is not an assignment\n")
    with pytest.raises(ScenarioSyntaxError, match="quoted string"):
        parse_scenario('name = "unterminated\n')
    with pytest.raises(ScenarioSyntaxError, match="nan"):
        parse_scenario("beta = nan\n")
    with pytest.raises(ScenarioSyntaxError, match="duplicate key"):
        parse_scenario("beta = 0.9\nbeta = 0.8\n")
    with pytest.raises(ScenarioSyntaxError, match="number or quoted string"):
        parse_scenario("beta = fast\n")
    with pytest.raises(ScenarioSyntaxError, match="integer"):
        parse_scenario("horizon = 10.5\n")
    with pytest.raises(ScenarioSyntaxError, match="line 2, column 1: malformed section header"):
        parse_scenario("beta = 0.9\n[weights\n")
    with pytest.raises(ScenarioSyntaxError, match="column 3: empty section name"):
        parse_scenario("  [rigidity.]\n")
    with pytest.raises(ScenarioSyntaxError, match="missing key before '='"):
        parse_scenario("= 0.9\n")
    with pytest.raises(ScenarioSyntaxError, match="column 7: missing value for key 'beta'"):
        parse_scenario("beta =\n")
    with pytest.raises(ScenarioSyntaxError, match="beta must be a number"):
        parse_scenario('beta = "0.9"\n')
    with pytest.raises(ScenarioSyntaxError, match="name must be a quoted string"):
        parse_scenario("name = 5\n")


def test_unknown_preset_is_a_validation_error():
    with pytest.raises(ValidationError, match="unknown preset"):
        parse_scenario('preset = "no-such-preset"\n')


def test_preset_dir_resolution(tmp_path, monkeypatch):
    base = load_default_preset().scenario()
    custom = tmp_path / "austerity.scn"
    custom.write_text(serialize_scenario(base).replace("beta = 0.96", "beta = 0.9"), encoding="utf-8")
    monkeypatch.setenv("FISTRANS_PRESET_DIR", str(tmp_path))
    scen = load_preset_scenario("austerity")
    assert scen.beta == 0.9
    via_file = parse_scenario('preset = "austerity"\nhorizon = 12\n')
    assert via_file.beta == 0.9
    assert via_file.horizon == 12


def test_an_error_in_a_preset_names_the_innermost_preset_file(tmp_path, monkeypatch):
    monkeypatch.setenv("FISTRANS_PRESET_DIR", str(tmp_path))
    (tmp_path / "outer.scn").write_text('preset = "inner"\n', encoding="utf-8")
    (tmp_path / "inner.scn").write_text("beta = 0.9\nhorizon = 4.5\n", encoding="utf-8")
    with pytest.raises(ScenarioSyntaxError) as info:
        parse_scenario('preset = "outer"\n')
    assert str(info.value) == f"{tmp_path / 'inner.scn'}: line 2, column 1: horizon must be an integer"
    (tmp_path / "loop.scn").write_text('preset = "loop"\n', encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        parse_scenario('preset = "loop"\n')
    assert str(info.value) == f"{tmp_path / 'loop.scn'}: preset chain too deep while resolving 'loop'"


def test_partial_rigidity_override_keeps_other_categories():
    scen = parse_scenario("[rigidity.transfers]\ngamma = 5.5\n")
    assert scen.rigidity.gamma == (5.5, 3.5, 1.5, 1.0)
    assert scen.rigidity.eta == (1.8, 1.5, 0.6, 0.4)


def test_single_asymmetric_section_upgrades_all_categories():
    scen = parse_scenario("[rigidity.wages]\ngamma_up = 3.5\ngamma_down = 7.0\n")
    assert scen.rigidity.is_asymmetric
    assert scen.rigidity.gamma_up == (4.0, 3.5, 1.5, 1.0)
    assert scen.rigidity.gamma_down == (4.0, 7.0, 1.5, 1.0)


def test_mixed_rigidity_modes_in_one_section_rejected():
    with pytest.raises(ScenarioSyntaxError, match="mixes gamma"):
        parse_scenario("[rigidity.wages]\ngamma = 2.0\ngamma_up = 1.0\ngamma_down = 2.0\n")
    with pytest.raises(ScenarioSyntaxError, match="both gamma_up and gamma_down"):
        parse_scenario("[rigidity.wages]\ngamma_up = 1.0\n")
    be = "[breakeven]\nreduction_fraction = 0.1\ntarget_years = 3\n"
    with pytest.raises(ScenarioSyntaxError, match=r"line 3, .*\[breakeven\] mixes gamma"):
        parse_scenario("beta = 0.9\n" + be + "gamma = 1.0\ngamma_down = 2.0\n")
    with pytest.raises(ScenarioSyntaxError, match=r"line 3, .*\[breakeven\] needs both gamma_up and gamma_down"):
        parse_scenario("beta = 0.9\n" + be + "gamma_up = 1.0\n")


def test_bounds_parsing_single_sided():
    scen = parse_scenario("[bounds.transfers]\nmin_change = -1.5\n")
    assert scen.delta_bounds is not None
    assert scen.delta_bounds[0] == (-1.5, np.inf)
    assert scen.delta_bounds[1] == (-np.inf, np.inf)


def test_breakeven_block_round_trip_values():
    text = (
        "[breakeven]\n"
        "reduction_fraction = 0.1\n"
        "target_years = 3\n"
        "gamma = 4.0\n"
        "eta = 0.3\n"
    )
    scen = parse_scenario(text)
    be = scen.breakeven
    assert be is not None
    assert (be.reduction_fraction, be.target_years, be.gamma, be.eta) == (0.1, 3, 4.0, 0.3)
    assert be.adjustable_base == 100.0 and be.window == 5


def test_breakeven_block_requires_core_keys():
    with pytest.raises(ValidationError, match="reduction_fraction"):
        parse_scenario("[breakeven]\ngamma = 1.0\n")


def test_total_reference_override_and_inheritance():
    scen = parse_scenario(
        "[target]\ntransfers = 39.0\nwages = 18.0\ninvestment = 19.0\noperating = 24.0\n"
        '[weights]\ntotal_reference = 95.0\n'
    )
    assert scen.cost.total_reference == 95.0
    # Unspecified values inherit from the preset verbatim.
    scen2 = parse_scenario('[target]\ntransfers = 41.0\n')
    assert scen2.cost.total_reference == 97.0


def test_parse_info_reports_preset_and_overrides():
    scen, info = parse_scenario_info('beta = 0.9\n[weights]\ntotal = 0.1\n')
    assert info.preset == "paper-default"
    assert info.overrides == ("beta", "weights.total")
    assert scen.beta == 0.9


def test_round_trip_default_preset():
    base = load_default_preset().scenario()
    text = serialize_scenario(base)
    assert parse_scenario(text) == base
    assert serialize_scenario(parse_scenario(text)) == text


def test_the_default_preset_is_built_once_for_every_parse(monkeypatch):
    built, preset_type = [], calibration.CalibrationPreset

    def counted(*args, **kwargs):
        built.append(1)
        return preset_type(*args, **kwargs)

    scen = dataclasses.replace(load_default_preset().scenario(), beta=0.9)
    monkeypatch.setattr(calibration, "CalibrationPreset", counted)
    load_default_preset.cache_clear()
    assert parse_scenario(serialize_scenario(scen)) == scen
    # The first parse's override does not leak into the shared preset.
    assert parse_scenario("") == load_default_preset().scenario()
    assert len(built) == 1


def _mixed_bounds(rng: np.random.Generator):
    """One-sided, infinite, frozen and two-sided limits in a random order."""
    kinds = [
        (-float(rng.uniform(0.2, 3.0)), np.inf),
        (-np.inf, float(rng.uniform(0.2, 3.0))),
        (-np.inf, np.inf),
        (0.0, 0.0),
    ]
    if rng.random() < 0.5:
        kinds[2] = (-float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
    return tuple(kinds[k] for k in rng.permutation(len(kinds)))


def _asymmetric_breakeven(rng: np.random.Generator) -> BreakEvenSpec:
    return BreakEvenSpec(
        reduction_fraction=float(rng.uniform(0.05, 0.5)),
        target_years=int(rng.integers(1, 8)),
        adjustable_base=float(rng.uniform(50.0, 150.0)),
        core_floor=float(rng.uniform(0.0, 20.0)),
        window=int(rng.integers(3, 9)),
        gamma_up=float(rng.uniform(0.0, 4.0)),
        gamma_down=float(rng.uniform(0.0, 6.0)),
        eta=float(rng.uniform(0.0, 0.5)),
    )


def test_round_trip_fifty_random_scenarios():
    rng = np.random.default_rng(2024)
    # A second stream, so the draws of random_scenario stay as they were.
    extra = np.random.default_rng(2025)
    for i in range(50):
        scen = random_scenario(rng, with_bounds=bool(i % 3 == 0), with_breakeven=bool(i % 2 == 0))
        variant = dataclasses.replace(scen, delta_bounds=_mixed_bounds(extra), breakeven=_asymmetric_breakeven(extra))
        for case in (scen, variant):
            text = serialize_scenario(case)
            again = parse_scenario(text)
            assert again == case, f"round trip failed for case {i}"
            assert serialize_scenario(again) == text


@pytest.mark.parametrize("name", ['a"b', "a\nb", "a\x85b", "a\u2028b"])
def test_names_the_file_format_cannot_carry_are_rejected(name):
    with pytest.raises(ValidationError, match="name"):
        dataclasses.replace(load_default_preset().scenario(), name=name)


@pytest.mark.parametrize("name", [123, 1.5, None, b"bytes"])
def test_names_that_are_not_strings_are_rejected(name):
    # A file quotes every name, so 123 would parse back as the string "123".
    with pytest.raises(ValidationError, match="name must be a string"):
        dataclasses.replace(load_default_preset().scenario(), name=name)


def test_asymmetric_preset_stays_asymmetric_when_every_category_sets_gamma(user_presets):
    gammas = (2.0, 3.0, 4.0, 5.0)
    text = 'preset = "asym"\n' + "".join(f"[rigidity.{cat.key}]\ngamma = {g}\n" for cat, g in zip(CATEGORIES, gammas))
    rigidity = parse_scenario(text).rigidity
    assert rigidity.is_asymmetric
    assert rigidity.gamma_up == gammas
    assert rigidity.gamma_down == gammas


def test_breakeven_gamma_over_asymmetric_preset_block_makes_it_symmetric(user_presets):
    assert parse_scenario('preset = "asym"\n').breakeven.is_asymmetric
    be = parse_scenario('preset = "asym"\n[breakeven]\ngamma = 0.9\n').breakeven
    assert not be.is_asymmetric
    assert (be.gamma, be.gamma_up, be.gamma_down) == (0.9, None, None)
    assert (be.reduction_fraction, be.target_years, be.eta) == (0.1, 3, 0.05)
    # And the pair over a symmetric block makes that one asymmetric.
    assert not parse_scenario('preset = "sym"\n').breakeven.is_asymmetric
    be = parse_scenario('preset = "sym"\n[breakeven]\ngamma_up = 1.0\ngamma_down = 2.0\n').breakeven
    assert (be.gamma, be.gamma_up, be.gamma_down) == (None, 1.0, 2.0)
    assert (be.reduction_fraction, be.target_years, be.eta) == (0.1, 3, 0.05)


def test_infinite_limits_in_a_file_leave_no_bounds():
    scen = parse_scenario("[bounds.wages]\nmin_change = -inf\nmax_change = inf\n")
    assert scen.delta_bounds is None


def test_overrides_of_a_file_touching_every_section():
    text = (
        'name = "all"\npreset = "paper-default"\nbeta = 0.9\nhorizon = 12\n'
        "[weights]\ntotal = 0.1\ninvestment = 0.3\n"
        "[baseline]\nwages = 20.0\n"
        "[target]\noperating = 25.0\n"
        "[rigidity.transfers]\ngamma_up = 4.0\ngamma_down = 5.0\n"
        "[rigidity.investment]\neta = 0.7\n"
        "[bounds.operating]\nmax_change = 2.0\n"
        "[breakeven]\nreduction_fraction = 0.1\ntarget_years = 3\n"
    )
    _, info = parse_scenario_info(text)
    assert info.preset == "paper-default"
    assert info.overrides == (
        "baseline.wages",
        "beta",
        "bounds.operating.max_change",
        "breakeven.reduction_fraction",
        "breakeven.target_years",
        "horizon",
        "name",
        "rigidity.investment.eta",
        "rigidity.transfers.gamma_down",
        "rigidity.transfers.gamma_up",
        "target.operating",
        "weights.investment",
        "weights.total",
    )


def test_key_order_does_not_matter():
    a = parse_scenario('beta = 0.9\nname = "x"\n[weights]\ntotal = 0.1\ntransfers = 0.3\n')
    b = parse_scenario('name = "x"\nbeta = 0.9\n[weights]\ntransfers = 0.3\ntotal = 0.1\n')
    assert a == b


def test_comments_and_blank_lines_are_ignored():
    text = "# a comment\n\nbeta = 0.9\n# another\n\n"
    assert parse_scenario(text).beta == 0.9


def test_csv_header_and_determinism():
    scen = parse_scenario('preset = "paper-default"\nhorizon = 6\n')
    report = build_report(scen)
    csv_a = emit_trajectory_csv(report)
    csv_b = emit_trajectory_csv(build_report(scen))
    assert csv_a == csv_b
    lines = csv_a.splitlines()
    assert lines[0] == "t,T,W,I,F,total,phi,G_eff,S_gross,S_net,cum_net"
    assert len(lines) == scen.horizon + 2
    # No break-even block: savings cells stay empty.
    assert lines[1].endswith(",,,")


def test_csv_constant_trajectory_has_zero_outlay_cells():
    text = (
        'horizon = 3\n'
        '[target]\ntransfers = 46.0\nwages = 21.0\ninvestment = 12.0\noperating = 21.0\n'
        '[weights]\ntotal = 0.0\n'
    )
    scen = parse_scenario(text)
    report = build_report(scen)
    for line in emit_trajectory_csv(report).splitlines()[1:]:
        assert line.split(",")[6] == "0.000000"


def test_csv_prints_a_value_that_rounds_to_zero_from_below_as_zero():
    report = build_report(parse_scenario("horizon = 3\n"))
    report = dataclasses.replace(report, g_eff=np.array([-4e-7, -1e-12, -0.0, -6e-7]))
    cells = [line.split(",")[7] for line in emit_trajectory_csv(report).splitlines()[1:]]
    assert cells == ["0.000000", "0.000000", "0.000000", "-0.000001"]


def test_csv_savings_row_five_matches_pipeline_at_six_decimals():
    preset = load_default_preset()
    scen = preset.scenario(name="savings-run", breakeven=preset.breakeven_row("A").spec)
    report = build_report(scen)
    lines = emit_trajectory_csv(report).splitlines()
    row5 = lines[6].split(",")
    assert row5[0] == "5"
    assert row5[-1] == "24.814815"
    assert row5[-3] == "10.000000"
    # Beyond the savings window the cells are empty again.
    assert lines[8].split(",")[-1] == ""


@pytest.mark.parametrize(
    "path",
    [None, REPO / "demos" / "scenarios" / "admin_savings_a.scn", REPO / "tests" / "golden" / "asymmetric_variant.scn"],
    ids=["paper-default", "admin_savings_a", "asymmetric_variant"],
)
def test_the_report_owns_the_outlay_and_keeps_g_eff_bits(path):
    scen = load_preset_scenario("paper-default") if path is None else parse_scenario(read_scenario_file(path))
    report = build_report(scen)
    traj = report.solve.trajectory
    assert report.outlay.tobytes() == adjustment_series(traj, scen.rigidity).tobytes()
    assert report.g_eff.tobytes() == effective_expenditure(traj, scen.rigidity).tobytes()
    # Read-only, so the jshape verdict keeps describing the g_eff handed out.
    for series in (report.g_eff, report.outlay):
        with pytest.raises(ValueError, match="read-only"):
            series[0] = 0.0


def test_simulate_evaluates_the_outlay_once(monkeypatch, capsys):
    calls = []

    def counted(*args):
        calls.append(1)
        return adjustment_series(*args)

    # Both lookup sites, so an evaluation through effective_expenditure counts too.
    monkeypatch.setattr(analytics, "adjustment_series", counted)
    monkeypatch.setattr(scenario_io, "adjustment_series", counted)
    assert run_cli(["simulate", "--out", "-"]) == 0
    assert "t,T,W,I,F," in capsys.readouterr().out
    assert len(calls) == 1


def test_report_provenance_carries_tool_and_preset():
    scen, info = parse_scenario_info('beta = 0.9\n')
    report = build_report(scen, preset=info.preset, overrides=info.overrides)
    prov = dict(report.provenance)
    assert prov["preset"] == "paper-default"
    assert prov["overrides"] == "beta"
    assert prov["tool"].startswith("fistrans ")
