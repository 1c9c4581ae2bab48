import ast
import dataclasses
import importlib
import re
import warnings
from pathlib import Path

import pytest

import fistrans
from fistrans import ExpenditureVector, build_report, gradualism_metric, load_default_preset, parse_scenario, serialize_scenario
from fistrans.cli import EXIT_INVALID, EXIT_NOT_CONVERGED, EXIT_OK, _build_parser, run_cli
from fistrans.scenario_io import read_scenario_file

from helpers import fresh_python

TESTS = Path(__file__).resolve().parent
REPO_SCENARIOS = TESTS.parent / "demos" / "scenarios"
SCENARIO_FILES = sorted([*TESTS.glob("*.scn"), *(TESTS / "golden").glob("*.scn"), *REPO_SCENARIOS.glob("*.scn")])


@pytest.fixture
def short_scenario_file(tmp_path):
    path = tmp_path / "short.scn"
    path.write_text('preset = "paper-default"\nhorizon = 8\nname = "short"\n', encoding="utf-8")
    return path


def test_scenario_table_matches_reported_values(capsys):
    assert run_cli(["scenario-table"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = {}
    for line in out.splitlines()[1:]:
        parts = line.split()
        name = parts[0]
        cum = float(parts[-1])
        t_star = "> 5" if "> 5" in line else parts[-2]
        rows[name] = (t_star, cum)
    assert rows["A"] == ("3", pytest.approx(24.81, abs=0.01))
    assert rows["B"] == ("5", pytest.approx(1.11, abs=0.01))
    assert rows["C"] == ("> 5", pytest.approx(-37.78, abs=0.01))
    assert rows["D"] == ("3", pytest.approx(22.67, abs=0.01))
    assert rows["E"] == ("> 5", pytest.approx(-36.00, abs=0.01))
    assert rows["F"] == ("> 5", pytest.approx(-132.00, abs=0.01))


def test_scenario_table_matches_golden_file(capsys):
    # The table is analytic (no solver), so its bytes are stable and
    # golden-file comparison is safe.
    golden = (Path(__file__).resolve().parent / "golden" / "scenario_table.txt").read_text(encoding="utf-8")
    assert run_cli(["scenario-table"]) == EXIT_OK
    assert capsys.readouterr().out == golden


def test_validate_shipped_scenarios(capsys):
    for path in sorted(REPO_SCENARIOS.glob("*.scn")):
        assert run_cli(["validate", str(path)]) == EXIT_OK, path
        assert "ok:" in capsys.readouterr().out


@pytest.mark.parametrize("row", load_default_preset().breakeven_catalog, ids=lambda row: row.name)
def test_shipped_savings_scenario_is_its_catalog_row(row):
    # demos/scenarios holds one file per catalog row; the two copies must agree.
    path = REPO_SCENARIOS / f"admin_savings_{row.name.lower()}.scn"
    preset = load_default_preset()
    want = preset.scenario(name=f"administrative-savings-{row.name}", breakeven=row.spec)
    assert parse_scenario(read_scenario_file(path)) == want


def test_validate_rejects_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("beta = 1.2\n", encoding="utf-8")
    assert run_cli(["validate", str(bad)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "discount factor out of range" in err


def test_validate_reports_syntax_position(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("beta == 0.9\n", encoding="utf-8")
    assert run_cli(["validate", str(bad)]) == EXIT_INVALID
    assert "line 1" in capsys.readouterr().err


def test_missing_file_is_reported(capsys):
    for command in ("validate", "simulate"):
        assert run_cli([command, "/no/such/file.scn"]) == EXIT_INVALID, command
        assert capsys.readouterr().err.startswith("error:"), command


def test_unreadable_files_are_reported(tmp_path, capsys):
    latin1 = tmp_path / "latin1.scn"
    latin1.write_bytes(b'name = "caf\xe9"\n')
    calls = (
        ["simulate", str(tmp_path)],
        ["validate", str(latin1)],
        ["simulate", "--preset", "paper-default", "--out", str(tmp_path)],
    )
    for argv in calls:
        assert run_cli(argv) == EXIT_INVALID, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_an_undecodable_byte_is_reported_with_file_and_line(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes(b'beta = 0.9\nname = "caf\xe9"\n')
    assert run_cli(["validate", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {path}: line 2, column 12: byte 0xe9 is not valid UTF-8\n"


def test_an_error_in_a_user_preset_names_the_preset_file(tmp_path, capsys, monkeypatch):
    presets = tmp_path / "presets"
    presets.mkdir()
    monkeypatch.setenv("FISTRANS_PRESET_DIR", str(presets))
    scenario = tmp_path / "run.scn"
    scenario.write_text('preset = "mine"\n', encoding="utf-8")
    for body, message in (
        (b"beta = 0.9\nbogus = 1\n", "line 2, column 1: unknown key 'bogus' in the top section"),
        (b'beta = 0.9\nname = "\xff"\n', "line 2, column 9: byte 0xff is not valid UTF-8"),
    ):
        (presets / "mine.scn").write_bytes(body)
        assert run_cli(["validate", str(scenario)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {presets / 'mine.scn'}: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--max-iterations", "abc"], ["simulate", "--max-iterations", "2.5"], ["frobnicate"], ["validate"], []],
)
def test_usage_errors_exit_invalid_not_as_non_convergence(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(argv)
    assert exit_info.value.code == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["simulate", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == EXIT_OK
        assert "usage:" in capsys.readouterr().out


def test_breakeven_high_rigidity_row(capsys):
    path = REPO_SCENARIOS / "admin_savings_c.scn"
    assert run_cli(["breakeven", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "t* > 5" in out
    assert "-37.78" in out


def test_breakeven_low_rigidity_row(capsys):
    path = REPO_SCENARIOS / "admin_savings_a.scn"
    assert run_cli(["breakeven", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "t* = 3" in out
    assert "24.81" in out


def test_breakeven_requires_block(capsys, tmp_path):
    path = tmp_path / "plain.scn"
    path.write_text('preset = "paper-default"\n', encoding="utf-8")
    assert run_cli(["breakeven", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: scenario has no [breakeven] block\n"


def test_simulate_writes_csv_and_summary(tmp_path, capsys, short_scenario_file):
    out_csv = tmp_path / "run.csv"
    assert run_cli(["simulate", str(short_scenario_file), "--out", str(out_csv)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "converged: True" in out
    assert "scenario: short" in out
    text = out_csv.read_text(encoding="utf-8")
    assert text.startswith("t,T,W,I,F,total,phi,G_eff,S_gross,S_net,cum_net\n")
    assert len(text.splitlines()) == 10


def test_simulate_csv_bytes_are_stable(tmp_path, short_scenario_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["simulate", str(short_scenario_file), "--out", str(a)]) == EXIT_OK
    assert run_cli(["simulate", str(short_scenario_file), "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "scenario_args, golden_name",
    [
        ([], "simulate_paper_default.csv"),
        ([str(REPO_SCENARIOS / "admin_savings_a.scn")], "simulate_admin_savings_a.csv"),
        ([str(GOLDEN / "asymmetric_variant.scn")], "simulate_asymmetric_variant.csv"),
        # Past twice 128 dates: the solve holds its short solve's path at the anchor.
        ([str(GOLDEN / "paper_default_T300.scn")], "simulate_paper_default_T300.csv"),
        # The asymmetric preset's path held past 128 dates misses the stop test: held from 256.
        ([str(GOLDEN / "asymmetric_variant_T600.scn")], "simulate_asymmetric_variant_T600.csv"),
    ],
)
def test_simulate_csv_matches_golden_file(capsys, scenario_args, golden_name):
    # Pins the CSV bytes, not the summary above them: iteration counts and
    # roundoff-level norms are solver diagnostics a solver change may move,
    # while the six-decimal series must stay byte-identical.
    golden = (GOLDEN / golden_name).read_text(encoding="utf-8")
    assert run_cli(["simulate", *scenario_args, "--out", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    csv_start = out.index("t,T,W,I,F,")
    assert out[csv_start:] == golden


def test_simulate_from_preset_flag(capsys):
    assert run_cli(["simulate", "--preset", "paper-default"]) == EXIT_OK
    assert "scenario: paper-default" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "jshape"])
def test_simulate_exhausted_budget_exits_two(capsys, short_scenario_file, command):
    assert run_cli([command, str(short_scenario_file), "--max-iterations", "1"]) == EXIT_NOT_CONVERGED
    captured = capsys.readouterr()
    assert ("converged: False" in captured.out) == (command == "simulate")  # jshape prints no summary
    assert "did not converge: budget_exhausted after 1 iterations" in captured.err


@pytest.mark.parametrize("command", ["simulate", "jshape"])
def test_roundoff_floor_is_named_not_blamed_on_the_budget(capsys, tmp_path, command):
    # Scaling every level by 1e4 lifts the terminal residual's roundoff floor
    # above the gradient tolerance; the loop stops there long before its budget.
    scen = load_default_preset().scenario()
    target = ExpenditureVector.from_array(1e4 * scen.cost.target.as_array())
    cost = dataclasses.replace(scen.cost, target=target, total_reference=1e4 * scen.cost.total_reference)
    scaled = dataclasses.replace(scen, baseline=ExpenditureVector.from_array(1e4 * scen.baseline.as_array()), cost=cost)
    path = tmp_path / "scaled.scn"
    path.write_text(serialize_scenario(scaled), encoding="utf-8")
    assert run_cli([command, str(path)]) == EXIT_NOT_CONVERGED
    err = capsys.readouterr().err
    assert re.fullmatch(r"solver did not converge: roundoff_floor after \d+ iterations \(gradient_norm \S+\)\n", err)


def test_reused_parser_keeps_no_state_between_calls(capsys):
    # The parser is built once per process; a budget given to one call must
    # not reach the next, so each call prints what it prints on a fresh parser.
    calls = ((["simulate", "--max-iterations", "1"], EXIT_NOT_CONVERGED), (["simulate"], EXIT_OK))

    def run(argv, code):
        assert run_cli(argv) == code
        return capsys.readouterr()

    alone = []
    for argv, code in calls:
        _build_parser.cache_clear()
        alone.append(run(argv, code))
    _build_parser.cache_clear()
    parser = _build_parser()
    together = [run(argv, code) for argv, code in calls]
    assert _build_parser() is parser
    assert together == alone
    assert "converged: False" in together[0].out and "converged: True" in together[1].out


def test_jshape_reports_rise_then_fall(capsys):
    assert run_cli(["jshape", "--preset", "paper-default"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[1:5] == [
        "intended_reallocation_outlay: 363.7116",
        "solved_first_year_outlay: 6.8857",
        "long_run_cost_gain: 12.1500",
        "outlay_exceeds_gain: True",
    ]
    assert re.search(r"j_shaped: True \(peak year [123],", out)


def test_jshape_takes_a_long_run_anchor_below_zero(capsys):
    # A zero total reference puts the anchor at (20, -2, -2, 4), which is no
    # allocation; the limits keep the path itself nonnegative, and it converges.
    path = Path(__file__).resolve().parent / "negative_anchor.scn"
    assert run_cli(["jshape", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "intended_reallocation_outlay: 20402.2167" in out and "long_run_cost_gain: 1011.2500" in out


def test_simulate_reports_the_gap_closure_to_an_anchor_below_zero(capsys):
    path = TESTS / "negative_anchor.scn"
    assert run_cli(["simulate", str(path)]) == EXIT_OK
    report = build_report(parse_scenario(read_scenario_file(path))).solve
    assert report.anchor.min() < 0.0
    closure = gradualism_metric(report.trajectory, report.anchor)
    assert f"first_year_gap_closure: {closure:.4f}\n" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "jshape"])
@pytest.mark.parametrize("name", ["overflow_singular.scn", "overflow_singular_t3.scn"])
def test_a_singular_stop_whose_costs_overflow_exits_two_without_warning(capsys, name, command):
    # eta * d^2 overflows at the first guess: the solve stops as singular,
    # and the outlay it leaves is printed as inf, at any horizon.
    argv = [command, str(TESTS / name), *(["--out", "-"] if command == "simulate" else [])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == EXIT_NOT_CONVERGED
    captured = capsys.readouterr()
    assert captured.err.startswith("solver did not converge: singular after 0 iterations")
    assert captured.err.endswith("(gradient_norm inf)\n")
    if command == "simulate" and name == "overflow_singular.scn":
        row1 = captured.out.splitlines()[-1].split(",")
        assert [row1[0], row1[6], row1[7]] == ["1", "inf", "inf"]


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: str(p.relative_to(TESTS.parent)))
def test_every_committed_scenario_exits_as_its_solve_ends(capsys, path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        converged = build_report(parse_scenario(read_scenario_file(path))).solve.converged
        codes = [run_cli(["simulate", str(path), "--out", "-"]), run_cli(["jshape", str(path)])]
    want = EXIT_OK if converged else EXIT_NOT_CONVERGED
    assert codes == [want, want]


@pytest.mark.parametrize(
    "command, name",
    [
        ("breakeven", "breakeven_window.scn"),
        ("simulate", "breakeven_window.scn"),
        ("simulate", "horizon.scn"),
        ("jshape", "horizon.scn"),
    ],
)
def test_a_size_too_large_to_allocate_is_invalid_input(capsys, command, name):
    # Each file passes validation, but a size it sets needs 8e17 bytes, beyond
    # any 64-bit address space, so numpy refuses the allocation at once: the
    # command exits 1 with one error line, not a traceback.
    path = str(TESTS / "oversize" / name)
    assert run_cli(["validate", path]) == EXIT_OK
    capsys.readouterr()
    assert run_cli([command, path]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_scenario_table_needs_the_built_in_catalog(capsys):
    # The table is the built-in catalog, so the command takes no preset.
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["scenario-table", "--preset", "paper-default"])
    assert exit_info.value.code == EXIT_INVALID
    assert "unrecognized arguments: --preset paper-default" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "breakeven", "jshape", "validate"])
def test_a_preset_beside_a_file_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        run_cli([command, str(REPO_SCENARIOS / "admin_savings_a.scn"), "--preset", "mystery"])
    assert exit_info.value.code == EXIT_INVALID
    assert "argument --preset: not allowed with argument scenario_file" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [(["validate", "-h"], EXIT_OK), (["validate"], EXIT_INVALID)])
def test_validate_usage_names_a_file_or_a_preset_as_required(capsys, argv, code):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(argv)
    assert exit_info.value.code == code
    captured = capsys.readouterr()
    assert "usage: fistrans validate [-h] (scenario_file | --preset PRESET)\n" in captured.out + captured.err


def test_validate_takes_a_preset_in_place_of_a_file(capsys):
    assert run_cli(["validate", "--preset", "paper-default"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("ok: scenario 'paper-default' (preset paper-default, 0 overrides)")


def test_unknown_preset_exits_invalid(capsys):
    assert run_cli(["simulate", "--preset", "mystery"]) == EXIT_INVALID
    assert "unknown preset" in capsys.readouterr().err


def test_simulate_handles_zero_gap_and_short_horizons(tmp_path, capsys):
    no_reform = tmp_path / "noreform.scn"
    no_reform.write_text(
        'name = "no-reform"\nhorizon = 4\n'
        "[target]\ntransfers = 46.0\nwages = 21.0\ninvestment = 12.0\noperating = 21.0\n"
        "[weights]\ntotal = 0.0\n",
        encoding="utf-8",
    )
    assert run_cli(["simulate", str(no_reform)]) == EXIT_OK
    assert "first_year_gap_closure: n/a" in capsys.readouterr().out

    one_year = tmp_path / "h1.scn"
    one_year.write_text("horizon = 1\n", encoding="utf-8")
    assert run_cli(["simulate", str(one_year)]) == EXIT_OK
    assert "converged: True" in capsys.readouterr().out


def test_user_preset_directory(tmp_path, capsys, monkeypatch):
    base = load_default_preset().scenario()
    (tmp_path / "mine.scn").write_text(serialize_scenario(base), encoding="utf-8")
    monkeypatch.setenv("FISTRANS_PRESET_DIR", str(tmp_path))
    assert run_cli(["breakeven", "--preset", "mine"]) == EXIT_INVALID  # no breakeven block
    capsys.readouterr()
    assert run_cli(["simulate", "--preset", "mine"]) == EXIT_OK


def test_simulate_rejects_horizon_past_the_float_range(tmp_path, capsys):
    path = tmp_path / "far.scn"
    path.write_text("beta = 0.5\nhorizon = 2200\n", encoding="utf-8")
    assert run_cli(["simulate", str(path)]) == EXIT_INVALID
    assert "beta = 0.5" in capsys.readouterr().err


def test_only_a_solve_loads_scipy():
    # Importing, validating, break-even timing and the scenario table load no
    # scipy. A solve needs only LAPACK, so it loads scipy's top-level package
    # and its LAPACK extension, not the scipy.linalg package (about half of a
    # solving process's cold start) or scipy.optimize.
    code = """
        import contextlib, io, sys
        import fistrans
        from fistrans.cli import run_cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return run_cli(list(argv))

        scenarios, command = sys.argv[1:]
        codes = [
            run("validate", f"{scenarios}/admin_savings_a.scn"),
            run("breakeven", f"{scenarios}/admin_savings_c.scn"),
            run("scenario-table"),
        ]
        before = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
        codes.append(run(command, "--preset", "paper-default"))
        linalg = sorted(m for m in sys.modules if m.startswith("scipy.linalg"))
        print((codes, before, linalg, "scipy.optimize" in sys.modules))
    """
    for command in ("simulate", "jshape"):
        codes, before, linalg, optimize = fresh_python(code, str(REPO_SCENARIOS), command)
        assert codes == [EXIT_OK] * 4, command
        assert before == [], command
        assert linalg == ["scipy.linalg._flapack"], command
        assert not optimize, command


def test_every_export_is_listed_by_its_module():
    # Each name the package re-exports is public in the module it comes from.
    tree = ast.parse(Path(fistrans.__file__).read_text(encoding="utf-8"))
    origin = {alias.name: node.module for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    for name in fistrans.__all__:
        if name != "__version__":
            module = importlib.import_module(f"fistrans.{origin[name]}")
            assert name in module.__all__, (name, module.__name__)
