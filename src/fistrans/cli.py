"""Command-line interface.

Subcommands:

* ``simulate <scenario-file> [--out CSV]``: solve the transition and print
  a summary; optionally write the per-year CSV.
* ``breakeven <scenario-file>``: run the administrative-savings pipeline
  and print the break-even year and windowed cumulative net savings.
* ``scenario-table``: print the six cataloged administrative-savings rows.
* ``jshape <scenario-file>``: solve, classify the effective-expenditure
  series, and check the first-year outlay against the long-run cost gain.
* ``validate <scenario-file>``: parse and invariant-check only.

Every subcommand but ``scenario-table`` accepts ``--preset NAME`` in place of
a file, not beside one; without either it runs the default preset, except
``validate``, which needs one of them. Exit codes: 0 on success, 1 on invalid
input (validation, syntax or usage errors, unreadable files, sizes too large
to allocate), 2 on solver non-convergence. Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .analytics import JShapeVerdict, equal_step_path, jshape_condition, savings_series
from .calibration import DEFAULT_PRESET_NAME, load_default_preset
from .planner import SolveReport, SolverConfig, gradualism_metric
from .scenario_io import (
    RunReport,
    ScenarioSyntaxError,
    build_report,
    emit_trajectory_csv,
    load_preset_scenario,
    parse_scenario_info,
    read_scenario_file,
)
from .types import Scenario, ValidationError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_CONVERGED = 2


def _load(args: argparse.Namespace) -> Tuple[Scenario, str, Tuple[str, ...]]:
    """Scenario plus provenance from a file path or preset name."""
    if args.scenario_file is not None:
        scenario, info = parse_scenario_info(read_scenario_file(args.scenario_file))
        return scenario, info.preset, info.overrides
    preset = args.preset if args.preset is not None else DEFAULT_PRESET_NAME
    return load_preset_scenario(preset), preset, ()


def _print_summary(report: RunReport, out) -> None:
    solve_report = report.solve
    print(f"scenario: {report.scenario.name}", file=out)
    print(f"converged: {solve_report.converged}", file=out)
    print(f"iterations: {solve_report.iterations}", file=out)
    print(f"objective: {solve_report.objective:.6f}", file=out)
    print(f"gradient_norm: {solve_report.gradient_norm:.3e}", file=out)
    print(f"max_euler_residual: {solve_report.max_euler_residual:.3e}", file=out)
    try:
        closure = f"{gradualism_metric(solve_report.trajectory, solve_report.anchor):.4f}"
    except ValidationError:
        closure = "n/a"  # a zero reform gap
    print(f"first_year_gap_closure: {closure}", file=out)
    _print_verdict(report.jshape, out)
    if report.savings is not None:
        s = report.savings
        print(f"breakeven_year: {s.breakeven_label}", file=out)
        print(f"cumulative_net_savings[0..{s.window}]: {s.windowed_cumulative:.2f}", file=out)


def _print_verdict(v: JShapeVerdict, out) -> None:
    detail = f"peak year {v.peak_index}, peak {v.peak_value:.4f}, terminal {v.terminal_value:.4f}"
    print(f"j_shaped: {v.is_j_shaped} ({detail})", file=out)


def _not_converged(r: SolveReport) -> int:
    reason = f"{r.termination} after {r.iterations} iterations (gradient_norm {r.gradient_norm:.3e})"
    print(f"solver did not converge: {reason}", file=sys.stderr)
    return EXIT_NOT_CONVERGED


def _run(args: argparse.Namespace) -> RunReport:
    """Load the scenario, solve it within ``--max-iterations``, and build its report."""
    scenario, preset, overrides = _load(args)
    config = None if args.max_iterations is None else SolverConfig(max_iterations=args.max_iterations)
    return build_report(scenario, config=config, preset=preset, overrides=overrides)


def _cmd_simulate(args: argparse.Namespace) -> int:
    report = _run(args)
    _print_summary(report, sys.stdout)
    if args.out is not None:
        csv_text = emit_trajectory_csv(report)
        if args.out == "-":
            sys.stdout.write(csv_text)
        else:
            Path(args.out).write_text(csv_text, encoding="utf-8")
            print(f"csv: {args.out}", file=sys.stdout)
    return EXIT_OK if report.solve.converged else _not_converged(report.solve)


def _cmd_breakeven(args: argparse.Namespace) -> int:
    scenario, _, _ = _load(args)
    if scenario.breakeven is None:
        raise ValidationError("scenario has no [breakeven] block")
    spec = scenario.breakeven
    series = savings_series(equal_step_path(spec), spec)
    print(f"scenario: {scenario.name}")
    print(f"reduction: {spec.reduction_fraction:.2f} of {spec.adjustable_base:g} over {spec.target_years} years")
    print(f"t* {'' if series.breakeven_year is None else '= '}{series.breakeven_label}")
    print(f"cumulative_net_savings[0..{series.window}]: {series.windowed_cumulative:.2f}")
    return EXIT_OK


def _cmd_scenario_table(args: argparse.Namespace) -> int:
    preset = load_default_preset()
    header = f"{'scenario':<9}{'rho':>5}{'H':>3}  {'regime':<7}{'gamma_F':>8}{'eta_F':>7}  {'t*':<4}{'cum_net[0..5]':>14}"
    print(header)
    for row in preset.breakeven_catalog:
        spec = row.spec
        series = savings_series(equal_step_path(spec), spec)
        label = series.breakeven_label
        print(
            f"{row.name:<9}{spec.reduction_fraction:>5.2f}{spec.target_years:>3}  "
            f"{row.regime:<7}{spec.gamma:>8.2f}{spec.eta:>7.2f}  "
            f"{label:<4}{series.windowed_cumulative:>14.2f}"
        )
    return EXIT_OK


def _cmd_jshape(args: argparse.Namespace) -> int:
    report = _run(args)
    outlay, gain, holds = jshape_condition(report.scenario)
    print(f"scenario: {report.scenario.name}")
    print(f"intended_reallocation_outlay: {outlay:.4f}")
    print(f"solved_first_year_outlay: {report.outlay[1]:.4f}")
    print(f"long_run_cost_gain: {gain:.4f}")
    print(f"outlay_exceeds_gain: {holds}")
    _print_verdict(report.jshape, sys.stdout)
    return EXIT_OK if report.solve.converged else _not_converged(report.solve)


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario, preset, overrides = _load(args)
    print(f"ok: scenario {scenario.name!r} (preset {preset}, {len(overrides)} overrides)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 (invalid input), not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="fistrans",
        description="Simulate public-expenditure transitions under convex adjustment costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    budget = ("--max-iterations", dict(type=int, help="solver iteration budget"))

    def command(name, run, summary, *options, source=True, required=False):
        """Register subcommand ``name``, which ``run_cli`` runs with ``run``: its
        scenario source unless ``source`` is false, a file or ``--preset`` but not
        both, one of them when ``required``; then each (flag, keywords) option."""
        # argparse brackets a required group whose positional is optional, so
        # the usage line is spelled out.
        usage = "%(prog)s [-h] (scenario_file | --preset PRESET)" if required else None
        p = sub.add_parser(name, help=summary, usage=usage)
        p.set_defaults(run=run)
        if source:
            group = p.add_mutually_exclusive_group(required=required)
            group.add_argument("scenario_file", nargs="?", help="scenario file path")
            group.add_argument("--preset", help="preset name used in place of a file")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)

    out = ("--out", dict(help="write the per-year CSV here ('-' for stdout)"))
    command("simulate", _cmd_simulate, "solve the transition and report", out, budget)
    command("breakeven", _cmd_breakeven, "administrative-savings timing")
    command("scenario-table", _cmd_scenario_table, "print the cataloged savings scenarios", source=False)
    command("jshape", _cmd_jshape, "classify the effective-expenditure path", budget)
    command("validate", _cmd_validate, "parse and check a scenario file", required=True)
    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    """Run one CLI invocation and return its exit status."""
    args = _build_parser().parse_args(list(argv) if argv is not None else None)
    try:
        # The solver's floating-point policy: a cost that overflows prints as inf, unwarned.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.run(args)
    except (ScenarioSyntaxError, ValidationError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
