"""Scenario files, run reports, and CSV serialization.

Scenario file grammar (documented in the README as well):

* UTF-8 text, processed line by line.
* Blank lines and lines starting with ``#`` are ignored.
* ``[section]`` or ``[section.subsection]`` headers open a section.
* ``key = value`` assignments; values are numbers (``float`` syntax,
  ``inf``/``-inf`` allowed, ``nan`` rejected) or double-quoted strings.
* Keys before the first section header configure the run itself.
* Unknown keys are rejected with their line number, unknown sections with
  the line of their header.

``_fields`` is the one place where the sections and keys are defined: it
maps a scenario to ``section -> key -> value`` in file order. Serializing
renders that table. Parsing overlays the file's entries on the table of the
named preset (default ``paper-default``, the shared ``load_default_preset()``)
and builds the scenario, so ``preset = "paper-default"`` alone is a complete
scenario. Serialization emits every resolved field, so a serialized
scenario parses back bit-equal regardless of preset evolution.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from . import __version__
from .analytics import (
    JShapeVerdict,
    SavingsSeries,
    adjustment_series,
    equal_step_path,
    jshape_classify,
    savings_series,
)
from .calibration import DEFAULT_PRESET_NAME, load_default_preset
from .planner import SolveReport, SolverConfig, solve
from .types import (
    CATEGORIES,
    _NO_LIMITS,
    BreakEvenSpec,
    ExpenditureVector,
    FiscalCostSpec,
    RigidityParams,
    Scenario,
    ValidationError,
)

__all__ = [
    "ScenarioSyntaxError",
    "ScenarioFileInfo",
    "RunReport",
    "parse_scenario",
    "parse_scenario_info",
    "load_preset_scenario",
    "read_scenario_file",
    "serialize_scenario",
    "build_report",
    "emit_trajectory_csv",
    "PRESET_DIR_ENV",
]

PRESET_DIR_ENV = "FISTRANS_PRESET_DIR"

_Table = Dict[str, Dict[str, object]]
_Entries = Dict[str, Tuple[object, int]]


class ScenarioSyntaxError(ValueError):
    """A scenario file is not well formed; carries the offending position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ScenarioFileInfo:
    """Provenance of a parsed scenario: preset used and keys overridden."""

    preset: str
    overrides: Tuple[str, ...]


@dataclass(frozen=True, eq=False)
class RunReport:
    """Everything a run produced, alongside the full inputs that produced it."""

    scenario: Scenario
    solve: SolveReport
    g_eff: np.ndarray
    jshape: JShapeVerdict
    savings: Optional[SavingsSeries]
    provenance: Tuple[Tuple[str, str], ...]
    outlay: np.ndarray  # each year's adjustment outlay, the CSV's phi; g_eff adds it to the totals


# ---------------------------------------------------------------------------
# The file format
# ---------------------------------------------------------------------------

# The kind of every key not listed here is float.
_KINDS = {"name": str, "preset": str, "horizon": int, "target_years": int, "window": int}
_CATEGORY_KEYS = tuple(cat.key for cat in CATEGORIES)


def _fields(scenario: Scenario) -> _Table:
    """A scenario as ``section -> key -> value``, sections and keys in file order.

    This table defines which sections and keys a file may hold. ``None``
    marks a key the scenario leaves unset: the gamma keys of the other
    rigidity mode, an infinite change limit, every key of an absent
    break-even block, and ``preset`` (a resolved scenario names none).
    """
    cost, be = scenario.cost, scenario.breakeven
    gamma_keys = ("gamma", "gamma_up", "gamma_down", "eta")
    rigidity = {key: getattr(scenario.rigidity, key) for key in gamma_keys}
    table: _Table = {
        "": {"name": scenario.name, "preset": None, "beta": scenario.beta, "horizon": scenario.horizon},
        "baseline": dict(zip(_CATEGORY_KEYS, scenario.baseline.as_tuple())),
        "target": dict(zip(_CATEGORY_KEYS, cost.target.as_tuple())),
        "weights": {
            **dict(zip(_CATEGORY_KEYS, cost.weights)),
            "total": cost.total_weight,
            "total_reference": cost.total_reference,
        },
    }
    for idx, category in enumerate(_CATEGORY_KEYS):
        table[f"rigidity.{category}"] = {key: None if v is None else v[idx] for key, v in rigidity.items()}
    for category, (lo, hi) in zip(_CATEGORY_KEYS, scenario.delta_bounds or _NO_LIMITS):
        table[f"bounds.{category}"] = {
            "min_change": None if lo == -np.inf else lo,
            "max_change": None if hi == np.inf else hi,
        }
    be_keys = ("reduction_fraction", "target_years", "adjustable_base", "core_floor", "window") + gamma_keys
    table["breakeven"] = {key: None if be is None else getattr(be, key) for key in be_keys}
    return table


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_lines(text: str) -> Tuple[Dict[str, _Entries], Dict[str, int]]:
    """Raw (section -> key -> (value, line)) mapping with syntax checking,
    plus the line of each section's first header."""
    sections: Dict[str, _Entries] = {"": {}}
    headers: Dict[str, int] = {}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ScenarioSyntaxError("malformed section header", lineno, raw.index("[") + 1)
            current = line[1:-1].strip()
            if not current or any(not part.strip() for part in current.split(".")):
                raise ScenarioSyntaxError("empty section name", lineno, raw.index("[") + 1)
            sections.setdefault(current, {})
            headers.setdefault(current, lineno)
            continue
        if "=" not in line:
            raise ScenarioSyntaxError("expected 'key = value' or a section header", lineno)
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if not key:
            raise ScenarioSyntaxError("missing key before '='", lineno)
        if not value_text:
            raise ScenarioSyntaxError(f"missing value for key {key!r}", lineno, raw.index("=") + 2)
        column = raw.index("=") + 2
        if value_text.startswith('"'):
            if len(value_text) < 2 or not value_text.endswith('"') or '"' in value_text[1:-1]:
                raise ScenarioSyntaxError("malformed quoted string", lineno, column)
            value: object = value_text[1:-1]
        else:
            try:
                number = float(value_text)
            except ValueError:
                raise ScenarioSyntaxError(f"expected a number or quoted string, got {value_text!r}", lineno, column) from None
            if math.isnan(number):
                raise ScenarioSyntaxError("nan is not a valid value", lineno, column)
            value = number
        if key in sections[current]:
            raise ScenarioSyntaxError(f"duplicate key {key!r} in section [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections, headers


def _take(entry: Tuple[object, int], kind: type, where: str) -> object:
    """A file value checked against the kind of its key."""
    value, lineno = entry
    if kind is str:
        if not isinstance(value, str):
            raise ScenarioSyntaxError(f"{where} must be a quoted string", lineno)
        return value
    if not isinstance(value, float):
        raise ScenarioSyntaxError(f"{where} must be a number", lineno)
    if kind is int:
        if not value.is_integer():
            raise ScenarioSyntaxError(f"{where} must be an integer", lineno)
        return int(value)
    return value


def _apply_gamma_rule(section_name: str, found: _Entries, fields: Dict[str, object]) -> None:
    """A rigidity block sets gamma, or both gamma_up and gamma_down, never a
    mix; the form a file sets replaces the other form's preset values."""
    lineno = min((line for _, line in found.values()), default=1)
    if "gamma" in found and ("gamma_up" in found or "gamma_down" in found):
        raise ScenarioSyntaxError(f"[{section_name}] mixes gamma with gamma_up/gamma_down", lineno)
    if ("gamma_up" in found) != ("gamma_down" in found):
        raise ScenarioSyntaxError(f"[{section_name}] needs both gamma_up and gamma_down", lineno)
    if "gamma" in found:
        fields["gamma_up"] = fields["gamma_down"] = None
    elif "gamma_up" in found:
        fields["gamma"] = None


def read_scenario_file(path: str | os.PathLike) -> str:
    """The text of a scenario file. A byte that is not UTF-8 raises
    ``ScenarioSyntaxError`` naming the file, line and column."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        # Every byte before the bad one decodes; "?" stands in for it.
        lines = (data[: err.start].decode("utf-8") + "?").splitlines()
        error = ScenarioSyntaxError(f"byte 0x{data[err.start]:02x} is not valid UTF-8", len(lines), len(lines[-1]))
        error.path, error.args = path, (f"{path}: {error}",)
        raise error from None


def _resolve_preset(name: str, depth: int = 0) -> Scenario:
    if name == DEFAULT_PRESET_NAME:
        return load_default_preset().scenario()
    preset_dir = os.environ.get(PRESET_DIR_ENV)
    if preset_dir:
        candidate = Path(preset_dir) / f"{name}.scn"
        if candidate.is_file():
            if depth >= 5:
                raise ValidationError(f"preset chain too deep while resolving {name!r}")
            try:
                return _parse(read_scenario_file(candidate), depth + 1)[0]
            except (ScenarioSyntaxError, ValidationError) as err:
                # Name the file the error is in; one from a nested preset names its own.
                if not hasattr(err, "path"):
                    err.path, err.args = candidate, (f"{candidate}: {err}",)
                raise
    raise ValidationError(f"unknown preset {name!r} (set {PRESET_DIR_ENV} for user presets)")


def _parse(text: str, depth: int = 0) -> Tuple[Scenario, ScenarioFileInfo]:
    sections, headers = _parse_lines(text)
    top = sections[""]
    preset_name = _take(top["preset"], str, "preset") if "preset" in top else DEFAULT_PRESET_NAME
    base = _resolve_preset(preset_name, depth)
    table = _fields(base)
    for section, found in sections.items():
        if section not in table:
            raise ScenarioSyntaxError(f"unknown section [{section}]", headers[section])
        fields = table[section]
        for key, entry in found.items():
            if key not in fields:
                where = f"[{section}]" if section else "the top section"
                raise ScenarioSyntaxError(f"unknown key {key!r} in {where}", entry[1])
            fields[key] = _take(entry, _KINDS.get(key, float), f"[{section}] {key}" if section else key)
        if "gamma_up" in fields:
            _apply_gamma_rule(section, found, fields)
    overrides = tuple(
        sorted(f"{section}.{key}" if section else key for section, found in sections.items() for key in found if key != "preset")
    )
    scenario = _build(table, base.rigidity.is_asymmetric, "breakeven" in sections)
    return scenario, ScenarioFileInfo(preset=preset_name, overrides=overrides)


def _build(table: _Table, preset_asymmetric: bool, has_breakeven: bool) -> Scenario:
    """The scenario a table describes.

    The rigidity block is asymmetric if the preset's is or if one
    ``[rigidity.*]`` section is. A ``[breakeven]`` section in the file
    builds that block even when the preset has none.
    """
    top, weights = table[""], table["weights"]
    rigidity = [table[f"rigidity.{category}"] for category in _CATEGORY_KEYS]
    eta = tuple(r["eta"] for r in rigidity)
    if preset_asymmetric or any(r["gamma"] is None for r in rigidity):
        up = tuple(r["gamma_up"] if r["gamma"] is None else r["gamma"] for r in rigidity)
        down = tuple(r["gamma_down"] if r["gamma"] is None else r["gamma"] for r in rigidity)
        rigidity_params = RigidityParams(eta=eta, gamma_up=up, gamma_down=down)
    else:
        rigidity_params = RigidityParams(gamma=tuple(r["gamma"] for r in rigidity), eta=eta)
    be = {key: value for key, value in table["breakeven"].items() if value is not None}
    breakeven = None
    if be or has_breakeven:
        missing = [k for k in ("reduction_fraction", "target_years") if k not in be]
        if missing:
            raise ValidationError(f"[breakeven] is missing required keys: {', '.join(missing)}")
        if "gamma" not in be and "gamma_up" not in be:
            be["gamma"] = 0.0
        breakeven = BreakEvenSpec(**be)
    bounds = [table[f"bounds.{category}"] for category in _CATEGORY_KEYS]
    return Scenario(
        name=top["name"],
        baseline=ExpenditureVector(**table["baseline"]),
        cost=FiscalCostSpec(
            target=ExpenditureVector(**table["target"]),
            weights=tuple(weights[category] for category in _CATEGORY_KEYS),
            total_weight=weights["total"],
            total_reference=weights["total_reference"],
        ),
        rigidity=rigidity_params,
        beta=top["beta"],
        horizon=top["horizon"],
        # Scenario turns all-infinite limits into None.
        delta_bounds=tuple(
            (-np.inf if b["min_change"] is None else b["min_change"], np.inf if b["max_change"] is None else b["max_change"])
            for b in bounds
        ),
        breakeven=breakeven,
    )


def parse_scenario(text: str) -> Scenario:
    """Parse scenario-file contents into a fully validated Scenario."""
    return _parse(text)[0]


def load_preset_scenario(name: str) -> Scenario:
    """The scenario a bare preset name resolves to (built-in or user file)."""
    return _resolve_preset(name)


def parse_scenario_info(text: str) -> Tuple[Scenario, ScenarioFileInfo]:
    """Parse scenario-file contents and report preset/override provenance."""
    return _parse(text)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _render(key: str, value: object) -> str:
    kind = _KINDS.get(key, float)
    if kind is str:
        return f'"{value}"'
    if kind is int:
        return str(value)
    # repr of a Python float is the shortest string that parses back exactly.
    return repr(float(value))


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario as a self-contained file (no preset references).

    Deterministic byte output: parse(serialize(s)) equals s exactly.
    """
    lines = []
    for section, fields in _fields(scenario).items():
        body = [f"{key} = {_render(key, value)}" for key, value in fields.items() if value is not None]
        if section and body:
            lines += ["", f"[{section}]"]
        lines += body
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reports and CSV
# ---------------------------------------------------------------------------


def build_report(
    scenario: Scenario,
    config: Optional[SolverConfig] = None,
    preset: str = DEFAULT_PRESET_NAME,
    overrides: Tuple[str, ...] = (),
) -> RunReport:
    """Solve a scenario and derive every reported series from it, once. A
    ``g_eff`` the shape classifier rejects (shorter than three years, or not
    finite after a stopped solve) gets the trivial verdict: no rise, peak at 0."""
    report = solve(scenario, config)
    # The solver's floating-point policy: an outlay that overflows is inf, unwarned.
    with np.errstate(over="ignore", invalid="ignore"):
        outlay = adjustment_series(report.trajectory, scenario.rigidity)
        g_eff = report.trajectory.totals() + outlay
        savings = None
        if scenario.breakeven is not None:
            savings = savings_series(equal_step_path(scenario.breakeven), scenario.breakeven)
    g_eff.flags.writeable = outlay.flags.writeable = False  # the jshape verdict describes these bits
    try:
        verdict = jshape_classify(g_eff)
    except ValidationError:
        verdict = JShapeVerdict(False, 0, float(g_eff[0]), float(g_eff[-1]))
    provenance = (
        ("tool", f"fistrans {__version__}"),
        ("preset", preset),
        ("overrides", ",".join(overrides) if overrides else "none"),
    )
    return RunReport(scenario, report, g_eff, verdict, savings, provenance, outlay)


def emit_trajectory_csv(report: RunReport) -> str:
    """Fixed-layout CSV of the run: one row per year, six decimal places.

    Savings columns stay empty when the scenario has no break-even block
    and beyond the savings series' last year. A value that rounds to zero
    from below prints as ``0.000000``.
    """
    traj, savings = report.solve.trajectory, report.savings
    table = np.column_stack([traj.values, traj.totals(), report.outlay, report.g_eff]).tolist()
    if savings is not None:
        for row, saved in zip(table, np.column_stack([savings.gross, savings.net, savings.cumulative]).tolist()):
            row += saved
    templates = {7: "%d" + ",%.6f" * 7 + ",,,", 10: "%d" + ",%.6f" * 10}
    rows = [templates[len(row)] % (t, *row) for t, row in enumerate(table)]
    # Every cell has six decimals and a '-' only starts a cell, so the
    # pattern matches whole cells only.
    return "\n".join(["t,T,W,I,F,total,phi,G_eff,S_gross,S_net,cum_net", *rows, ""]).replace("-0.000000", "0.000000")
