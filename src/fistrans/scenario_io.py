"""Scenario files, run reports, and CSV serialization.

Scenario file grammar (documented in the README as well):

* UTF-8 text, processed line by line.
* Blank lines and lines starting with ``#`` are ignored.
* ``[section]`` or ``[section.subsection]`` headers open a section.
* ``key = value`` assignments; values are numbers (``float`` syntax,
  ``inf``/``-inf`` allowed, ``nan`` rejected) or double-quoted strings.
* Keys before the first section header configure the run itself:
  ``name``, ``preset``, ``beta``, ``horizon``.
* Sections: ``[baseline]`` and ``[target]`` (category shares),
  ``[weights]`` (per-category plus ``total`` and ``total_reference``),
  ``[rigidity.<category>]`` (``gamma``/``eta`` or
  ``gamma_up``/``gamma_down``/``eta``), ``[bounds.<category>]``
  (``min_change``/``max_change``), and ``[breakeven]``.
* Unknown sections or keys are rejected with their line number.

Every field omitted by a file is filled from the named preset (default
``paper-default``), so a file containing only ``preset = "paper-default"``
is a complete scenario. Serialization emits every resolved field, so a
serialized scenario parses back bit-equal regardless of preset evolution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .analytics import (
    JShapeVerdict,
    SavingsSeries,
    adjustment_series,
    effective_expenditure,
    equal_step_path,
    jshape_classify,
    savings_series,
)
from .calibration import DEFAULT_PRESET_NAME, load_default_preset
from .planner import SolveReport, SolverConfig, solve
from .types import (
    CATEGORIES,
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
    "serialize_scenario",
    "build_report",
    "emit_trajectory_csv",
    "PRESET_DIR_ENV",
]

PRESET_DIR_ENV = "FISTRANS_PRESET_DIR"

_CATEGORY_KEYS = tuple(cat.key for cat in CATEGORIES)
_TOP_KEYS = ("name", "preset", "beta", "horizon")
_WEIGHT_KEYS = _CATEGORY_KEYS + ("total", "total_reference")
_RIGIDITY_KEYS = ("gamma", "eta", "gamma_up", "gamma_down")
_BOUND_KEYS = ("min_change", "max_change")
_BREAKEVEN_KEYS = (
    "adjustable_base",
    "core_floor",
    "reduction_fraction",
    "target_years",
    "window",
    "gamma",
    "eta",
    "gamma_up",
    "gamma_down",
)


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


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_lines(text: str) -> Dict[str, Dict[str, Tuple[object, int]]]:
    """Raw (section -> key -> (value, line)) mapping with syntax checking."""
    sections: Dict[str, Dict[str, Tuple[object, int]]] = {"": {}}
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
            if np.isnan(number):
                raise ScenarioSyntaxError("nan is not a valid value", lineno, column)
            value = number
        if key in sections[current]:
            raise ScenarioSyntaxError(f"duplicate key {key!r} in section [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _take_number(entry: Tuple[object, int], where: str) -> float:
    value, lineno = entry
    if not isinstance(value, float):
        raise ScenarioSyntaxError(f"{where} must be a number", lineno)
    return value


def _take_int(entry: Tuple[object, int], where: str) -> int:
    value = _take_number(entry, where)
    if not float(value).is_integer():
        raise ScenarioSyntaxError(f"{where} must be an integer", entry[1])
    return int(value)


def _take_string(entry: Tuple[object, int], where: str) -> str:
    value, lineno = entry
    if not isinstance(value, str):
        raise ScenarioSyntaxError(f"{where} must be a quoted string", lineno)
    return value


def _reject_unknown(section: str, found: Dict[str, Tuple[object, int]], allowed: Tuple[str, ...]) -> None:
    for key, (_, lineno) in found.items():
        if key not in allowed:
            where = f"[{section}]" if section else "the top section"
            raise ScenarioSyntaxError(f"unknown key {key!r} in {where}", lineno)


def _resolve_preset(name: str, depth: int = 0) -> Scenario:
    if name == DEFAULT_PRESET_NAME:
        return load_default_preset().scenario()
    preset_dir = os.environ.get(PRESET_DIR_ENV)
    if preset_dir:
        candidate = Path(preset_dir) / f"{name}.scn"
        if candidate.is_file():
            if depth >= 5:
                raise ValidationError(f"preset chain too deep while resolving {name!r}")
            return _parse(candidate.read_text(encoding="utf-8"), depth + 1)[0]
    raise ValidationError(f"unknown preset {name!r} (set {PRESET_DIR_ENV} for user presets)")


def _vector_from_section(
    section: Dict[str, Tuple[object, int]],
    section_name: str,
    base: ExpenditureVector,
    overrides: List[str],
) -> ExpenditureVector:
    _reject_unknown(section_name, section, _CATEGORY_KEYS)
    values = {cat.key: base.get(cat) for cat in CATEGORIES}
    for key, entry in section.items():
        values[key] = _take_number(entry, f"[{section_name}] {key}")
        overrides.append(f"{section_name}.{key}")
    return ExpenditureVector(**values)


def _parse(text: str, depth: int = 0) -> Tuple[Scenario, ScenarioFileInfo]:
    sections = _parse_lines(text)
    known_sections = {"", "baseline", "target", "weights", "breakeven"}
    for cat_key in _CATEGORY_KEYS:
        known_sections.add(f"rigidity.{cat_key}")
        known_sections.add(f"bounds.{cat_key}")
    for section in sections:
        if section not in known_sections:
            lineno = min(line for _, line in sections[section].values()) if sections[section] else 1
            raise ScenarioSyntaxError(f"unknown section [{section}]", lineno)

    top = sections[""]
    _reject_unknown("", top, _TOP_KEYS)
    preset_name = _take_string(top["preset"], "preset") if "preset" in top else DEFAULT_PRESET_NAME
    base = _resolve_preset(preset_name, depth)

    overrides: List[str] = []
    name = base.name
    if "name" in top:
        name = _take_string(top["name"], "name")
        overrides.append("name")
    beta = base.beta
    if "beta" in top:
        beta = _take_number(top["beta"], "beta")
        overrides.append("beta")
    horizon = base.horizon
    if "horizon" in top:
        horizon = _take_int(top["horizon"], "horizon")
        overrides.append("horizon")

    baseline = base.baseline
    if "baseline" in sections:
        baseline = _vector_from_section(sections["baseline"], "baseline", base.baseline, overrides)
    target = base.cost.target
    if "target" in sections:
        target = _vector_from_section(sections["target"], "target", base.cost.target, overrides)

    weights = dict(zip(_CATEGORY_KEYS, base.cost.weights))
    total_weight = base.cost.total_weight
    total_reference: Optional[float] = base.cost.total_reference
    if "weights" in sections:
        found = sections["weights"]
        _reject_unknown("weights", found, _WEIGHT_KEYS)
        for key, entry in found.items():
            value = _take_number(entry, f"[weights] {key}")
            overrides.append(f"weights.{key}")
            if key == "total":
                total_weight = value
            elif key == "total_reference":
                total_reference = value
            else:
                weights[key] = value
    cost = FiscalCostSpec(
        target=target,
        weights=tuple(weights[k] for k in _CATEGORY_KEYS),
        total_weight=total_weight,
        total_reference=total_reference,
    )

    rigidity = _parse_rigidity(sections, base.rigidity, overrides)
    bounds = _parse_bounds(sections, base.delta_bounds, overrides)
    breakeven = _parse_breakeven(sections, base.breakeven, overrides)

    scenario = Scenario(
        name=name,
        baseline=baseline,
        cost=cost,
        rigidity=rigidity,
        beta=beta,
        horizon=horizon,
        delta_bounds=bounds,
        breakeven=breakeven,
    )
    return scenario, ScenarioFileInfo(preset=preset_name, overrides=tuple(sorted(overrides)))


def _check_gamma_keys(section_name: str, found: Dict[str, Tuple[object, int]]) -> None:
    """A rigidity block sets gamma, or both gamma_up and gamma_down, never a mix."""
    lineno = min((line for _, line in found.values()), default=1)
    if "gamma" in found and ("gamma_up" in found or "gamma_down" in found):
        raise ScenarioSyntaxError(f"[{section_name}] mixes gamma with gamma_up/gamma_down", lineno)
    if ("gamma_up" in found) != ("gamma_down" in found):
        raise ScenarioSyntaxError(f"[{section_name}] needs both gamma_up and gamma_down", lineno)


def _parse_rigidity(
    sections: Dict[str, Dict[str, Tuple[object, int]]],
    base: RigidityParams,
    overrides: List[str],
) -> RigidityParams:
    per_cat: Dict[str, Dict[str, float]] = {}
    for cat in CATEGORIES:
        section_name = f"rigidity.{cat.key}"
        if section_name not in sections:
            continue
        found = sections[section_name]
        _reject_unknown(section_name, found, _RIGIDITY_KEYS)
        entries = {key: _take_number(entry, f"[{section_name}] {key}") for key, entry in found.items()}
        _check_gamma_keys(section_name, found)
        per_cat[cat.key] = entries
        overrides.extend(f"{section_name}.{key}" for key in entries)
    if not per_cat:
        return base

    eta = list(base.eta)
    up, down = (list(g) for g in base.gamma_pair())
    for idx, cat in enumerate(CATEGORIES):
        entries = per_cat.get(cat.key, {})
        if "eta" in entries:
            eta[idx] = entries["eta"]
        if "gamma_up" in entries:
            up[idx] = entries["gamma_up"]
            down[idx] = entries["gamma_down"]
        elif "gamma" in entries:
            up[idx] = down[idx] = entries["gamma"]
    # One asymmetric category makes the whole block asymmetric.
    if base.is_asymmetric or any("gamma_up" in entries for entries in per_cat.values()):
        return RigidityParams(eta=tuple(eta), gamma_up=tuple(up), gamma_down=tuple(down))
    return RigidityParams(gamma=tuple(up), eta=tuple(eta))


def _parse_bounds(
    sections: Dict[str, Dict[str, Tuple[object, int]]],
    base: Optional[Tuple[Tuple[float, float], ...]],
    overrides: List[str],
) -> Optional[Tuple[Tuple[float, float], ...]]:
    pairs = list(base) if base is not None else [(-np.inf, np.inf)] * len(CATEGORIES)
    seen = base is not None
    for idx, cat in enumerate(CATEGORIES):
        section_name = f"bounds.{cat.key}"
        if section_name not in sections:
            continue
        found = sections[section_name]
        _reject_unknown(section_name, found, _BOUND_KEYS)
        lo, hi = pairs[idx]
        if "min_change" in found:
            lo = _take_number(found["min_change"], f"[{section_name}] min_change")
            overrides.append(f"{section_name}.min_change")
        if "max_change" in found:
            hi = _take_number(found["max_change"], f"[{section_name}] max_change")
            overrides.append(f"{section_name}.max_change")
        pairs[idx] = (lo, hi)
        seen = True
    if not seen:
        return None
    if all(lo == -np.inf and hi == np.inf for lo, hi in pairs):
        return None
    return tuple(pairs)


def _parse_breakeven(
    sections: Dict[str, Dict[str, Tuple[object, int]]],
    base: Optional[BreakEvenSpec],
    overrides: List[str],
) -> Optional[BreakEvenSpec]:
    if "breakeven" not in sections:
        return base
    found = sections["breakeven"]
    _reject_unknown("breakeven", found, _BREAKEVEN_KEYS)
    _check_gamma_keys("breakeven", found)

    values: Dict[str, object] = {"gamma": None, "gamma_up": None, "gamma_down": None, "eta": 0.0}
    if base is not None:
        values.update(
            reduction_fraction=base.reduction_fraction,
            target_years=base.target_years,
            adjustable_base=base.adjustable_base,
            core_floor=base.core_floor,
            window=base.window,
            gamma=base.gamma,
            eta=base.eta,
            gamma_up=base.gamma_up,
            gamma_down=base.gamma_down,
        )
    for key, entry in found.items():
        if key in ("target_years", "window"):
            values[key] = _take_int(entry, f"[breakeven] {key}")
        else:
            values[key] = _take_number(entry, f"[breakeven] {key}")
        overrides.append(f"breakeven.{key}")
    if "gamma" in found:
        values["gamma_up"] = None
        values["gamma_down"] = None
    elif "gamma_up" in found:
        values["gamma"] = None
    missing = [k for k in ("reduction_fraction", "target_years") if values.get(k) is None]
    if missing:
        raise ValidationError(f"[breakeven] is missing required keys: {', '.join(missing)}")
    if values["gamma"] is None and values["gamma_up"] is None:
        values["gamma"] = 0.0
    return BreakEvenSpec(**values)  # type: ignore[arg-type]


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


def _fmt_number(value: float) -> str:
    # repr of a Python float is the shortest string that parses back exactly.
    return repr(float(value))


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario as a self-contained file (no preset references).

    Deterministic byte output: parse(serialize(s)) equals s exactly.
    """
    lines: List[str] = []
    lines.append(f'name = "{scenario.name}"')
    lines.append(f"beta = {_fmt_number(scenario.beta)}")
    lines.append(f"horizon = {scenario.horizon}")
    lines.append("")
    lines.append("[baseline]")
    for cat in CATEGORIES:
        lines.append(f"{cat.key} = {_fmt_number(scenario.baseline.get(cat))}")
    lines.append("")
    lines.append("[target]")
    for cat in CATEGORIES:
        lines.append(f"{cat.key} = {_fmt_number(scenario.cost.target.get(cat))}")
    lines.append("")
    lines.append("[weights]")
    for cat, w in zip(CATEGORIES, scenario.cost.weights):
        lines.append(f"{cat.key} = {_fmt_number(w)}")
    lines.append(f"total = {_fmt_number(scenario.cost.total_weight)}")
    lines.append(f"total_reference = {_fmt_number(scenario.cost.total_reference)}")
    for idx, cat in enumerate(CATEGORIES):
        lines.append("")
        lines.append(f"[rigidity.{cat.key}]")
        if scenario.rigidity.is_asymmetric:
            lines.append(f"gamma_up = {_fmt_number(scenario.rigidity.gamma_up[idx])}")
            lines.append(f"gamma_down = {_fmt_number(scenario.rigidity.gamma_down[idx])}")
        else:
            lines.append(f"gamma = {_fmt_number(scenario.rigidity.gamma[idx])}")
        lines.append(f"eta = {_fmt_number(scenario.rigidity.eta[idx])}")
    if scenario.delta_bounds is not None:
        for cat, (lo, hi) in zip(CATEGORIES, scenario.delta_bounds):
            if lo == -np.inf and hi == np.inf:
                continue
            lines.append("")
            lines.append(f"[bounds.{cat.key}]")
            if lo != -np.inf:
                lines.append(f"min_change = {_fmt_number(lo)}")
            if hi != np.inf:
                lines.append(f"max_change = {_fmt_number(hi)}")
    be = scenario.breakeven
    if be is not None:
        lines.append("")
        lines.append("[breakeven]")
        lines.append(f"reduction_fraction = {_fmt_number(be.reduction_fraction)}")
        lines.append(f"target_years = {be.target_years}")
        lines.append(f"adjustable_base = {_fmt_number(be.adjustable_base)}")
        lines.append(f"core_floor = {_fmt_number(be.core_floor)}")
        lines.append(f"window = {be.window}")
        if be.is_asymmetric:
            lines.append(f"gamma_up = {_fmt_number(be.gamma_up)}")
            lines.append(f"gamma_down = {_fmt_number(be.gamma_down)}")
        else:
            lines.append(f"gamma = {_fmt_number(be.gamma)}")
        lines.append(f"eta = {_fmt_number(be.eta)}")
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
    """Solve a scenario and bundle the derived series into a report."""
    report = solve(scenario, config)
    g_eff = effective_expenditure(report.trajectory, scenario.rigidity)
    if g_eff.size >= 3:
        verdict = jshape_classify(g_eff)
    else:
        # Too short to exhibit rise-then-fall; report the trivial verdict.
        verdict = JShapeVerdict(False, 0, float(g_eff[0]), float(g_eff[-1]))
    savings = None
    if scenario.breakeven is not None:
        savings = savings_series(equal_step_path(scenario.breakeven), scenario.breakeven)
    provenance = (
        ("tool", f"fistrans {__version__}"),
        ("preset", preset),
        ("overrides", ",".join(overrides) if overrides else "none"),
    )
    return RunReport(scenario, report, g_eff, verdict, savings, provenance)


def _fmt_cell(value: float) -> str:
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def emit_trajectory_csv(report: RunReport) -> str:
    """Fixed-layout CSV of the run: one row per year, six decimal places.

    Savings columns stay empty when the scenario has no break-even block
    and beyond the savings series' last year.
    """
    traj = report.solve.trajectory
    totals = traj.totals()
    phi_series = adjustment_series(traj, report.scenario.rigidity)
    lines = ["t,T,W,I,F,total,phi,G_eff,S_gross,S_net,cum_net"]
    savings = report.savings
    for t in range(traj.horizon + 1):
        cells = [str(t)]
        cells.extend(_fmt_cell(v) for v in traj.values[t])
        cells.append(_fmt_cell(totals[t]))
        cells.append(_fmt_cell(phi_series[t]))
        cells.append(_fmt_cell(report.g_eff[t]))
        if savings is not None and t < savings.net.size:
            cells.append(_fmt_cell(savings.gross[t]))
            cells.append(_fmt_cell(savings.net[t]))
            cells.append(_fmt_cell(savings.cumulative[t]))
        else:
            cells.extend(["", "", ""])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
