"""Fiscal expenditure transition dynamics under convex adjustment costs.

A small numpy/scipy library for simulating how a four-category public
expenditure allocation moves toward a reform target when each category
carries its own convex adjustment cost. Includes the transition planner
with optimality certification, effective-expenditure analytics with
rise-then-fall classification, an administrative-savings break-even
pipeline, a shipped calibration preset, scenario files, and a CLI.
"""

__version__ = "0.1.0"

from .analytics import (
    JShapeVerdict,
    SavingsSeries,
    adjustment_series,
    baseline_gap,
    effective_expenditure,
    equal_step_path,
    jshape_classify,
    jshape_condition,
    savings_series,
)
from .calibration import (
    BreakEvenScenario,
    CalibrationPreset,
    asymmetric_variant,
    load_default_preset,
    rigidity_to_params,
)
from .costs import CostEval, adjustment_cost, gradient_check, phi, phi_asymmetric, stage_cost
from .planner import (
    SolveReport,
    SolverConfig,
    euler_residuals,
    gradualism_metric,
    objective_value,
    solve,
    stage_cost_minimizer,
)
from .scenario_io import (
    RunReport,
    ScenarioSyntaxError,
    build_report,
    emit_trajectory_csv,
    parse_scenario,
    parse_scenario_info,
    serialize_scenario,
)
from .types import (
    CATEGORIES,
    BreakEvenSpec,
    Category,
    DeltaVector,
    ExpenditureVector,
    FiscalCostSpec,
    ModeMismatchError,
    RigidityParams,
    Scenario,
    Trajectory,
    ValidationError,
    delta,
    total,
)

__all__ = [
    "__version__",
    "BreakEvenScenario",
    "BreakEvenSpec",
    "CalibrationPreset",
    "CATEGORIES",
    "Category",
    "CostEval",
    "DeltaVector",
    "ExpenditureVector",
    "FiscalCostSpec",
    "JShapeVerdict",
    "ModeMismatchError",
    "RigidityParams",
    "RunReport",
    "SavingsSeries",
    "Scenario",
    "ScenarioSyntaxError",
    "SolveReport",
    "SolverConfig",
    "Trajectory",
    "ValidationError",
    "adjustment_cost",
    "adjustment_series",
    "asymmetric_variant",
    "baseline_gap",
    "build_report",
    "delta",
    "effective_expenditure",
    "emit_trajectory_csv",
    "equal_step_path",
    "euler_residuals",
    "gradient_check",
    "gradualism_metric",
    "jshape_classify",
    "jshape_condition",
    "load_default_preset",
    "objective_value",
    "parse_scenario",
    "parse_scenario_info",
    "phi",
    "phi_asymmetric",
    "rigidity_to_params",
    "savings_series",
    "serialize_scenario",
    "solve",
    "stage_cost",
    "stage_cost_minimizer",
    "total",
]
