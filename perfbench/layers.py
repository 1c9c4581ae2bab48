"""The layers of fistrans the traced run measures, and where each is looked up.

Each entry names a span and every module attribute through which a caller
reaches that layer. The scipy and numpy calls are wrapped at the attribute
the planner looks up (``planner.sopt.minimize`` is ``scipy.optimize.minimize``
itself), so they stop being counted, rather than breaking the benchmark,
once the planner no longer uses them.
"""

from __future__ import annotations

from typing import Dict, List

from tracer import Tracer

_KERNELS = (
    "quad_cubic_value",
    "quad_cubic_marginal",
    "quad_cubic_curvature",
    "asym_quad_cubic_value",
    "asym_quad_cubic_marginal",
    "asym_quad_cubic_curvature",
)


def _count_solve(counters: Dict[str, float], args: tuple, report) -> None:
    counters["planner.iterations"] += report.iterations
    counters["planner.history_len"] += len(report.objective_history)
    counters["planner.not_converged"] += int(not report.converged)


def _count_minimize(counters: Dict[str, float], args: tuple, result) -> None:
    counters["scipy.optimize.minimize.nit"] += int(result.nit)
    counters["scipy.optimize.minimize.nfev"] += int(result.nfev)


def _count_dense_solve(counters: Dict[str, float], args: tuple, result) -> None:
    size = len(args[0])
    counters["numpy.linalg.solve.max_n"] = max(counters["numpy.linalg.solve.max_n"], size)


def _count_csv(counters: Dict[str, float], args: tuple, text: str) -> None:
    counters["scenario_io.csv_bytes"] += len(text.encode("utf-8"))


# (span name, lookup sites as "module:attribute.path", hook)
LAYERS = (
    (
        "calibration.load_default_preset",
        ("fistrans:load_default_preset", "fistrans.scenario_io:load_default_preset", "fistrans.cli:load_default_preset"),
        None,
    ),
    ("planner.solve", ("fistrans:solve", "fistrans.scenario_io:solve"), _count_solve),
    ("scipy.optimize.minimize", ("fistrans.planner:sopt.minimize",), _count_minimize),
    ("scipy.linalg.solveh_banded", ("fistrans.planner:sla.solveh_banded",), None),
    ("numpy.linalg.solve", ("fistrans.planner:np.linalg.solve",), _count_dense_solve),
    ("planner.euler_residuals", ("fistrans:euler_residuals", "fistrans.planner:euler_residuals"), None),
    (
        "costs.kernels",
        tuple(f"fistrans.planner:{k}" for k in _KERNELS)
        + tuple(f"fistrans.analytics:{k}" for k in _KERNELS),
        None,
    ),
    ("scenario_io.serialize_scenario", ("fistrans:serialize_scenario",), None),
    ("scenario_io.parse_scenario_info", ("fistrans.cli:parse_scenario_info",), None),
    ("scenario_io.build_report", ("fistrans.cli:build_report",), None),
    ("scenario_io.emit_trajectory_csv", ("fistrans.cli:emit_trajectory_csv",), _count_csv),
    ("analytics.effective_expenditure", ("fistrans.scenario_io:effective_expenditure",), None),
    ("analytics.jshape_classify", ("fistrans.scenario_io:jshape_classify",), None),
    ("analytics.savings_series", ("fistrans.scenario_io:savings_series", "fistrans.cli:savings_series"), None),
    ("cli.run_cli", ("fistrans.cli:run_cli",), None),
)
ROOT_SPAN = "op"
SPAN_NAMES = tuple(name for name, _, _ in LAYERS) + (ROOT_SPAN,)

COUNTERS = (
    "planner.iterations",
    "planner.history_len",
    "planner.not_converged",
    "scipy.optimize.minimize.nit",
    "scipy.optimize.minimize.nfev",
    "numpy.linalg.solve.max_n",
    "scenario_io.csv_bytes",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer; a site fistrans no longer has records zero calls."""
    for name in COUNTERS:
        tracer.counters[name] = 0
    for name, targets, hook in LAYERS:
        tracer.wrap(name, targets, hook)


def per_layer(summary: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, from a tracer summary."""
    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = summary[f"{name}.calls"]
        out[f"{name}.self_ms"] = summary[f"{name}.self_ms"]
    for name in COUNTERS:
        out[name] = summary[name]
    solves = summary["planner.solve.calls"]
    raised = summary["planner.solve.raised"]
    out["planner.raised"] = raised
    out["planner.useful_frac"] = (solves - raised - summary["planner.not_converged"]) / solves if solves else 0.0
    nit = summary["scipy.optimize.minimize.nit"]
    out["scipy.optimize.minimize.nfev_per_nit"] = summary["scipy.optimize.minimize.nfev"] / nit if nit else 0.0
    return out


def units(names: List[str]) -> Dict[str, str]:
    """Unit of each per-layer metric, from its name."""
    special = {
        "planner.useful_frac": "fraction",
        "scipy.optimize.minimize.nfev_per_nit": "ratio",
        "scenario_io.csv_bytes": "bytes",
        "import.self_ms": "ms",
        "tracing.overhead_s": "s",
    }
    return {n: special.get(n, "ms" if n.endswith("_ms") else "count") for n in names}
