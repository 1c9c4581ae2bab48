"""Timing loop, set-up probe and metric assembly for one benchmark run.

A run builds its workload's op list from the seed, then repeats passes over
that list until the next pass would overrun ``--seconds`` (always at least
two untraced passes). Ops run closed-loop, one at a time, in this process.
Outputs are checked after each pass, outside the timed region, so ``wall_s``
is program time only. Each op counts once in ``attempted`` and ``failed``,
whatever the number of passes. End-to-end timings are each op's best over
the passes, rescaled to the reference speed measured while it ran (see
``speed.py``); the raw figures go into the report.

With tracing on, every cycle is an untraced pass followed by a traced pass:
per-layer numbers come from the traced passes, and the tracing overhead is
the difference between their best-of wall times.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy
import scipy

import layers
from speed import REFERENCE_NS, Speedometer
from tracer import Tracer
from workloads import WORKLOADS, Op, Verdict

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "certified_frac": "fraction",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    [f"{name}.{field}" for name in layers.SPAN_NAMES for field in ("calls", "self_ms")]
    + list(layers.COUNTERS)
    + ["planner.raised", "planner.useful_frac", "scipy.optimize.minimize.nfev_per_nit"]
    + ["import.self_ms", "tracing.overhead_s"]
)

# Fresh interpreters time `import fistrans` plus the preset load; the median
# of several is the cold-start figure. Each such probe is paired with one that
# imports only numpy and scipy's linalg and optimize, and the median is
# rescaled by theirs to REFERENCE_IMPORT_S. Both are file and loader work, so
# the host's load moves them alike: on a busy host both rose by about a
# quarter while their ratio stayed put. The reference kernel of speed.py does
# not track import time, so it is not used here.
SETUP_REPEATS = 5
REFERENCE_IMPORT_S = 0.5
FISTRANS_IMPORT = "import fistrans; fistrans.load_default_preset()"
REFERENCE_IMPORT = "import numpy, scipy.linalg, scipy.optimize"
_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
{statement}
print(repr(time.perf_counter() - start))
"""


@dataclasses.dataclass(frozen=True)
class OpResult:
    name: str
    latency_ns: int
    verdict: Verdict
    samples: Tuple[int, int] = (0, 0)  # index range of the reference kernel runs that interrupted it


def cold_start(src: Path, statement: str) -> float:
    """Seconds a fresh interpreter takes to run ``statement``."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(statement=statement), str(src)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout)


def setup_probes(src: Path, repeats: int = SETUP_REPEATS) -> List[Tuple[float, float]]:
    """(fistrans, reference) cold-start seconds, one pair per repeat."""
    return [(cold_start(src, FISTRANS_IMPORT), cold_start(src, REFERENCE_IMPORT)) for _ in range(repeats)]


def _judge(op: Op, out: object) -> Verdict:
    try:
        return op.check(out)
    except Exception as err:  # a malformed output fails its check; the run goes on
        return Verdict(False, True, f"check raised {type(err).__name__}: {err}")


def run_pass(ops: List[Op], tracer: Optional[Tracer] = None, speed: Optional[Speedometer] = None) -> List[OpResult]:
    """Run every op once, then check the outputs.

    Latencies exclude the reference kernel runs that interrupted the op.
    """
    timed = []
    for op in ops:
        mark = speed.mark() if speed is not None else 0
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.root(layers.ROOT_SPAN):
                    out = op.run()
        except Exception as err:  # one failing op is counted and must not end the run
            out = Verdict(False, False, f"raised {type(err).__name__}: {err}")
        elapsed = time.perf_counter_ns() - start
        kernel_runs, kernel_ns = speed.since(mark) if speed is not None else (0, 0)
        timed.append((op, elapsed - kernel_ns, out, (mark, mark + kernel_runs)))
    return [
        OpResult(op.name, ns, out if isinstance(out, Verdict) else _judge(op, out), samples)
        for op, ns, out, samples in timed
    ]


@dataclasses.dataclass
class Measurement:
    untraced: List[List[int]] = dataclasses.field(default_factory=list)  # per pass, per op (ns)
    reference_ns: List[List[float]] = dataclasses.field(default_factory=list)  # per untraced pass and op, if sampled
    traced: List[List[int]] = dataclasses.field(default_factory=list)
    results: List[OpResult] = dataclasses.field(default_factory=list)
    layer_passes: List[Dict[str, float]] = dataclasses.field(default_factory=list)
    trace_problems: List[str] = dataclasses.field(default_factory=list)
    spans: Optional[dict] = None


def measure(
    ops: List[Op],
    seconds: float,
    tracer: Optional[Tracer] = None,
    speed: Optional[Speedometer] = None,
) -> Measurement:
    """Repeat passes while the next one fits in ``seconds``.

    An untraced run makes at least two passes, so that every op has a
    best-of; a traced cycle already holds an untraced and a traced pass.
    """
    min_cycles = 1 if tracer is not None else 2
    m = Measurement()
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        results = run_pass(ops, speed=speed)
        m.untraced.append([r.latency_ns for r in results])
        if speed is not None:
            m.reference_ns.append([speed.window_mean_ns(*r.samples) for r in results])
        m.results.extend(results)
        if tracer is not None:
            tracer.reset()
            results = run_pass(ops, tracer)
            m.traced.append([r.latency_ns for r in results])
            m.results.extend(results)
            m.trace_problems.extend(tracer.check_nesting())
            m.layer_passes.append(layers.per_layer(tracer.summary()))
            if m.spans is None:
                m.spans = tracer.dump_spans()
        now = time.perf_counter()
        if len(m.untraced) >= min_cycles and now - start + (now - cycle_start) > seconds:
            return m


def best_latencies(passes: List[List[float]]) -> List[float]:
    """Each op's fastest time over the passes, which bursts of load on the
    host affect less than a median."""
    return [min(times) for times in zip(*passes)]


def timings(passes: List[List[float]]) -> Dict[str, float]:
    best = best_latencies(passes)
    p90 = best[0] if len(best) == 1 else statistics.quantiles(best, n=10, method="inclusive")[8]
    return {"wall_s": sum(best) / 1e9, "op_p50_ms": statistics.median(best) / 1e6, "op_p90_ms": p90 / 1e6}


def at_reference_speed(m: Measurement) -> List[List[float]]:
    return [[ns * REFERENCE_NS / ref for ns, ref in zip(lats, refs)] for lats, refs in zip(m.untraced, m.reference_ns)]


def failures(m: Measurement) -> List[OpResult]:
    """One result per op that failed in any of its passes, traced or not.

    Every op is counted once, however many passes fit in the run, so the
    counts depend on the seed alone. Of an op's failed results, one where
    the program claimed success is kept, so a silent failure always shows.
    """
    n = len(m.untraced[0])
    failed = []
    for i in range(n):
        bad = [r for r in m.results[i::n] if not r.verdict.ok]
        if bad:
            failed.append(next((r for r in bad if r.verdict.claimed), bad[0]))
    return failed


def end_to_end(m: Measurement, setup_s: float) -> Dict[str, float]:
    ops = len(m.untraced[0])
    return {
        "setup_s": setup_s,
        **timings(at_reference_speed(m)),
        "certified_frac": (ops - len(failures(m))) / ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(m: Measurement, import_ms: float) -> Dict[str, float]:
    out = {name: statistics.median(p[name] for p in m.layer_passes) for name in m.layer_passes[0]}
    out["import.self_ms"] = import_ms
    overhead_ns = sum(best_latencies(m.traced)) - sum(best_latencies(m.untraced))
    out["tracing.overhead_s"] = overhead_ns / 1e9
    return out


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from its files; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> Dict[str, object]:
    return {
        "threads": {var: value for var, value in sorted(os.environ.items()) if var.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, import_ms: float, root: Path) -> dict:
    """One benchmark run; returns the full record, result line included."""
    workdir = root / "perfbench" / "out"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[workload](seed, workdir)
    if trace:
        # Traced passes are timed raw: the reference kernel would land in spans.
        tracer = Tracer()
        layers.install(tracer)
        try:
            m = measure(ops, seconds, tracer)
        finally:
            tracer.unwrap()
        probes, raw = [], {}
        values = traced_metrics(m, import_ms)
        units = layers.units(PER_LAYER)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in PER_LAYER}
    else:
        probes = setup_probes(root / "src")
        with Speedometer() as speed:
            m = measure(ops, seconds, speed=speed)
        fistrans_s = statistics.median(f for f, _ in probes)
        raw = {"setup_s": fistrans_s, **timings(m.untraced)}
        setup_s = fistrans_s * REFERENCE_IMPORT_S / statistics.median(r for _, r in probes)
        values = end_to_end(m, setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    failed = failures(m)
    silent = [r for r in failed if r.verdict.claimed]
    result = {
        "correct": not silent and not m.trace_problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    first_pass = m.results[: len(ops)]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root),
        "ops_per_pass": len(ops),
        "setup_probes_s": [f for f, _ in probes],
        "setup_reference_probes_s": [r for _, r in probes],
        "reference_kernel_ms": [[ns / 1e6 for ns in refs] for refs in m.reference_ns],
        "raw_timings": raw,
        "untraced_passes": len(m.untraced),
        "traced_passes": len(m.traced),
        # op_p50_ms and op_p90_ms are taken over this many per-op best times.
        "op_latency_samples": len(ops),
        "failed_frac": len(failed) / len(ops),
        "silent_failures": sorted({r.name for r in silent}),
        "failures": sorted({f"{r.name}: {r.verdict.reason}" for r in failed}),
        "trace_problems": m.trace_problems[:10],
    }
    return {
        "report": report,
        "result": result,
        "untraced_ns": m.untraced,
        "traced_ns": m.traced,
        "first_pass": [dataclasses.asdict(r) for r in first_pass],
        "spans": m.spans,
    }
