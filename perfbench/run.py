"""Run one fistrans benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 30 --trace 0

Run from the repository root. The last line of standard output is one JSON
object, ``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``. The line before it
is a report with the thread settings, versions, op counts and failures. The
full record, spans included, is written to ``perfbench/out/``.

fistrans is imported from ``src/`` of the same checkout only; without it the
run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("long_horizon", "bounded", "batch")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # BLAS reads these once, when numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "fistrans" / "__init__.py").is_file():
        print(f"error: no fistrans sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter_ns()
    import fistrans

    import_ms = (time.perf_counter_ns() - start) / 1e6
    if Path(fistrans.__file__).resolve().parent != SRC / "fistrans":
        print(f"error: fistrans was imported from {fistrans.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), import_ms, ROOT)
    out = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(record["report"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
