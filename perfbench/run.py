#!/usr/bin/env python3
"""Run one clonalnet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_cnn --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there, and generated inputs, pools, results and span files go to
``.perfbench_work/``. The lines before the last name every metric that
applies to the workload, with its unit and sample count, plus the
environment and the correctness checks. The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may run on; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        "isolation": "none",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_cnn", "train_ais", "immune_classify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "clonalnet" / "__init__.py").is_file():
        print(f"perfbench: no clonalnet sources under {src}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(src))
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), WORK_DIR)
    env = environment(nproc)
    for name, m in result.report.items():
        n = f"  (n={m['n']})" if "n" in m else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{n}")
    for name, m in result.per_layer.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print("checks " + json.dumps(result.checks))
    print("warnings " + json.dumps(result.warnings))
    print("environment " + json.dumps(env))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "environment": env,
              "checks": result.checks, "warnings": result.warnings,
              "report": result.report, "per_layer": result.per_layer}
    (WORK_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.dump(WORK_DIR / f"{stem}-spans.npz")

    metrics = result.per_layer if args.trace else result.contract
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
